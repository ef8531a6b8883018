package plan

import (
	"math"
	"strings"
	"testing"

	"prospector/internal/energy"
	"prospector/internal/network"
)

func testCosts(net *network.Network) *Costs {
	return NewCosts(net, energy.DefaultModel())
}

func TestNewSelectionDerivesBandwidth(t *testing.T) {
	net := network.BalancedTree(2, 2) // 7 nodes: 0; 1,2; 3,4 under 1; 5,6 under 2
	chosen := make([]bool, 7)
	chosen[3], chosen[4], chosen[6] = true, true, true
	p, err := NewSelection(net, chosen)
	if err != nil {
		t.Fatal(err)
	}
	// Edge above 1 carries nodes 3 and 4; edge above 2 carries node 6.
	if p.Bandwidth[1] != 2 || p.Bandwidth[2] != 1 {
		t.Errorf("bandwidth = %v", p.Bandwidth)
	}
	if p.Bandwidth[3] != 1 || p.Bandwidth[5] != 0 {
		t.Errorf("leaf bandwidths = %v", p.Bandwidth)
	}
	// Participants: the root plus the used edges above 1, 2, 3, 4, 6.
	if p.Participants() != 6 {
		t.Errorf("participants = %d, want 6", p.Participants())
	}
}

func TestValidateCatchesBadPlans(t *testing.T) {
	net := network.Line(4)
	if _, err := NewFiltering(net, []int{0, 1, 2}); err == nil {
		t.Error("accepted wrong length")
	}
	if _, err := NewFiltering(net, []int{0, -1, 0, 0}); err == nil {
		t.Error("accepted negative bandwidth")
	}
	if _, err := NewFiltering(net, []int{0, 9, 1, 1}); err == nil {
		t.Error("accepted bandwidth above subtree size")
	}
	// Used edge below an unused one.
	if _, err := NewFiltering(net, []int{0, 1, 0, 1}); err == nil {
		t.Error("accepted disconnected usage")
	}
	if _, err := NewProof(net, []int{0, 1, 1, 0}); err == nil {
		t.Error("proof plan accepted an unused edge")
	}
}

func TestCollectionCostBreakdown(t *testing.T) {
	net := network.Line(3) // edges above 1 and 2
	c := testCosts(net)
	p, err := NewFiltering(net, []int{0, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	m := c.Model()
	perValue := float64(m.PerValue())
	want := (m.PerMessage + 2*perValue) + (m.PerMessage + 1*perValue)
	if got := p.CollectionCost(net, c); math.Abs(got-want) > 1e-12 {
		t.Errorf("CollectionCost = %g, want %g", got, want)
	}
	// Proof plans reserve one byte per internal edge.
	pp, err := NewProof(net, []int{0, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	wantProof := want + float64(m.PerByte) // node 1 is internal; node 2 is a leaf
	if got := pp.CollectionCost(net, c); math.Abs(got-wantProof) > 1e-12 {
		t.Errorf("proof CollectionCost = %g, want %g", got, wantProof)
	}
}

func TestTriggerCost(t *testing.T) {
	net := network.BalancedTree(2, 2)
	c := testCosts(net)
	bw := []int{0, 1, 0, 1, 0, 0, 0} // only the subtree under node 1 used
	p, err := NewFiltering(net, bw)
	if err != nil {
		t.Fatal(err)
	}
	// Rebroadcasters: root (child 1 used) and node 1 (child 3 used).
	want := 2 * c.Model().Trigger()
	if got := p.TriggerCost(net, c); math.Abs(got-want) > 1e-12 {
		t.Errorf("TriggerCost = %g, want %g", got, want)
	}
}

func TestInstallCostCoversParticipants(t *testing.T) {
	net := network.BalancedTree(2, 3)
	c := testCosts(net)
	all := make([]bool, net.Size())
	for i := 1; i < net.Size(); i++ {
		all[i] = true
	}
	p, err := NewSelection(net, all)
	if err != nil {
		t.Fatal(err)
	}
	got := p.InstallCost(net, c)
	// At least one message per non-root node.
	min := float64(net.Size()-1) * c.Model().PerMessage
	if got < min {
		t.Errorf("InstallCost %g below message floor %g", got, min)
	}
	// Install is the same order as collection (the paper's claim).
	collect := p.CollectionCost(net, c)
	if got > 3*collect {
		t.Errorf("InstallCost %g far above collection %g", got, collect)
	}
}

func TestInflateForFailures(t *testing.T) {
	net := network.Line(3)
	c := testCosts(net)
	baseMsg := c.Msg[1]
	prob := []float64{0, 0.5, 0}
	if err := c.InflateForFailures(prob, 0.6); err != nil {
		t.Fatal(err)
	}
	want := baseMsg * (1 + 0.5*0.6)
	if math.Abs(c.Msg[1]-want) > 1e-12 {
		t.Errorf("inflated Msg[1] = %g, want %g", c.Msg[1], want)
	}
	if c.Msg[2] != baseMsg {
		t.Errorf("Msg[2] changed to %g", c.Msg[2])
	}
	if err := c.InflateForFailures([]float64{0, 2, 0}, 1); err == nil {
		t.Error("accepted probability > 1")
	}
	if err := c.InflateForFailures([]float64{0}, 1); err == nil {
		t.Error("accepted short probability vector")
	}
}

func TestUsesEdgeAndTotals(t *testing.T) {
	net := network.Line(4)
	p, err := NewFiltering(net, []int{0, 3, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	if p.UsesEdge(network.Root) {
		t.Error("root has no edge")
	}
	if !p.UsesEdge(2) {
		t.Error("edge above 2 should be used")
	}
	if got := p.TotalBandwidth(); got != 6 {
		t.Errorf("TotalBandwidth = %d", got)
	}
	if got := p.Participants(); got != 4 {
		t.Errorf("Participants = %d", got)
	}
}

func TestDescribe(t *testing.T) {
	net := network.BalancedTree(2, 2)
	chosen := make([]bool, net.Size())
	chosen[3], chosen[6] = true, true
	p, err := NewSelection(net, chosen)
	if err != nil {
		t.Fatal(err)
	}
	out := p.Describe(net)
	for _, want := range []string{"selection", "bandwidth", "chosen", "yes"} {
		if !strings.Contains(out, want) {
			t.Errorf("Describe missing %q:\n%s", want, out)
		}
	}
	// Unused-edge nodes are omitted (node 5 has no chosen descendant).
	if strings.Contains(out, "\n     5 ") {
		t.Errorf("Describe lists unused node:\n%s", out)
	}
}
