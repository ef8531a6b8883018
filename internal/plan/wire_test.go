package plan

import (
	"math/rand"
	"reflect"
	"testing"

	"prospector/internal/network"
)

func randPlan(rng *rand.Rand, net *network.Network) *Plan {
	switch rng.Intn(3) {
	case 0:
		chosen := make([]bool, net.Size())
		for i := 1; i < net.Size(); i++ {
			chosen[i] = rng.Float64() < 0.4
		}
		p, err := NewSelection(net, chosen)
		if err != nil {
			panic(err)
		}
		return p
	case 1:
		bw := make([]int, net.Size())
		for _, v := range net.Preorder() {
			if v == network.Root {
				continue
			}
			parent := net.Parent(v)
			if parent != network.Root && bw[parent] == 0 {
				continue
			}
			bw[v] = rng.Intn(4)
			if s := net.SubtreeSize(v); bw[v] > s {
				bw[v] = s
			}
		}
		p, err := NewFiltering(net, bw)
		if err != nil {
			panic(err)
		}
		return p
	default:
		bw := make([]int, net.Size())
		for v := 1; v < net.Size(); v++ {
			bw[v] = 1 + rng.Intn(3)
			if s := net.SubtreeSize(network.NodeID(v)); bw[v] > s {
				bw[v] = s
			}
		}
		p, err := NewProof(net, bw)
		if err != nil {
			panic(err)
		}
		return p
	}
}

func TestWireRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 40; trial++ {
		n := 3 + rng.Intn(60)
		parent := make([]network.NodeID, n)
		for i := 1; i < n; i++ {
			parent[i] = network.NodeID(rng.Intn(i))
		}
		net, err := network.New(parent, nil)
		if err != nil {
			t.Fatal(err)
		}
		p := randPlan(rng, net)
		back, err := Decode(net, p.Encode())
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if back.Kind != p.Kind || !reflect.DeepEqual(back.Bandwidth, p.Bandwidth) {
			t.Fatalf("trial %d: round trip changed the plan", trial)
		}
		if !reflect.DeepEqual(back.Chosen, p.Chosen) {
			t.Fatalf("trial %d: chosen set changed", trial)
		}
	}
}

func TestSubplanEncoding(t *testing.T) {
	net := network.BalancedTree(2, 2)
	bw := []int{0, 3, 2, 1, 1, 1, 0} // child 6 unused
	p, err := NewFiltering(net, bw)
	if err != nil {
		t.Fatal(err)
	}
	sub := p.EncodeSubplan(net, 2)
	// kind + bandwidth(2) + count + one child id (5; 6 is unused).
	if len(sub) != 6 {
		t.Fatalf("subplan = %v", sub)
	}
	if sub[0] != byte(Filtering) || sub[1] != 2 || sub[3] != 1 || sub[4] != 5 {
		t.Errorf("subplan bytes = %v", sub)
	}
	if got := p.SubplanBytes(net, 2); got != len(sub) {
		t.Errorf("SubplanBytes = %d, encoded %d", got, len(sub))
	}
	// Leaf subplan has no children section beyond the count.
	if got := p.SubplanBytes(net, 3); got != 4 {
		t.Errorf("leaf subplan bytes = %d", got)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	net := network.Line(4)
	p, err := NewFiltering(net, []int{0, 2, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	good := p.Encode()
	cases := [][]byte{
		nil,
		good[:2],
		append(append([]byte{}, good...), 0xFF), // trailing
		append([]byte{9}, good[1:]...),          // bad kind
		func() []byte { b := append([]byte{}, good...); b[1] = 99; return b }(), // wrong size
	}
	for i, c := range cases {
		if _, err := Decode(net, c); err == nil {
			t.Errorf("case %d: Decode accepted corrupt data", i)
		}
	}
	// Selection without chosen bitmap.
	chosen := make([]bool, 4)
	chosen[2] = true
	sp, err := NewSelection(net, chosen)
	if err != nil {
		t.Fatal(err)
	}
	enc := sp.Encode()
	enc[len(enc)-2] = 0 // flip has-chosen flag... find its offset: 3+2*4
	bad := enc[:3+2*4+1]
	bad[3+2*4] = 0
	if _, err := Decode(net, bad); err == nil {
		t.Error("Decode accepted selection plan without chosen set")
	}
}

func TestInstallCostUsesRealBytes(t *testing.T) {
	net := network.BalancedTree(3, 2)
	p, err := NewProof(net, func() []int {
		bw := make([]int, net.Size())
		for v := 1; v < net.Size(); v++ {
			bw[v] = 1
		}
		return bw
	}())
	if err != nil {
		t.Fatal(err)
	}
	c := testCosts(net)
	// Bundle accounting: the edge above v carries every subplan of v's
	// participating subtree, each sized by its real encoding.
	want := 0.0
	for i := 1; i < net.Size(); i++ {
		v := network.NodeID(i)
		bundle := 0
		for _, d := range net.Descendants(v) {
			bundle += len(p.EncodeSubplan(net, d))
		}
		want += c.Msg[i] + float64(c.Model().PerByte)*float64(bundle)
	}
	if got := p.InstallCost(net, c); got != want {
		t.Errorf("InstallCost = %g, want %g", got, want)
	}
	// A deeper node's bundle is never larger than its parent's.
	for i := 1; i < net.Size(); i++ {
		v := network.NodeID(i)
		if par := net.Parent(v); par != network.Root {
			if p.BundleBytes(net, v) > p.BundleBytes(net, par) {
				t.Errorf("bundle grew from %d to %d descending to node %d",
					p.BundleBytes(net, par), p.BundleBytes(net, v), v)
			}
		}
	}
}
