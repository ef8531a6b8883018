// Package plan defines executable top-k query plans: which edges a
// collection phase uses, how many values each edge may carry, and (for
// selection-style plans) which nodes' readings are wanted at the root.
// Planners in internal/core produce these; internal/exec runs them.
package plan

import (
	"fmt"
	"strings"

	"prospector/internal/energy"
	"prospector/internal/network"
)

// Kind distinguishes how a plan's bandwidth assignment is interpreted
// during execution.
type Kind int

// Plan kinds.
const (
	// Selection plans (PROSPECTOR GREEDY, LP-LF, ORACLE) move the
	// readings of the chosen nodes all the way to the root; relay
	// nodes forward without contributing or filtering.
	Selection Kind = iota
	// Filtering plans (PROSPECTOR LP+LF) give every used edge a
	// bandwidth; each participating node merges its children's lists
	// with its own reading and forwards only the top values.
	Filtering
	// Proof plans (PROSPECTOR PROOF / EXACT phase 1, ORACLE PROOF)
	// behave like filtering plans but use every edge and propagate
	// proven-count metadata per Section 4.3 of the paper.
	Proof
)

func (k Kind) String() string {
	switch k {
	case Selection:
		return "selection"
	case Filtering:
		return "filtering"
	case Proof:
		return "proof"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Plan is an executable query plan over a specific network. Bandwidth
// is indexed by node ID and describes the edge above that node (entry 0,
// the root, is unused). For Selection plans Chosen marks the nodes whose
// readings travel to the root and Bandwidth is derived.
type Plan struct {
	Kind      Kind
	Bandwidth []int
	Chosen    []bool // Selection plans only; nil otherwise
}

// NewSelection builds a Selection plan from a chosen-node set,
// deriving per-edge bandwidths (#chosen nodes in each subtree).
func NewSelection(net *network.Network, chosen []bool) (*Plan, error) {
	if len(chosen) != net.Size() {
		return nil, fmt.Errorf("plan: %d chosen flags for %d nodes", len(chosen), net.Size())
	}
	p := &Plan{
		Kind:      Selection,
		Bandwidth: make([]int, net.Size()),
		Chosen:    append([]bool(nil), chosen...),
	}
	net.PostorderWalk(func(v network.NodeID) {
		n := 0
		if chosen[v] {
			n = 1
		}
		for _, c := range net.Children(v) {
			n += p.Bandwidth[c]
		}
		if v != network.Root {
			p.Bandwidth[v] = n
		}
	})
	return p, nil
}

// NewFiltering builds a Filtering plan from explicit per-edge
// bandwidths (indexed by the lower endpoint; entry 0 ignored).
func NewFiltering(net *network.Network, bandwidth []int) (*Plan, error) {
	if len(bandwidth) != net.Size() {
		return nil, fmt.Errorf("plan: %d bandwidths for %d nodes", len(bandwidth), net.Size())
	}
	p := &Plan{Kind: Filtering, Bandwidth: append([]int(nil), bandwidth...)}
	return p, p.Validate(net)
}

// NewProof builds a Proof plan. Every edge must carry at least one
// value, since an unvisited node could hold the maximum.
func NewProof(net *network.Network, bandwidth []int) (*Plan, error) {
	if len(bandwidth) != net.Size() {
		return nil, fmt.Errorf("plan: %d bandwidths for %d nodes", len(bandwidth), net.Size())
	}
	for i := 1; i < len(bandwidth); i++ {
		if bandwidth[i] < 1 {
			return nil, fmt.Errorf("plan: proof plan leaves edge above node %d unused", i)
		}
	}
	p := &Plan{Kind: Proof, Bandwidth: append([]int(nil), bandwidth...)}
	return p, p.Validate(net)
}

// Validate checks internal consistency against a network.
func (p *Plan) Validate(net *network.Network) error {
	if len(p.Bandwidth) != net.Size() {
		return fmt.Errorf("plan: %d bandwidths for %d nodes", len(p.Bandwidth), net.Size())
	}
	for i := 1; i < len(p.Bandwidth); i++ {
		v := network.NodeID(i)
		if p.Bandwidth[i] < 0 {
			return fmt.Errorf("plan: negative bandwidth %d on edge above node %d", p.Bandwidth[i], i)
		}
		if p.Bandwidth[i] > net.SubtreeSize(v) {
			return fmt.Errorf("plan: bandwidth %d exceeds subtree size %d at node %d",
				p.Bandwidth[i], net.SubtreeSize(v), i)
		}
		// A used edge below an unused edge can never deliver values.
		if p.Bandwidth[i] > 0 && v != network.Root {
			if parent := net.Parent(v); parent != network.Root && p.Bandwidth[parent] == 0 {
				return fmt.Errorf("plan: edge above node %d used but parent edge above %d is not", i, parent)
			}
		}
	}
	if p.Chosen != nil && len(p.Chosen) != len(p.Bandwidth) {
		return fmt.Errorf("plan: %d chosen flags for %d nodes", len(p.Chosen), len(p.Bandwidth))
	}
	return nil
}

// UsesEdge reports whether the collection phase sends a message on the
// edge above v.
func (p *Plan) UsesEdge(v network.NodeID) bool {
	return v != network.Root && p.Bandwidth[v] > 0
}

// Participants returns how many nodes take part in the plan (have a
// used edge above them), plus the root.
func (p *Plan) Participants() int {
	n := 1
	for i := 1; i < len(p.Bandwidth); i++ {
		if p.Bandwidth[i] > 0 {
			n++
		}
	}
	return n
}

// Costs holds the per-edge cost parameters planning and accounting
// use: Msg[v] is the fixed cost of a message on the edge above v (mJ),
// Val[v] the marginal cost of one value on it (mJ/val). Derived from an
// energy.Model, optionally inflated for failure-prone links (§4.4).
type Costs struct {
	Msg   []float64
	Val   []energy.MJPerValue
	model energy.Model
}

// NewCosts derives uniform per-edge costs from the energy model.
func NewCosts(net *network.Network, m energy.Model) *Costs {
	c := &Costs{
		Msg:   make([]float64, net.Size()),
		Val:   make([]energy.MJPerValue, net.Size()),
		model: m,
	}
	for i := 1; i < net.Size(); i++ {
		c.Msg[i] = m.PerMessage
		c.Val[i] = m.PerValue()
	}
	return c
}

// Model returns the underlying energy model.
func (c *Costs) Model() energy.Model { return c.model }

// ValueCost returns the cost of carrying n values on the edge above v.
// Val is a per-value rate (energy.MJPerValue); multiplying out the
// value count here is how it becomes energy, since a Val added to an
// energy total does not compile.
func (c *Costs) ValueCost(v network.NodeID, n int) float64 {
	return float64(c.Val[v]) * float64(n)
}

// InflateForFailures raises each edge's costs by its expected reroute
// overhead: cost *= 1 + failProb[v]*rerouteFactor, the adjustment
// Section 4.4 feeds into optimization.
func (c *Costs) InflateForFailures(failProb []float64, rerouteFactor float64) error {
	if len(failProb) != len(c.Msg) {
		return fmt.Errorf("plan: %d failure probabilities for %d nodes", len(failProb), len(c.Msg))
	}
	for i := 1; i < len(c.Msg); i++ {
		p := failProb[i]
		if p < 0 || p > 1 {
			return fmt.Errorf("plan: failure probability %g on edge above node %d", p, i)
		}
		mult := 1 + p*rerouteFactor
		c.Msg[i] *= mult
		c.Val[i] *= energy.MJPerValue(mult)
	}
	return nil
}

// proofMetaBytes is the per-message overhead of a Proof plan: the
// proven-count field on each internal edge (§4.3).
const proofMetaBytes = 1

// ProofMetaCost returns the energy reserved per internal edge for the
// proven-count field of Proof plans (§4.3): the field's bytes at the
// model's per-byte rate.
func (c *Costs) ProofMetaCost() float64 { return c.model.ByteCost(proofMetaBytes) }

// CollectionCost returns the static energy cost of one collection
// phase of the plan: a message on every used edge plus the per-value
// cost of its bandwidth. For Proof plans one extra byte per internal
// edge is reserved for the proven-count field.
func (p *Plan) CollectionCost(net *network.Network, c *Costs) float64 {
	total := 0.0
	for i := 1; i < net.Size(); i++ {
		v := network.NodeID(i)
		if !p.UsesEdge(v) {
			continue
		}
		total += c.Msg[i] + c.ValueCost(v, p.Bandwidth[i])
		if p.Kind == Proof && len(net.Children(v)) > 0 {
			total += c.ProofMetaCost()
		}
	}
	return total
}

// TriggerCost returns the energy of the broadcast that starts a
// collection phase: every participating internal node rebroadcasts.
func (p *Plan) TriggerCost(net *network.Network, c *Costs) float64 {
	total := 0.0
	for _, v := range net.Preorder() {
		if len(net.Children(v)) == 0 {
			continue
		}
		// A node rebroadcasts when any child edge is used.
		for _, ch := range net.Children(v) {
			if p.UsesEdge(ch) {
				total += c.model.Trigger()
				break
			}
		}
	}
	return total
}

// InstallCost returns the energy of the initial distribution phase:
// each participating node receives, in one unicast from its parent, the
// bundle of encoded subplans (see wire.go) for every participating node
// in its subtree — its own part is peeled off and the rest relayed. The
// byte counts are actual encoding sizes, so bundles shrink with depth.
func (p *Plan) InstallCost(net *network.Network, c *Costs) float64 {
	total := 0.0
	for i := 1; i < net.Size(); i++ {
		v := network.NodeID(i)
		if !p.UsesEdge(v) {
			continue
		}
		total += c.Msg[i] + c.model.ByteCost(p.BundleBytes(net, v))
	}
	return total
}

// TotalBandwidth returns the sum of all edge bandwidths (total value
// transmissions budgeted per collection).
func (p *Plan) TotalBandwidth() int {
	t := 0
	for _, b := range p.Bandwidth[1:] {
		t += b
	}
	return t
}

// String summarizes the plan.
func (p *Plan) String() string {
	return fmt.Sprintf("plan{%v participants=%d bandwidth=%d}", p.Kind, p.Participants(), p.TotalBandwidth())
}

// Describe renders a per-node table of the plan for logs and CLIs:
// which edges are used, their bandwidths, and (for selection plans)
// which nodes were chosen.
func (p *Plan) Describe(net *network.Network) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%v\n", p)
	fmt.Fprintf(&b, "%6s %6s %9s %6s %s\n", "node", "depth", "bandwidth", "chosen", "children-used")
	for _, v := range net.SortedByDepth() {
		if v != network.Root && !p.UsesEdge(v) {
			continue
		}
		used := 0
		for _, c := range net.Children(v) {
			if p.UsesEdge(c) {
				used++
			}
		}
		chosen := "-"
		if p.Chosen != nil {
			if p.Chosen[v] {
				chosen = "yes"
			} else {
				chosen = "no"
			}
		}
		fmt.Fprintf(&b, "%6d %6d %9d %6s %d/%d\n",
			v, net.Depth(v), p.Bandwidth[v], chosen, used, len(net.Children(v)))
	}
	return b.String()
}
