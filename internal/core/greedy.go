package core

import (
	"sort"

	"prospector/internal/network"
	"prospector/internal/plan"
)

// Greedy is PROSPECTOR GREEDY: it repeatedly picks the unvisited node
// that contributes most to the top k across all samples (largest column
// sum of the Boolean sample matrix) and adds it to the plan, as long as
// the plan's collection cost stays within budget. It is
// topology-oblivious: priorities ignore how expensive a node is to
// reach, although cost accounting does share edges already opened by
// earlier picks.
type Greedy struct {
	cfg Config
}

// NewGreedy builds the paper's PROSPECTOR GREEDY.
func NewGreedy(cfg Config) (*Greedy, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Greedy{cfg: cfg}, nil
}

// Name implements Planner.
func (g *Greedy) Name() string { return "Greedy" }

// Plan implements Planner.
func (g *Greedy) Plan(budget float64) (*plan.Plan, error) {
	cfg := g.cfg
	n := cfg.Net.Size()
	chosen := make([]bool, n)
	usedEdge := make([]bool, n)
	cost := 0.0

	// marginal returns the extra collection cost of adding node i to
	// the current plan: a message on every newly opened path edge plus
	// one value slot on every path edge.
	marginal := func(i network.NodeID) float64 {
		extra := 0.0
		cfg.Net.AncestorEdges(i, func(e network.NodeID) {
			if !usedEdge[e] {
				extra += cfg.Costs.Msg[e]
			}
			extra += cfg.Costs.ValueCost(e, 1)
		})
		return extra
	}

	// The paper's rule: fixed priority order by column sum; add each
	// node that still fits the budget.
	order := candidateNodes(cfg)
	sort.SliceStable(order, func(a, b int) bool {
		sa, sb := cfg.Samples.ColumnSum(int(order[a])), cfg.Samples.ColumnSum(int(order[b]))
		if sa != sb {
			return sa > sb
		}
		return order[a] < order[b]
	})
	for _, i := range order {
		mc := marginal(i)
		if cost+mc > budget {
			continue
		}
		cost += mc
		commit(cfg.Net, i, chosen, usedEdge)
	}
	return finishPlan(cfg, g.Name(), budget)(plan.NewSelection(cfg.Net, chosen))
}

// candidateNodes lists every non-root node that ever ranked in the top
// k of a sample; nodes that never did cannot improve the objective.
func candidateNodes(cfg Config) []network.NodeID {
	var out []network.NodeID
	for i := 1; i < cfg.Net.Size(); i++ {
		if cfg.Samples.ColumnSum(i) > 0 {
			out = append(out, network.NodeID(i))
		}
	}
	return out
}

// neededEdges marks the edges that can carry a value some sample in
// the window ranks in its top k (the edges above the candidate nodes);
// ok is false when there are none.
func neededEdges(cfg Config) (needed []bool, ok bool) {
	needed = make([]bool, cfg.Net.Size())
	for j := 0; j < cfg.Samples.Len(); j++ {
		for _, i := range cfg.Samples.Ones(j) {
			if i != int(network.Root) {
				ok = true
				cfg.Net.AncestorEdges(network.NodeID(i), func(e network.NodeID) { needed[e] = true })
			}
		}
	}
	return needed, ok
}

func commit(net *network.Network, i network.NodeID, chosen, usedEdge []bool) {
	chosen[i] = true
	net.AncestorEdges(i, func(e network.NodeID) {
		usedEdge[e] = true
	})
}
