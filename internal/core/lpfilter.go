package core

import (
	"fmt"
	"math"

	"prospector/internal/lp"
	"prospector/internal/network"
	"prospector/internal/plan"
)

// LPFilter is PROSPECTOR LP+LF (Section 4.2): the topology-aware
// linear program extended with per-edge bandwidth variables, so plans
// can examine many values inside a subtree but forward only the most
// promising ones (local filtering). Where LP-LF has one variable per
// node, LP+LF has one variable per 1-entry of the Boolean sample
// matrix, letting the plan make per-sample, run-time-like decisions.
//
// The program:
//
//	maximize   sum_{j, i in ones(j)} x_ij
//	subject to x_ij <= y_{edge above i}
//	           y_e  <= y_{parent edge}
//	           sum_{i in ones(j) ∩ desc(e)} x_ij <= b_e      (per edge, sample)
//	           b_e  <= cap_e * y_e
//	           sum_e (Cm_e*y_e + Cv_e*b_e) <= budget
//	           0 <= x_ij, y_e <= 1;  0 <= b_e <= cap_e
//
// with cap_e = min(k, subtree size): a top-k query never benefits from
// moving more than k values across one edge.
// LPFilter caches its LP across Plan calls (see paramLP) and is
// therefore not safe for concurrent use; build one per goroutine.
//
//confine:goroutine
type LPFilter struct {
	cfg   Config
	param paramLP
	prog  lpfilterProgram
}

// lpfilterProgram is the built LP+LF model plus what rounding needs.
type lpfilterProgram struct {
	model     *lp.Model
	budgetRow int
	bs        []lp.VarID
	caps      []float64
	empty     bool
}

// NewLPFilter builds the planner.
func NewLPFilter(cfg Config) (*LPFilter, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &LPFilter{cfg: cfg}, nil
}

// Name implements Planner.
func (p *LPFilter) Name() string { return "LP+LF" }

// Plan implements Planner.
func (p *LPFilter) Plan(budget float64) (*plan.Plan, error) {
	cfg := p.cfg
	net := cfg.Net
	n := net.Size()

	if !p.param.fresh(cfg) {
		p.prog = buildLPFilterProgram(cfg, budget)
		if p.prog.empty {
			p.param.installEmpty(cfg)
		} else {
			p.param.install(cfg, p.prog.model, p.prog.budgetRow, 0)
		}
	}
	prog := p.prog
	if prog.empty {
		return finishPlan(cfg, p.Name(), budget)(plan.NewFiltering(net, make([]int, n)))
	}
	sol, err := p.param.solve(cfg, budget)
	if err != nil {
		return nil, err
	}
	if sol.Status != lp.Optimal {
		return nil, fmt.Errorf("core: LP+LF solve ended %v", sol.Status)
	}

	// Round bandwidths to integers, restore structural feasibility
	// (no used edge under an unused one), then repair the budget.
	bw := make([]int, n)
	for v := 1; v < n; v++ {
		if prog.bs[v] >= 0 {
			bw[v] = int(math.Floor(sol.X[prog.bs[v]] + 0.5))
			if bw[v] > int(prog.caps[v]) {
				bw[v] = int(prog.caps[v])
			}
		}
	}
	enforceMonotone(net, bw)
	if !cfg.DisableRepair {
		repairBandwidth(cfg, bw, budget)
		fillBandwidth(cfg, bw, budget, prog.caps)
	}
	return finishPlan(cfg, p.Name(), budget)(plan.NewFiltering(net, bw))
}

// buildLPFilterProgram assembles the LP+LF model; only the budget
// row's rhs depends on the budget, making the program parametric.
func buildLPFilterProgram(cfg Config, budget float64) lpfilterProgram {
	net := cfg.Net
	n := net.Size()
	S := cfg.Samples.Len()

	m := lp.NewModel()
	m.Maximize()

	// x_ij for every 1-entry with i != root (the root's reading is
	// already at the station and costs nothing).
	type entry struct {
		i network.NodeID
		v lp.VarID
	}
	xvars := make([][]entry, S)
	edgeNeeded := make([]bool, n)
	for j := 0; j < S; j++ {
		for _, i := range cfg.Samples.Ones(j) {
			if i == int(network.Root) {
				continue
			}
			id := m.MustVar(0, 1, 1, fmt.Sprintf("x_%d_%d", j, i))
			xvars[j] = append(xvars[j], entry{i: network.NodeID(i), v: id})
			net.AncestorEdges(network.NodeID(i), func(e network.NodeID) { edgeNeeded[e] = true })
		}
	}
	ys := make([]lp.VarID, n)
	bs := make([]lp.VarID, n)
	caps := make([]float64, n)
	for v := range ys {
		ys[v], bs[v] = -1, -1
	}
	// Create all edge variables first: parent IDs may exceed child IDs
	// in BFS-built trees, so constraints go in a second pass.
	var costTerms []lp.Term
	for v := 1; v < n; v++ {
		if !edgeNeeded[v] {
			continue
		}
		caps[v] = math.Min(float64(cfg.K), float64(net.SubtreeSize(network.NodeID(v))))
		ys[v] = m.MustVar(0, 1, 0, fmt.Sprintf("y%d", v))
		// Tiny index-distinct bandwidth penalty so the rounded plan is
		// the same from every optimal pivot path (see tieEps).
		obj := -tieEps * (1 + float64(v)/float64(n))
		bs[v] = m.MustVar(0, caps[v], obj, fmt.Sprintf("b%d", v))
		costTerms = append(costTerms,
			lp.Term{Var: ys[v], Coef: cfg.Costs.Msg[v]},
			lp.Term{Var: bs[v], Coef: cfg.Costs.Val[v]})
	}
	for v := 1; v < n; v++ {
		if ys[v] < 0 {
			continue
		}
		// b_e <= cap_e * y_e ties bandwidth to edge usage.
		m.MustConstr([]lp.Term{{Var: bs[v], Coef: 1}, {Var: ys[v], Coef: -caps[v]}}, lp.LE, 0)
		if parent := net.Parent(network.NodeID(v)); parent != network.Root {
			m.MustConstr([]lp.Term{{Var: ys[v], Coef: 1}, {Var: ys[parent], Coef: -1}}, lp.LE, 0)
		}
	}
	if len(costTerms) == 0 {
		return lpfilterProgram{empty: true}
	}
	budgetRow := m.MustConstr(costTerms, lp.LE, budget)

	for j := 0; j < S; j++ {
		for _, e := range xvars[j] {
			// x_ij <= y_{edge above i}; monotonicity covers ancestors.
			m.MustConstr([]lp.Term{{Var: e.v, Coef: 1}, {Var: ys[e.i], Coef: -1}}, lp.LE, 0)
		}
	}
	// Bandwidth rows: for each used edge and sample, the top-k values
	// of that sample under the edge cannot exceed its bandwidth.
	for v := 1; v < n; v++ {
		if bs[v] < 0 {
			continue
		}
		for j := 0; j < S; j++ {
			var terms []lp.Term
			for _, e := range xvars[j] {
				if net.IsAncestor(network.NodeID(v), e.i) {
					terms = append(terms, lp.Term{Var: e.v, Coef: 1})
				}
			}
			if len(terms) == 0 {
				continue
			}
			terms = append(terms, lp.Term{Var: bs[v], Coef: -1})
			m.MustConstr(terms, lp.LE, 0)
		}
	}

	return lpfilterProgram{model: m, budgetRow: budgetRow, bs: bs, caps: caps}
}

// enforceMonotone zeroes any bandwidth whose path to the root crosses
// an unused edge (such values could never arrive anyway).
func enforceMonotone(net *network.Network, bw []int) {
	for _, v := range net.Preorder() {
		if v == network.Root {
			continue
		}
		if parent := net.Parent(v); parent != network.Root && bw[parent] == 0 {
			bw[v] = 0
		}
	}
}

// repairBandwidth decrements bandwidths until the plan fits the
// budget, each time choosing the decrement that sacrifices the least
// sample coverage (ties: the most expensive edge).
func repairBandwidth(cfg Config, bw []int, budget float64) {
	net := cfg.Net
	for bandwidthCost(cfg, bw) > budget {
		base := bandwidthCoverage(cfg, bw)
		best := network.NodeID(-1)
		bestLoss, bestSave := 0, 0.0
		for v := 1; v < net.Size(); v++ {
			if bw[v] == 0 {
				continue
			}
			// Dropping an edge to zero also silences its subtree; only
			// consider leaf-of-the-used-subtree edges for full drops.
			if bw[v] == 1 && hasUsedChild(net, bw, network.NodeID(v)) {
				continue
			}
			bw[v]--
			loss := base - bandwidthCoverage(cfg, bw)
			save := cfg.Costs.ValueCost(network.NodeID(v), 1)
			if bw[v] == 0 {
				save += cfg.Costs.Msg[v]
			}
			bw[v]++
			if best < 0 || loss < bestLoss || (loss == bestLoss && save > bestSave) {
				best, bestLoss, bestSave = network.NodeID(v), loss, save
			}
		}
		if best < 0 {
			return // nothing left to trim
		}
		bw[best]--
	}
}

func hasUsedChild(net *network.Network, bw []int, v network.NodeID) bool {
	for _, c := range net.Children(v) {
		if bw[c] > 0 {
			return true
		}
	}
	return false
}

// fillBandwidth spends leftover budget on the bandwidth increment (or
// edge opening) that gains the most sample coverage per joule.
func fillBandwidth(cfg Config, bw []int, budget float64, caps []float64) {
	net := cfg.Net
	for {
		cost := bandwidthCost(cfg, bw)
		base := bandwidthCoverage(cfg, bw)
		best := network.NodeID(-1)
		bestScore := 0.0
		for v := 1; v < net.Size(); v++ {
			if caps[v] == 0 || bw[v] >= int(caps[v]) {
				continue
			}
			// Opening an edge below an unused edge is pointless.
			if parent := net.Parent(network.NodeID(v)); parent != network.Root && bw[parent] == 0 {
				continue
			}
			extra := cfg.Costs.ValueCost(network.NodeID(v), 1)
			if bw[v] == 0 {
				extra += cfg.Costs.Msg[v]
			}
			if cost+extra > budget {
				continue
			}
			bw[v]++
			gain := bandwidthCoverage(cfg, bw) - base
			bw[v]--
			if gain <= 0 {
				continue
			}
			score := float64(gain) / extra
			if best < 0 || score > bestScore {
				best, bestScore = network.NodeID(v), score
			}
		}
		if best < 0 {
			return
		}
		bw[best]++
	}
}
