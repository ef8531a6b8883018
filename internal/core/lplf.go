package core

import (
	"fmt"
	"sort"

	"prospector/internal/lp"
	"prospector/internal/network"
	"prospector/internal/plan"
)

// LPNoFilter is PROSPECTOR LP-LF (Section 4.1): a topology-aware
// linear program that selects which nodes' readings to pull to the
// root. Unlike GREEDY it can recognize that promising values clustered
// under one subtree share per-message costs; unlike LP+LF it cannot
// express local filtering — a chosen value always travels the whole
// way up.
//
// The program (one variable per node and per edge):
//
//	maximize   sum_i colsum(i) * x_i
//	subject to x_i <= y_{edge above i}                 (chosen => edge used)
//	           y_e <= y_{parent edge of e}             (edges form a rooted subtree)
//	           sum_e Cm_e*y_e + sum_i x_i*path value cost <= budget
//	           0 <= x_i, y_e <= 1
//
// The paper writes the first family as one row per (node, ancestor
// edge); the edge-monotonicity chain here is the standard equivalent
// reformulation with O(n) instead of O(n*height) rows — integer
// solutions coincide.
// LPNoFilter caches its LP across Plan calls (see paramLP) and is
// therefore not safe for concurrent use; build one per goroutine.
//
//confine:goroutine
type LPNoFilter struct {
	cfg   Config
	param paramLP
	prog  lplfProgram
}

// lplfProgram is the built LP-LF model plus what rounding needs.
type lplfProgram struct {
	model     *lp.Model
	budgetRow int
	xs        []lp.VarID
	cands     []network.NodeID
	empty     bool
}

// NewLPNoFilter builds the planner.
func NewLPNoFilter(cfg Config) (*LPNoFilter, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &LPNoFilter{cfg: cfg}, nil
}

// Name implements Planner.
func (p *LPNoFilter) Name() string { return "LP-LF" }

// Plan implements Planner.
func (p *LPNoFilter) Plan(budget float64) (*plan.Plan, error) {
	cfg := p.cfg
	net := cfg.Net
	n := net.Size()

	if !p.param.fresh(cfg) {
		p.prog = buildLPNoFilterProgram(cfg, budget)
		if p.prog.empty {
			p.param.installEmpty(cfg)
		} else {
			p.param.install(cfg, p.prog.model, p.prog.budgetRow, 0)
		}
	}
	prog := p.prog
	if prog.empty {
		// No candidate ever ranked in the top k; the empty plan is
		// optimal.
		return finishPlan(cfg, p.Name(), budget)(plan.NewSelection(net, make([]bool, n)))
	}
	sol, err := p.param.solve(cfg, budget)
	if err != nil {
		return nil, err
	}
	if sol.Status != lp.Optimal {
		return nil, fmt.Errorf("core: LP-LF solve ended %v", sol.Status)
	}

	// Round at 1/2 (the paper's scheme), then repair the budget.
	chosen := make([]bool, n)
	for _, i := range prog.cands {
		if sol.X[prog.xs[i]] >= 0.5 {
			chosen[i] = true
		}
	}
	if !cfg.DisableRepair {
		repairSelection(cfg, chosen, budget)
		fillSelection(cfg, chosen, budget)
	}
	return finishPlan(cfg, p.Name(), budget)(plan.NewSelection(net, chosen))
}

// buildLPNoFilterProgram assembles the LP-LF model. Everything except
// the budget row's rhs depends only on (network, costs, samples, k),
// which is what makes the program parametric in the budget.
func buildLPNoFilterProgram(cfg Config, budget float64) lplfProgram {
	net := cfg.Net
	n := net.Size()

	m := lp.NewModel()
	m.Maximize()

	// x variables only for nodes that ever hit the top k.
	xs := make([]lp.VarID, n)
	for i := range xs {
		xs[i] = -1
	}
	cands := candidateNodes(cfg)
	// Edges that can carry a candidate's value.
	edgeNeeded := make([]bool, n)
	for _, i := range cands {
		// Tiny lower-index preference splits equal-column-sum candidate
		// ties the same way from every optimal pivot path (see tieEps);
		// it matches fillSelection's lower-id-first ordering.
		obj := float64(cfg.Samples.ColumnSum(int(i))) + tieEps*float64(n-int(i))/float64(n)
		xs[i] = m.MustVar(0, 1, obj, fmt.Sprintf("x%d", i))
		net.AncestorEdges(i, func(e network.NodeID) { edgeNeeded[e] = true })
	}
	ys := make([]lp.VarID, n)
	for i := range ys {
		ys[i] = -1
	}
	for v := 1; v < n; v++ {
		if edgeNeeded[v] {
			ys[v] = m.MustVar(0, 1, 0, fmt.Sprintf("y%d", v))
		}
	}

	var costTerms []lp.Term
	for _, i := range cands {
		// Choosing i pays the per-value cost along its whole path.
		pathVal := 0.0
		net.AncestorEdges(i, func(e network.NodeID) { pathVal += cfg.Costs.Val[e] })
		costTerms = append(costTerms, lp.Term{Var: xs[i], Coef: pathVal})
		// x_i <= y_{edge above i}.
		m.MustConstr([]lp.Term{{Var: xs[i], Coef: 1}, {Var: ys[i], Coef: -1}}, lp.LE, 0)
	}
	for v := 1; v < n; v++ {
		if ys[v] < 0 {
			continue
		}
		costTerms = append(costTerms, lp.Term{Var: ys[v], Coef: cfg.Costs.Msg[v]})
		if parent := net.Parent(network.NodeID(v)); parent != network.Root {
			m.MustConstr([]lp.Term{{Var: ys[v], Coef: 1}, {Var: ys[parent], Coef: -1}}, lp.LE, 0)
		}
	}
	if len(costTerms) == 0 {
		return lplfProgram{empty: true}
	}
	row := m.MustConstr(costTerms, lp.LE, budget)
	return lplfProgram{model: m, budgetRow: row, xs: xs, cands: cands}
}

// repairSelection drops chosen nodes — least column sum first, ties by
// higher node ID — until the plan's collection cost fits the budget.
func repairSelection(cfg Config, chosen []bool, budget float64) {
	for selectionCost(cfg, chosen) > budget {
		worst := -1
		for i := 1; i < len(chosen); i++ {
			if !chosen[i] {
				continue
			}
			if worst == -1 ||
				cfg.Samples.ColumnSum(i) < cfg.Samples.ColumnSum(worst) ||
				(cfg.Samples.ColumnSum(i) == cfg.Samples.ColumnSum(worst) && i > worst) {
				worst = i
			}
		}
		if worst == -1 {
			return
		}
		chosen[worst] = false
	}
}

// fillSelection greedily adds unchosen candidates (best column sum per
// marginal cost first) while budget slack remains.
func fillSelection(cfg Config, chosen []bool, budget float64) {
	type cand struct {
		id    network.NodeID
		score int
	}
	var cands []cand
	for _, i := range candidateNodes(cfg) {
		if !chosen[i] {
			cands = append(cands, cand{id: i, score: cfg.Samples.ColumnSum(int(i))})
		}
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].score != cands[b].score {
			return cands[a].score > cands[b].score
		}
		return cands[a].id < cands[b].id
	})
	for _, c := range cands {
		chosen[c.id] = true
		if selectionCost(cfg, chosen) > budget {
			chosen[c.id] = false
		}
	}
}
