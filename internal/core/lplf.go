package core

import (
	"sort"

	"prospector/internal/energy"
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
type LPNoFilter struct{ paramLP }

// lplfProgram is what LP-LF rounding and a slide need of its model.
type lplfProgram struct {
	// xs and ys are each node's and each edge's variable, -1 for one
	// never needed. A slide keeps the variables of a node that stops
	// being a candidate, or an edge no candidate needs, but fixes them
	// at zero.
	xs, ys []lp.VarID
	cands  []network.NodeID
	needed []bool // the edges above some candidate
}

// NewLPNoFilter builds the planner.
func NewLPNoFilter(cfg Config) (*LPNoFilter, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &LPNoFilter{paramLP{cfg: cfg, name: "LP-LF", prog: &lplfProgram{}}}, nil
}

// round rounds at 1/2 (the paper's scheme), then repairs the budget.
func (prog *lplfProgram) round(cfg Config, x []float64, budget float64) (*plan.Plan, error) {
	chosen := make([]bool, cfg.Net.Size())
	if x == nil {
		return plan.NewSelection(cfg.Net, chosen)
	}
	for _, i := range prog.cands {
		if x[prog.xs[i]] >= 0.5 {
			chosen[i] = true
		}
	}
	if !cfg.DisableRepair {
		repairSelection(cfg, chosen, budget)
		fillSelection(cfg, chosen, budget)
	}
	return plan.NewSelection(cfg.Net, chosen)
}

// support is the candidates' x, the variables round reads.
func (prog *lplfProgram) support(dst []lp.VarID) []lp.VarID {
	for _, i := range prog.cands {
		dst = append(dst, prog.xs[i])
	}
	return dst
}

// build assembles the LP-LF model.
func (prog *lplfProgram) build(cfg Config, budget float64) (*lp.Model, int, float64) {
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
	for _, i := range cands {
		xs[i] = m.MustVarIndexed(0, 1, candidateObj(cfg, i), "x", int(i))
	}
	// Edges that can carry a candidate's value.
	edgeNeeded, _ := neededEdges(cfg)
	ys := make([]lp.VarID, n)
	for i := range ys {
		ys[i] = -1
	}
	for v := 1; v < n; v++ {
		if edgeNeeded[v] {
			ys[v] = m.MustVarIndexed(0, 1, 0, "y", v)
		}
	}

	var costTerms []lp.Term
	for _, i := range cands {
		costTerms = append(costTerms, lp.Term{Var: xs[i], Coef: float64(pathValueCost(cfg, i))})
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
		*prog = lplfProgram{}
		return nil, -1, 0
	}
	row := m.MustConstr(costTerms, lp.LE, budget)
	*prog = lplfProgram{xs: xs, ys: ys, cands: cands, needed: edgeNeeded}
	return m, row, 0
}

// candidateObj is candidate i's objective: its column sum, plus a tiny
// lower-index preference that splits equal-column-sum ties the same
// way from every optimal pivot path (see tieEps); it matches
// fillSelection's lower-id-first ordering.
func candidateObj(cfg Config, i network.NodeID) float64 {
	n := cfg.Net.Size()
	return float64(cfg.Samples.ColumnSum(int(i))) + tieEps*float64(n-int(i))/float64(n)
}

// pathValueCost is what choosing i pays per value along its whole
// path to the root: the sum of the per-value rates of its edges.
func pathValueCost(cfg Config, i network.NodeID) energy.MJPerValue {
	var c energy.MJPerValue
	cfg.Net.AncestorEdges(i, func(e network.NodeID) { c += cfg.Costs.Val[e] })
	return c
}

// slide edits the live program to follow the window. A slide changes
// the column sums, so nodes that stopped being candidates and edges no
// candidate needs are fixed at zero (the tie-break epsilon can no
// longer pull them in), every candidate gets its new column sum
// (SetObjCoef), returning nodes and edges are unfixed, and new ones
// are added. The fixes can leave the last point primal infeasible and
// the re-pricing dual infeasible; the Plan call's warm solve recovers
// from both at once.
//
// A window whose samples rank no non-root node rebuilds into the empty
// program instead.
func (prog *lplfProgram) slide(c *paramLP, _ windowSlide) (bool, error) {
	cfg := c.cfg
	net := cfg.Net
	n := net.Size()
	cands := candidateNodes(cfg)
	if len(cands) == 0 {
		return true, nil
	}
	m := c.model
	ed := modelEdits{m: m}
	isCand := make([]bool, n)
	for _, i := range cands {
		isCand[i] = true
	}
	needed, _ := neededEdges(cfg)

	wasCand := make([]bool, n)
	for _, i := range prog.cands {
		wasCand[i] = true
		if !isCand[i] {
			ed.bound(prog.xs[i], 0, 0)
		}
	}
	for v := 1; v < n; v++ {
		if prog.needed[v] && !needed[v] {
			ed.bound(prog.ys[v], 0, 0)
		}
	}

	var opened []int
	for v := 1; v < n; v++ {
		switch {
		case !needed[v] || prog.needed[v]:
		case prog.ys[v] < 0:
			prog.ys[v] = m.MustVarIndexed(0, 1, 0, "y", v)
			ed.term(c.budgetRow, prog.ys[v], cfg.Costs.Msg[v])
			opened = append(opened, v)
		default:
			ed.bound(prog.ys[v], 0, 1)
		}
	}
	for _, v := range opened {
		if parent := net.Parent(network.NodeID(v)); parent != network.Root {
			m.MustConstr([]lp.Term{{Var: prog.ys[v], Coef: 1}, {Var: prog.ys[parent], Coef: -1}}, lp.LE, 0)
		}
	}
	for _, i := range cands {
		obj := candidateObj(cfg, i)
		if prog.xs[i] < 0 {
			prog.xs[i] = m.MustVarIndexed(0, 1, obj, "x", int(i))
			ed.term(c.budgetRow, prog.xs[i], float64(pathValueCost(cfg, i)))
			m.MustConstr([]lp.Term{{Var: prog.xs[i], Coef: 1}, {Var: prog.ys[i], Coef: -1}}, lp.LE, 0)
			continue
		}
		ed.obj(prog.xs[i], obj)
		if !wasCand[i] {
			ed.bound(prog.xs[i], 0, 1)
		}
	}
	if ed.err != nil {
		return false, ed.err
	}
	prog.cands, prog.needed = cands, needed
	return false, nil
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
