package core

import (
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
//
// Each sample's x_ij and the rows that mention them (x_ij <= y and the
// sample's bandwidth rows) form one block, which is what a window
// slide drops or appends (see lpfilterProgram.slide).
// LPFilter caches its LP across Plan calls (see paramLP) and is
// therefore not safe for concurrent use; build one per goroutine.
type LPFilter struct{ paramLP }

// lpfilterProgram is what LP+LF rounding and a slide need of its
// model.
type lpfilterProgram struct {
	// ys and bs are each edge's variables, -1 for an edge never needed.
	// A slide keeps the variables of an edge the window stops needing
	// but fixes them at zero.
	ys, bs []lp.VarID
	// caps is each edge's bandwidth cap, and 0 on the edges no sample
	// in the window needs: the rounding sees what a fresh build has.
	caps []float64
	// blocks[j] holds sample j's x variables.
	blocks [][]lp.VarID
	// tab is the rounding's scratch, kept across Plan calls.
	tab poolTable
}

// NewLPFilter builds the planner.
func NewLPFilter(cfg Config) (*LPFilter, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &LPFilter{paramLP{cfg: cfg, name: "LP+LF", prog: &lpfilterProgram{}}}, nil
}

// round rounds bandwidths to integers, restores structural feasibility
// (no used edge under an unused one), then repairs the budget.
func (prog *lpfilterProgram) round(cfg Config, x []float64, budget float64) (*plan.Plan, error) {
	net := cfg.Net
	n := net.Size()
	bw := make([]int, n)
	if x == nil {
		return plan.NewFiltering(net, bw)
	}
	for v := 1; v < n; v++ {
		if prog.caps[v] > 0 {
			bw[v] = roundBandwidth(x[prog.bs[v]])
			if bw[v] > int(prog.caps[v]) {
				bw[v] = int(prog.caps[v])
			}
		}
	}
	enforceMonotone(net, bw)
	if !cfg.DisableRepair {
		repairBandwidth(cfg, &prog.tab, bw, budget)
		fillBandwidth(cfg, &prog.tab, bw, budget, prog.caps)
	}
	return plan.NewFiltering(net, bw)
}

// support is the bandwidths of the edges the window needs, the
// variables round reads.
func (prog *lpfilterProgram) support(dst []lp.VarID) []lp.VarID {
	for v, c := range prog.caps {
		if c > 0 {
			dst = append(dst, prog.bs[v])
		}
	}
	return dst
}

// build assembles the LP+LF model.
func (prog *lpfilterProgram) build(cfg Config, budget float64) (*lp.Model, int, float64) {
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
	blocks := make([][]lp.VarID, S)
	for j := 0; j < S; j++ {
		for _, i := range cfg.Samples.Ones(j) {
			if i == int(network.Root) {
				continue
			}
			id := m.MustVarIndexed(0, 1, 1, "x_", j, i)
			xvars[j] = append(xvars[j], entry{i: network.NodeID(i), v: id})
			blocks[j] = append(blocks[j], id)
		}
	}
	edgeNeeded, _ := neededEdges(cfg)
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
		caps[v] = edgeCap(cfg, v)
		ys[v], bs[v] = addEdgeVars(m, cfg, v)
		costTerms = append(costTerms,
			lp.Term{Var: ys[v], Coef: cfg.Costs.Msg[v]},
			lp.Term{Var: bs[v], Coef: float64(cfg.Costs.Val[v])})
	}
	for v := 1; v < n; v++ {
		if ys[v] >= 0 {
			addEdgeRows(m, cfg, ys, bs, v)
		}
	}
	if len(costTerms) == 0 {
		*prog = lpfilterProgram{}
		return nil, -1, 0
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

	*prog = lpfilterProgram{ys: ys, bs: bs, caps: caps, blocks: blocks, tab: prog.tab}
	return m, budgetRow, 0
}

// edgeCap is edge v's bandwidth cap: a top-k query never moves more
// than k values, or more than the subtree holds, across one edge.
func edgeCap(cfg Config, v int) float64 {
	return math.Min(float64(cfg.K), float64(cfg.Net.SubtreeSize(network.NodeID(v))))
}

// addEdgeVars adds edge v's usage y_v and bandwidth b_v.
func addEdgeVars(m *lp.Model, cfg Config, v int) (y, b lp.VarID) {
	y = m.MustVarIndexed(0, 1, 0, "y", v)
	// Tiny index-distinct bandwidth penalty so the rounded plan is
	// the same from every optimal pivot path (see tieEps).
	obj := -tieEps * (1 + float64(v)/float64(cfg.Net.Size()))
	b = m.MustVarIndexed(0, edgeCap(cfg, v), obj, "b", v)
	return y, b
}

// addEdgeRows adds edge v's rows: b_v <= cap_v * y_v ties bandwidth to
// edge usage, and y_v <= y_parent keeps the used edges a rooted tree.
func addEdgeRows(m *lp.Model, cfg Config, ys, bs []lp.VarID, v int) {
	m.MustConstr([]lp.Term{{Var: bs[v], Coef: 1}, {Var: ys[v], Coef: -edgeCap(cfg, v)}}, lp.LE, 0)
	if parent := cfg.Net.Parent(network.NodeID(v)); parent != network.Root {
		m.MustConstr([]lp.Term{{Var: ys[v], Coef: 1}, {Var: ys[parent], Coef: -1}}, lp.LE, 0)
	}
}

// slide edits the live program to follow the window, keeping the
// point the last solve left wherever the edits allow:
//
//  1. Fix: the variables of every edge the window no longer needs are
//     fixed at zero. Where the last point used such an edge, it is now
//     primal infeasible.
//  2. Drop: the leaving blocks leave the model with their rows, their
//     x still at the values the last solve gave them. No surviving
//     row mentions a dropped x, so the point the survivors keep still
//     satisfies every row; the carried-over basis crosses over the
//     interior columns it can no longer hold (see lp.Basis).
//  3. Append: newly needed edges are opened (created, or unfixed) and
//     the joining samples' blocks added. Every new x rests at zero, so
//     the point stays feasible, and its reduced cost makes the basis
//     dual infeasible.
//
// The Plan call's one warm solve then recovers from both
// infeasibilities at once. A window whose samples rank no non-root
// node at all rebuilds into the empty program instead.
func (prog *lpfilterProgram) slide(c *paramLP, d windowSlide) (bool, error) {
	cfg := c.cfg
	n := cfg.Net.Size()
	needed, ok := neededEdges(cfg)
	if !ok {
		return true, nil
	}
	m := c.model
	ed := modelEdits{m: m}

	for v := 1; v < n; v++ {
		if prog.caps[v] > 0 && !needed[v] {
			ed.bound(prog.ys[v], 0, 0)
			ed.bound(prog.bs[v], 0, 0)
		}
	}
	if ed.err != nil {
		return false, ed.err
	}
	var dead []lp.VarID
	for _, k := range d.retired {
		dead = append(dead, prog.blocks[k]...)
	}
	if len(dead) > 0 {
		varMap, rowMap, err := m.RemoveVars(dead)
		if err != nil {
			return false, err
		}
		remapVars(prog.ys, varMap)
		remapVars(prog.bs, varMap)
		for _, b := range prog.blocks {
			remapVars(b, varMap)
		}
		c.budgetRow = rowMap[c.budgetRow]
	}

	caps := make([]float64, n)
	var opened []int
	for v := 1; v < n; v++ {
		if !needed[v] {
			continue
		}
		caps[v] = edgeCap(cfg, v)
		switch {
		case prog.caps[v] > 0:
		case prog.ys[v] < 0:
			prog.ys[v], prog.bs[v] = addEdgeVars(m, cfg, v)
			ed.term(c.budgetRow, prog.ys[v], cfg.Costs.Msg[v])
			ed.term(c.budgetRow, prog.bs[v], float64(cfg.Costs.Val[v]))
			opened = append(opened, v)
		default:
			ed.bound(prog.ys[v], 0, 1)
			ed.bound(prog.bs[v], 0, caps[v])
		}
	}
	if ed.err != nil {
		return false, ed.err
	}
	for _, v := range opened {
		addEdgeRows(m, cfg, prog.ys, prog.bs, v)
	}
	prog.caps = caps

	// The window's blocks in order: the kept ones as they were, the
	// joining ones new.
	blocks := make([][]lp.VarID, 0, cfg.Samples.Len())
	k, retired, added := 0, 0, 0
	for j := 0; j < cfg.Samples.Len(); j++ {
		if added < len(d.added) && d.added[added] == j {
			blocks = append(blocks, prog.appendBlock(cfg, m, j))
			added++
			continue
		}
		for ; retired < len(d.retired) && d.retired[retired] == k; retired++ {
			k++
		}
		blocks = append(blocks, prog.blocks[k])
		k++
	}
	prog.blocks = blocks
	return false, nil
}

// appendBlock adds sample j's block to m: its x variables, their
// x <= y rows, and its bandwidth row on every needed edge above them.
func (prog *lpfilterProgram) appendBlock(cfg Config, m *lp.Model, j int) []lp.VarID {
	net := cfg.Net
	var xs []lp.VarID
	var nodes []network.NodeID
	for _, i := range cfg.Samples.Ones(j) {
		if i == int(network.Root) {
			continue
		}
		x := m.MustVarIndexed(0, 1, 1, "x_", j, i)
		m.MustConstr([]lp.Term{{Var: x, Coef: 1}, {Var: prog.ys[i], Coef: -1}}, lp.LE, 0)
		xs = append(xs, x)
		nodes = append(nodes, network.NodeID(i))
	}
	for v := 1; v < net.Size(); v++ {
		if prog.caps[v] <= 0 {
			continue
		}
		var terms []lp.Term
		for k, i := range nodes {
			if net.IsAncestor(network.NodeID(v), i) {
				terms = append(terms, lp.Term{Var: xs[k], Coef: 1})
			}
		}
		if len(terms) > 0 {
			m.MustConstr(append(terms, lp.Term{Var: prog.bs[v], Coef: -1}), lp.LE, 0)
		}
	}
	return xs
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
// sample coverage (ties: the most expensive edge). tab is scratch.
func repairBandwidth(cfg Config, tab *poolTable, bw []int, budget float64) {
	net := cfg.Net
	for bandwidthCost(cfg, bw) > budget {
		tab.fill(cfg, bw)
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
			loss := tab.moved(net, bw, network.NodeID(v), false)
			save := cfg.Costs.ValueCost(network.NodeID(v), 1)
			if bw[v] == 1 {
				save += cfg.Costs.Msg[v]
			}
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
// edge opening) that gains the most sample coverage per joule. tab is
// scratch.
func fillBandwidth(cfg Config, tab *poolTable, bw []int, budget float64, caps []float64) {
	net := cfg.Net
	for {
		cost := bandwidthCost(cfg, bw)
		tab.fill(cfg, bw)
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
			gain := tab.moved(net, bw, network.NodeID(v), true)
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
