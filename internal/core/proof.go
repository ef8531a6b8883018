package core

import (
	"fmt"
	"math"
	"sort"

	"prospector/internal/exec"
	"prospector/internal/lp"
	"prospector/internal/network"
	"prospector/internal/plan"
	"prospector/internal/sample"
)

// ProofPlanner is PROSPECTOR PROOF (Section 4.3): it allocates
// bandwidth to every edge (a proof-carrying plan must visit every node)
// so that, in expectation over the samples, the root can prove as many
// of the top k values as possible within the energy budget.
//
// Variables: one bandwidth b_e per edge, plus z_{i,a,j} in [0,1] for
// node i, ancestor a, sample j — "i's value is present and proven at a
// when the plan runs on sample j". Generated lazily: starting from the
// objective terms z_{i,root,j} for i in ones(j), each proof constraint
// pulls in the prover variables it references, which recursively pull
// in theirs. Constraints:
//
//	chain:     z_{i,a,j} <= z_{i,down(a,i),j}     (proven at a => proven below)
//	bandwidth: sum_{i in desc(v)} z_{i,parent(v),j} <= b_{e(v)}
//	proof:     z_{i,a,j} <= sum_{i' in desc(c), val_j(i') < val_j(i)} z_{i',c,j}
//	           for every off-path child c of a  (paper's condition c.2)
//	c.3:       |desc(c)| * z_{i,a,j} <= b_{e(c)} when desc(c) holds no
//	           smaller value (strict linearization of "c sends all";
//	           the paper instead omits the row — see StrictC3)
//
// ProofPlanner caches its LP across Plan calls (see paramLP) and is
// therefore not safe for concurrent use; build one per goroutine.
type ProofPlanner struct{ paramLP }

// proofProgram is what PROOF rounding needs of its model.
type proofProgram struct {
	// strictC3 controls the c.3 linearization (default true). With it
	// off, the LP matches the paper's text exactly but can claim
	// provability the executed plan cannot deliver in the no-smaller-
	// value corner case.
	strictC3 bool
	bs       []lp.VarID
}

// NewProofPlanner builds the planner with the strict c.3 linearization.
func NewProofPlanner(cfg Config) (*ProofPlanner, error) {
	return newProofPlanner(cfg, true)
}

// NewProofPlannerPaperC3 builds the variant that omits the c.3 rows,
// exactly as the paper's text prescribes. Used by the ablation bench.
func NewProofPlannerPaperC3(cfg Config) (*ProofPlanner, error) {
	return newProofPlanner(cfg, false)
}

func newProofPlanner(cfg Config, strictC3 bool) (*ProofPlanner, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &ProofPlanner{paramLP{cfg: cfg, name: "Proof", prog: &proofProgram{strictC3: strictC3}}}, nil
}

// MinBudget returns the smallest budget any proof-carrying plan can
// meet: one message with one value on every edge, plus the
// proven-count reserve.
func (p *ProofPlanner) MinBudget() float64 {
	cfg := p.cfg
	total := 0.0
	for v := 1; v < cfg.Net.Size(); v++ {
		total += cfg.Costs.Msg[v] + cfg.Costs.ValueCost(network.NodeID(v), 1)
		if len(cfg.Net.Children(network.NodeID(v))) > 0 {
			total += cfg.Costs.ProofMetaCost()
		}
	}
	return total
}

// Plan implements Planner. A budget below MinBudget has no
// proof-carrying plan.
func (p *ProofPlanner) Plan(budget float64) (*plan.Plan, error) {
	if min := p.MinBudget(); budget < min {
		return nil, fmt.Errorf("core: proof plans need at least %.2f mJ, budget is %.2f", min, budget)
	}
	return p.paramLP.Plan(budget)
}

// slide rebuilds on any window change rather than moving the program
// like LP-LF and LP+LF: its per-sample prover variables could move the
// same way, but no sliding-window path runs PROOF, so it keeps the
// simpler rebuild.
func (prog *proofProgram) slide(*paramLP, windowSlide) (bool, error) { return true, nil }

// round rounds every edge's bandwidth into [1, subtree size], then
// repairs the budget.
func (prog *proofProgram) round(cfg Config, x []float64, budget float64) (*plan.Plan, error) {
	net := cfg.Net
	n := net.Size()
	bw := make([]int, n)
	for v := 1; v < n; v++ {
		bw[v] = roundBandwidth(x[prog.bs[v]])
		if bw[v] < 1 {
			bw[v] = 1
		}
		if max := net.SubtreeSize(network.NodeID(v)); bw[v] > max {
			bw[v] = max
		}
	}
	if !cfg.DisableRepair {
		repairProof(cfg, bw, budget)
		fillProof(cfg, bw, budget)
	}
	return plan.NewProof(net, bw)
}

// support is every edge's bandwidth, the variables round reads.
func (prog *proofProgram) support(dst []lp.VarID) []lp.VarID {
	return append(dst, prog.bs[1:]...)
}

// build assembles the PROOF model via the lazy builder.
func (prog *proofProgram) build(cfg Config, budget float64) (*lp.Model, int, float64) {
	b := newProofBuilder(cfg, prog.strictC3)
	for j := 0; j < cfg.Samples.Len(); j++ {
		for _, i := range cfg.Samples.Ones(j) {
			// Creating the root-level variable (objective weight 1)
			// recursively pulls in its whole support.
			b.ensureZ(network.NodeID(i), network.Root, j)
		}
	}
	b.addBandwidthRows()
	row, fixed := b.addCostRow(budget)
	prog.bs = b.bs
	return b.m, row, fixed
}

// ExpectedProven simulates the proof-carrying execution of a bandwidth
// assignment on every sample and returns the mean number of top-k
// values proven at the root.
func (p *ProofPlanner) ExpectedProven(bw []int) float64 {
	return expectedProven(p.cfg, bw)
}

func expectedProven(cfg Config, bw []int) float64 {
	pl, err := plan.NewProof(cfg.Net, bw)
	if err != nil {
		return 0
	}
	env := exec.Env{Net: cfg.Net, Costs: cfg.Costs}
	total := 0
	for j := 0; j < cfg.Samples.Len(); j++ {
		res, err := exec.Run(env, pl, cfg.Samples.Values(j))
		if err != nil {
			return 0
		}
		pr := res.Proven
		if pr > cfg.K {
			pr = cfg.K
		}
		total += pr
	}
	return float64(total) / float64(cfg.Samples.Len())
}

// proofCost is the static collection cost of a proof bandwidth
// assignment including the proven-count reserve.
func proofCost(cfg Config, bw []int) float64 {
	total := 0.0
	for v := 1; v < cfg.Net.Size(); v++ {
		total += cfg.Costs.Msg[v] + cfg.Costs.ValueCost(network.NodeID(v), bw[v])
		if len(cfg.Net.Children(network.NodeID(v))) > 0 {
			total += cfg.Costs.ProofMetaCost()
		}
	}
	return total
}

// repairProof decrements bandwidths (never below 1) until the budget
// holds, dropping the increment that loses the least expected proven
// count.
func repairProof(cfg Config, bw []int, budget float64) {
	for proofCost(cfg, bw) > budget {
		base := expectedProven(cfg, bw)
		best := -1
		bestLoss := math.Inf(1)
		for v := 1; v < cfg.Net.Size(); v++ {
			if bw[v] <= 1 {
				continue
			}
			bw[v]--
			loss := base - expectedProven(cfg, bw)
			bw[v]++
			if loss < bestLoss {
				best, bestLoss = v, loss
			}
		}
		if best < 0 {
			return
		}
		bw[best]--
	}
}

// fillProof spends leftover budget on the increment gaining the most
// expected proven count per joule.
func fillProof(cfg Config, bw []int, budget float64) {
	for {
		cost := proofCost(cfg, bw)
		base := expectedProven(cfg, bw)
		best := -1
		bestScore := 0.0
		for v := 1; v < cfg.Net.Size(); v++ {
			if bw[v] >= cfg.Net.SubtreeSize(network.NodeID(v)) {
				continue
			}
			if cost+cfg.Costs.ValueCost(network.NodeID(v), 1) > budget {
				continue
			}
			bw[v]++
			gain := expectedProven(cfg, bw) - base
			bw[v]--
			if gain <= 0 {
				continue
			}
			if score := gain / float64(cfg.Costs.Val[v]); score > bestScore {
				best, bestScore = v, score
			}
		}
		if best < 0 {
			return
		}
		bw[best]++
	}
}

// proofBuilder assembles the PROOF linear program with lazy z-variable
// generation.
type proofBuilder struct {
	cfg      Config
	strictC3 bool
	m        *lp.Model
	bs       []lp.VarID // bandwidth var per edge (lower endpoint)
	// z[(i,a,j)] -> variable; generated on demand.
	z map[zKey]lp.VarID
	// perEdgeSample[(v,j)] collects z_{i,parent(v),j} terms for i in
	// desc(v): the flows crossing edge v in sample j.
	perEdgeSample map[zKey][]lp.Term
}

type zKey struct {
	i, a network.NodeID
	j    int
}

func newProofBuilder(cfg Config, strictC3 bool) *proofBuilder {
	n := cfg.Net.Size()
	b := &proofBuilder{
		cfg:           cfg,
		strictC3:      strictC3,
		m:             lp.NewModel(),
		bs:            make([]lp.VarID, n),
		z:             make(map[zKey]lp.VarID),
		perEdgeSample: make(map[zKey][]lp.Term),
	}
	b.m.Maximize()
	for v := 1; v < n; v++ {
		cap := float64(cfg.Net.SubtreeSize(network.NodeID(v)))
		// Tiny index-distinct bandwidth penalty: among equally-proving
		// allocations, pick the unique minimal one (see tieEps).
		obj := -tieEps * (1 + float64(v)/float64(n))
		b.bs[v] = b.m.MustVarIndexed(1, cap, obj, "b", v)
	}
	return b
}

// ensureZ returns (creating if needed) the variable z_{i,a,j} together
// with its chain and proof constraints.
func (b *proofBuilder) ensureZ(i, a network.NodeID, j int) lp.VarID {
	key := zKey{i: i, a: a, j: j}
	if v, ok := b.z[key]; ok {
		return v
	}
	obj := 0.0
	if a == network.Root && b.cfg.Samples.IsOne(j, int(i)) {
		obj = 1
	}
	zv := b.m.MustVar(0, 1, obj, fmt.Sprintf("z_%d_%d_%d", i, a, j))
	b.z[key] = zv

	net := b.cfg.Net
	if a != i {
		// Chain: proven at a requires proven (and present) at the next
		// node down toward i; also register the edge crossing for the
		// bandwidth row.
		down := net.OnPathChild(a, i)
		below := b.ensureZ(i, down, j)
		b.m.MustConstr([]lp.Term{{Var: zv, Coef: 1}, {Var: below, Coef: -1}}, lp.LE, 0)
		b.perEdgeSample[zKey{i: down, j: j}] = append(
			b.perEdgeSample[zKey{i: down, j: j}], lp.Term{Var: zv, Coef: 1})
	}
	// Proof rows: every off-path child of a must prove a smaller value
	// (or pass up its whole subtree).
	vals := b.cfg.Samples.Values(j)
	for _, c := range net.Children(a) {
		if a != i && net.IsAncestor(c, i) {
			continue // the child i's value arrives through
		}
		var smaller []lp.Term
		for _, d := range net.Descendants(c) {
			if sample.Before(vals, int(i), int(d)) {
				smaller = append(smaller, lp.Term{Var: b.ensureZ(d, c, j), Coef: -1})
			}
		}
		if len(smaller) > 0 {
			row := append([]lp.Term{{Var: zv, Coef: 1}}, smaller...)
			b.m.MustConstr(row, lp.LE, 0)
		} else if b.strictC3 {
			// No smaller value below c: only "c sends everything"
			// (condition c.3) can support the proof.
			size := float64(net.SubtreeSize(c))
			b.m.MustConstr([]lp.Term{{Var: zv, Coef: size}, {Var: b.bs[c], Coef: -1}}, lp.LE, 0)
		}
	}
	return zv
}

// addBandwidthRows emits sum_{i in desc(v)} z_{i,parent(v),j} <= b_v
// for every edge and sample that has registered crossings. Keys are
// sorted before emission: constraint-row order shapes the simplex
// pivot sequence, so emitting in map order would make solves (and
// degenerate ties) vary run to run.
func (b *proofBuilder) addBandwidthRows() {
	keys := make([]zKey, 0, len(b.perEdgeSample))
	for key := range b.perEdgeSample {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(x, y int) bool {
		a, c := keys[x], keys[y]
		if a.i != c.i {
			return a.i < c.i
		}
		if a.a != c.a {
			return a.a < c.a
		}
		return a.j < c.j
	})
	for _, key := range keys {
		terms := b.perEdgeSample[key]
		row := append(append([]lp.Term(nil), terms...), lp.Term{Var: b.bs[key.i], Coef: -1})
		b.m.MustConstr(row, lp.LE, 0)
	}
}

// addCostRow bounds the total collection cost. It returns the row's
// retained index (or -1 for a trivially true row) and the fixed spend
// subtracted from the rhs, so parametric re-solves can update the row
// as budget' - fixed.
func (b *proofBuilder) addCostRow(budget float64) (int, float64) {
	cfg := b.cfg
	fixed := 0.0
	var terms []lp.Term
	for v := 1; v < cfg.Net.Size(); v++ {
		fixed += cfg.Costs.Msg[v]
		if len(cfg.Net.Children(network.NodeID(v))) > 0 {
			fixed += cfg.Costs.ProofMetaCost() // proven-count reserve
		}
		terms = append(terms, lp.Term{Var: b.bs[v], Coef: float64(cfg.Costs.Val[v])})
	}
	return b.m.MustConstr(terms, lp.LE, budget-fixed), fixed
}
