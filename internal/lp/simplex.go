package lp

import (
	"fmt"
	"math"
	"time"

	"prospector/internal/obs"
)

// Status classifies the outcome of a solve.
type Status int

// Solve outcomes.
const (
	Optimal Status = iota
	Infeasible
	Unbounded
	IterationLimit
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case IterationLimit:
		return "iteration-limit"
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

// Options tunes the solver. The zero value gives sensible defaults.
type Options struct {
	// MaxIters bounds total pivots across both phases; 0 means
	// 5000 + 50*rows. A warm solve gets the same budget; when the warm
	// attempt fails (including by exhausting this budget) its internal
	// cold fallback restarts the count, so a fallback solve is never
	// budget-starved by the failed warm attempt.
	MaxIters int
	// Tol is the feasibility/optimality tolerance; 0 means 1e-7.
	Tol float64
	// RefactorEvery overrides the pivot budget between explicit basis
	// refactorizations, which bounds the floating-point drift the
	// Forrest–Tomlin updates of the factors accumulate; 0 keeps the
	// size-based default. The factors are also rebuilt, whatever the
	// budget, once the updates outgrow their storage bound. Mainly for
	// tests and numerically hostile models.
	RefactorEvery int
	// Workspace, when non-nil, supplies all per-solve scratch (solver
	// state, factorization storage, the returned Solution's backing
	// arrays). Repeat solves through one Workspace are allocation-free
	// at steady state. A Workspace is single-goroutine; the Solution
	// it returns is valid until the next solve through the same
	// Workspace.
	Workspace *Workspace
	// Warm, when non-nil, is a Basis captured from a previous solve
	// (KeepBasis) of the same Model, before or after structural edits
	// (see Basis). The solver restores it and runs primal or
	// dual-simplex recovery pivots instead of the two cold phases; if
	// the basis comes from another Model, cannot be carried over the
	// edits, or is numerically unusable, or the recovery ends anything
	// but Optimal (iteration limit included), it falls back to a cold
	// solve internally (lp.warm_fallbacks, Solution.Warm false). The
	// caller sees one outcome either way.
	Warm *Basis
	// KeepBasis asks Solve to capture the final basis on Solution.Basis
	// for a later warm re-solve. With a Workspace the Basis storage is
	// reused, invalidating the previously captured Basis.
	KeepBasis bool
	// Obs, when non-nil, receives solve metrics (lp.* counters and the
	// lp.solve_seconds histogram). A nil registry costs one check per
	// solve.
	Obs *obs.Registry
	// Now, when non-nil, supplies the clock for the lp.solve_seconds
	// histogram (typically time.Now at the CLI layer). The solver never
	// reads the wall clock itself, keeping library solves replayable;
	// with Now nil, solve timing is simply not recorded.
	Now func() time.Time
	// Trace, when non-nil, receives one lp.solve span per Solve call.
	Trace *obs.Tracer
	// Span, when non-nil, parents the lp.solve spans (requires Trace or
	// an open span; a Span without Trace still emits through the span).
	Span *obs.Span
}

func (o Options) withDefaults(rows int) Options {
	if o.MaxIters == 0 {
		o.MaxIters = 5000 + 50*rows
	}
	if isZero(o.Tol) {
		o.Tol = 1e-7
	}
	return o
}

// Solution is the result of a solve. When the solve ran through a
// Workspace, X and Duals alias Workspace storage and are valid until
// the next solve through that Workspace.
type Solution struct {
	Status     Status
	Objective  float64   // in the model's declared sense
	X          []float64 // one entry per model variable
	Duals      []float64 // one entry per constraint row (minimization sign convention)
	Iterations int
	// Pivots counts basis changes; DegeneratePivots the subset with a
	// ~zero step; BoundFlips the nonbasic bound-to-bound moves. All
	// three sum across both phases.
	Pivots           int
	DegeneratePivots int
	BoundFlips       int
	// Refactorizations counts rebuilds of the basis factorization: the
	// periodic ones that replace the updated factors with fresh LU
	// factors, and a warm start's factorization of a basis not already
	// live in its Workspace.
	Refactorizations int
	// Warm reports that this solve reused the supplied Basis (possibly
	// with recovery pivots); false for cold solves and for warm
	// attempts that fell back to a cold solve.
	Warm bool
	// Basis is the captured final basis when Options.KeepBasis was set
	// and the solve ended Optimal; nil otherwise.
	Basis *Basis
}

// variable status within the simplex.
type vstat int8

const (
	atLower vstat = iota
	atUpper
	basic
	nonbasicFree // free variable resting at zero
)

// solver holds the standard-form problem: minimize c.x subject to
// Ax = b, lo <= x <= hi, where columns 0..nStruct-1 are the model's
// variables, then one slack per inequality row, then one artificial
// per row (basic only on rows the crash basis cannot cover with their
// slack). All slice state lives in a Workspace so the shell can be
// replayed without allocating.
type solver struct {
	m, nStruct, nSlack int
	nTotal             int // structural + slack + artificial
	cols               *colStore
	rows               []row     // the model's rows: A by rows, structurals only
	slackOf            []int32   // row r's slack column, -1 for an equality
	c                  []float64 // phase-2 costs
	lo, hi             []float64
	b                  []float64

	basis []int // basis[r] = column basic in row r
	stat  []vstat
	f     *factor   // basis inverse: sparse LU with Forrest–Tomlin updates
	xB    []float64 // values of basic variables
	xN    []float64 // current value of every column (authoritative for nonbasic)
	y     []float64 // duals scratch
	w     hvec      // entering column in basis coordinates
	rho   hvec      // row r of B^-1, the pivot row's multipliers
	resid []float64 // recomputeBasics right-hand side scratch; dual flips' A·Δx

	// Pricing state. d holds the reduced costs of the nonbasic
	// structural and slack columns, kept across primal and dual pivots;
	// dKept reports an incremental update since their last full
	// computation. gain holds what primal pricing ranks them by (see
	// gainOf), kept with d inside the primal loop. alpha holds a pivot
	// row ρᵀA_j. For the dual simplex (see dualIterate) cands lists the
	// columns that can enter; for the primal (see primalRow) the columns
	// the row reaches, which inRow marks while it is formed. devex holds
	// the dual Devex reference weights, one per row.
	d     []float64
	dKept bool
	gain  []float64
	alpha []float64
	cands []int32
	inRow []bool
	devex []float64

	tol      float64
	opts     Options
	iters    int
	maxIt    int
	artStart int // first artificial column

	// Solve statistics, surfaced on Solution and in opts.Obs.
	pivotsTotal int
	degenerate  int
	flips       int
	refactors   int
}

type centry struct {
	row  int
	coef float64
}

// colStore is the sparse column store: column j's entries are
// ent[off[j]:off[j+1]], structural columns first, then one ±1
// singleton per slack, then one per artificial. scale[j] is structural
// column j's largest |coefficient|, which the factorization measures
// pivots against (see colScale).
type colStore struct {
	off   []int32
	ent   []centry
	scale []float64
}

func (cs *colStore) col(j int) []centry { return cs.ent[cs.off[j]:cs.off[j+1]] }

// unit returns the one entry of slack or artificial column j.
func (cs *colStore) unit(j int) *centry { return &cs.ent[cs.off[j]] }

// colScale returns column j's largest |coefficient|: scale[j] for the
// structural columns scale covers, and 1 for the slack and artificial
// unit columns numbered after them.
func (cs *colStore) colScale(j int) float64 {
	if j < len(cs.scale) {
		return cs.scale[j]
	}
	return 1
}

// basisCol returns the column at a basis position; -1 (a position
// factorize is asked to fill) is an empty column.
func (cs *colStore) basisCol(bj int) []centry {
	if bj < 0 {
		return nil
	}
	return cs.col(bj)
}

// Solve optimizes the model. The model may be reused, mutated in place
// (SetRHS, SetObjCoef, SetVarBound), edited structurally (AddVar,
// AddConstr, AddTerm, RemoveVars) and solved again; each call is
// independent unless Options.Warm chains it to a prior basis.
func (m *Model) Solve(opts Options) (*Solution, error) {
	var start time.Time
	if opts.Now != nil {
		start = opts.Now()
	}
	ws := opts.Workspace
	if ws == nil {
		ws = &Workspace{}
	}
	s := ws.prepare(m, opts)
	var st Status
	kind := solveCold
	if opts.Warm != nil {
		st, kind = s.warmRun(m, opts.Warm, ws)
	} else {
		st = s.run(m)
	}
	sol := ws.takeSolution(m, s, st)
	sol.Warm = kind == solveWarm
	if opts.KeepBasis && st == Optimal {
		sol.Basis = ws.captureBasis(m, s)
	}
	ws.noteSolved(m, st)
	var elapsed time.Duration
	if opts.Now != nil {
		elapsed = opts.Now().Sub(start)
	}
	recordSolve(opts, sol, elapsed, opts.Now != nil, kind)
	return sol, nil
}

// run executes phase 1 then phase 2 and returns the final status.
// Phase 1 runs under its own costs in s.c, and m's are loaded back
// after it.
func (s *solver) run(m *Model) Status {
	// Initial nonbasic point: every structural/slack column at its
	// finite bound nearest zero; free columns at zero.
	for j := 0; j < s.nStruct+s.nSlack; j++ {
		switch {
		case s.lo[j] > math.Inf(-1) && (math.Abs(s.lo[j]) <= math.Abs(s.hi[j]) || math.IsInf(s.hi[j], 1)):
			s.stat[j], s.xN[j] = atLower, s.lo[j]
		case !math.IsInf(s.hi[j], 1):
			s.stat[j], s.xN[j] = atUpper, s.hi[j]
		default:
			s.stat[j], s.xN[j] = nonbasicFree, 0
		}
	}
	// Crash basis from the residual r = b - A x_N: a row's own slack
	// is basic when it can absorb r within its bounds, otherwise the
	// row's artificial, signed to carry |r|. Only rows left on an
	// artificial at a nonzero level need phase 1.
	resid := s.resid[:s.m]
	copy(resid, s.b)
	for j := 0; j < s.nStruct+s.nSlack; j++ {
		if !isZero(s.xN[j]) {
			for _, e := range s.cols.col(j) {
				resid[e.row] -= e.coef * s.xN[j]
			}
		}
	}
	art := s.artStart
	for r := 0; r < s.m; r++ {
		s.basis[r] = -1
	}
	for j := s.nStruct; j < art; j++ {
		e := s.cols.unit(j)
		if v := resid[e.row] / e.coef; v >= 0 {
			s.basis[e.row] = j
			s.stat[j] = basic
			s.xB[e.row] = v
		}
	}
	needPhase1 := false
	for r := 0; r < s.m; r++ {
		j := art + r
		// The column arena persists across solves, so the sign must be
		// written both ways, not just flipped when negative.
		if resid[r] < 0 {
			s.cols.unit(j).coef = -1
		} else {
			s.cols.unit(j).coef = 1
		}
		if s.basis[r] >= 0 {
			s.stat[j], s.xN[j] = atLower, 0
			continue
		}
		s.basis[r] = j
		s.stat[j] = basic
		s.xB[r] = math.Abs(resid[r])
		s.hi[j] = Inf
		if s.xB[r] > s.tol {
			needPhase1 = true
		}
	}
	if !s.f.refactorize(s.basis[:s.m], s.cols) {
		panic("lp: crash basis is a signed permutation, never singular")
	}

	if needPhase1 {
		// Phase-1 costs: one on each artificial, zero elsewhere.
		for j := range s.c[:s.nTotal] {
			s.c[j] = 0
			if j >= art {
				s.c[j] = 1
			}
		}
		st := s.iterate(s.c, true)
		s.loadCosts(m)
		if st == IterationLimit {
			return IterationLimit
		}
		infeas := 0.0
		for r := 0; r < s.m; r++ {
			if s.basis[r] >= art {
				infeas += s.xB[r]
			}
		}
		if infeas > s.tol*float64(1+s.m) {
			return Infeasible
		}
	}
	// Close the artificials: any still basic sit at ~zero and can never
	// grow again.
	for r := 0; r < s.m; r++ {
		j := art + r
		s.hi[j] = 0
		if s.stat[j] != basic {
			s.stat[j], s.xN[j] = atLower, 0
		}
	}
	return s.iterate(s.c, false)
}

// computeDuals sets s.y = cB^T B^-1 for the given cost vector.
func (s *solver) computeDuals(cost []float64) {
	for r := 0; r < s.m; r++ {
		s.y[r] = cost[s.basis[r]]
	}
	s.f.btran(s.y)
}

// reducedCost returns c_j - y . A_j.
func (s *solver) reducedCost(cost []float64, j int) float64 {
	d := cost[j]
	for _, e := range s.cols.col(j) {
		d -= s.y[e.row] * e.coef
	}
	return d
}

// ftran computes w = B^-1 A_j.
func (s *solver) ftran(j int) {
	s.f.ftranCol(s.cols.col(j), &s.w)
}

// stallLimit is the number of consecutive degenerate pivots after
// which pricing switches from the most negative reduced cost (Dantzig)
// to the first eligible column (Bland), which cannot cycle. It is a
// variable only so in-package tests can set it to 0 and price every
// pivot by Bland.
var stallLimit = 400

// iterate runs primal simplex pivots under the given cost vector from
// freshly computed reduced costs (see primal).
func (s *solver) iterate(cost []float64, phase1 bool) Status {
	s.computeReducedCosts(cost)
	return s.primal(cost, phase1)
}

// primal runs simplex pivots under the given cost vector until
// optimality (returns Optimal), unboundedness, or the iteration limit,
// starting from the reduced costs in s.d. It keeps them across pivots
// (see updatePrimalCosts) and recomputes them in full only after a
// refactorization, or to confirm an optimum they show once they have
// been updated since. In phase 1 an unbounded ray is numeric trouble,
// answered by Bland's rule, rather than a verdict.
func (s *solver) primal(cost []float64, phase1 bool) Status {
	s.gainAll()
	stall := 0
	for {
		if s.iters >= s.maxIt {
			return IterationLimit
		}
		if s.maybeRefactor() {
			s.computeReducedCosts(cost)
			s.gainAll()
		}
		enter, sigma := s.price(stall >= stallLimit)
		if enter < 0 && s.dKept {
			s.computeReducedCosts(cost)
			s.gainAll()
			enter, sigma = s.price(stall >= stallLimit)
		}
		if enter < 0 {
			return Optimal
		}
		s.iters++
		s.ftran(enter)
		t, leaveRow, flip, ok := s.ratioTest(enter, sigma)
		if !ok {
			if phase1 {
				// Phase-1 objective is bounded below by zero; an
				// unbounded ray here means numeric trouble. Treat as
				// stall and force Bland.
				stall = stallLimit
				continue
			}
			return Unbounded
		}
		if t <= s.tol {
			stall++
		} else {
			stall = 0
		}
		if flip {
			// A bound flip changes no reduced cost, only the side
			// the column rests on.
			s.flips++
			s.applyBoundFlip(enter, sigma, t)
			s.gain[enter] = s.gainOf(enter)
			continue
		}
		if t <= s.tol {
			s.degenerate++
		}
		// Leaving variable rests at whichever bound it hit: the basic
		// value was driven toward its lower bound when sigma*w > 0.
		leaveStat := atUpper
		if sigma*s.w.v[leaveRow] > 0 {
			leaveStat = atLower
		}
		s.updatePrimalCosts(enter, leaveRow)
		leave := s.basis[leaveRow]
		s.pivot(enter, sigma, t, leaveRow, leaveStat)
		s.gain[enter] = 0
		if leave < s.artStart {
			s.gain[leave] = s.gainOf(leave)
		}
	}
}

// price chooses the entering column and its direction sigma (+1 to
// increase, -1 to decrease): the largest gain, the lowest index on
// ties (Dantzig), or under bland the lowest index with any. Returns
// enter = -1 at optimality.
func (s *solver) price(bland bool) (enter int, sigma float64) {
	enter = -1
	best := s.tol
	for j, g := range s.gain[:s.artStart] {
		if g > best {
			enter, best = j, g
			if bland {
				break
			}
		}
	}
	if enter < 0 {
		return -1, 0
	}
	if st := s.stat[enter]; st == atUpper || (st == nonbasicFree && s.d[enter] > 0) {
		return enter, -1
	}
	return enter, 1
}

// gainOf is what pricing ranks structural or slack column j by: |d_j|
// when its reduced cost improves the objective, for the bound it rests
// on, by more than tol; 0 when it does not, and for a basic or fixed
// column.
func (s *solver) gainOf(j int) float64 {
	var g float64
	switch d := s.d[j]; s.stat[j] {
	case atLower:
		g = -d
	case atUpper:
		g = d
	case nonbasicFree:
		g = math.Abs(d)
	default:
		return 0
	}
	if g <= s.tol || sameFloat(s.lo[j], s.hi[j]) {
		return 0
	}
	return g
}

// gainAll sets every structural and slack column's gain from s.d.
func (s *solver) gainAll() {
	for j := range s.gain[:s.artStart] {
		s.gain[j] = s.gainOf(j)
	}
}

// updatePrimalCosts keeps s.d across the pivot of column enter into
// leaveRow, before the factor takes it: with ρ = e_rᵀB⁻¹ (one Btran)
// and the pivot row α_j = ρᵀA_j (see primalRow), d_j −= θ·α_j for
// θ = d_q/α_q, and the leaving column's reduced cost becomes −θ. The
// columns the row reaches get their gains again; the caller sets the
// entering and leaving columns' once the pivot has moved them.
func (s *solver) updatePrimalCosts(enter, leaveRow int) {
	s.rho.unit(leaveRow)
	s.f.btranSparse(&s.rho)
	theta := s.d[enter] / s.w.v[leaveRow]
	for _, j := range s.cands[:s.primalRow()] {
		s.d[j] -= theta * s.alpha[j]
		s.gain[j] = s.gainOf(int(j))
		s.inRow[j] = false
	}
	if leave := s.basis[leaveRow]; leave < s.artStart {
		s.d[leave] = -theta
	}
	s.dKept = true
}

// primalRow forms the pivot row α_j = ρᵀA_j of the nonbasic structural
// and slack columns row-wise, over ρ's listed nonzeros only, in row
// order: each row i with ρ_i ≠ 0 adds ρ_i times its terms, and its
// slack's coefficient. It lists the columns reached in s.cands, marks
// them in s.inRow for the caller to clear, and returns their count.
func (s *solver) primalRow() int {
	nc := 0
	for _, i := range s.rho.idx {
		ri := s.rho.v[i]
		if isZero(ri) {
			continue
		}
		for _, t := range s.rows[i].terms {
			nc = s.addToRow(int(t.Var), ri*t.Coef, nc)
		}
		if u := s.slackOf[i]; u >= 0 {
			nc = s.addToRow(int(u), ri*s.cols.unit(int(u)).coef, nc)
		}
	}
	return nc
}

// addToRow adds v to nonbasic column j's pivot-row entry, listing j in
// s.cands (of which nc are in use) on its first contribution, and
// returns the new count.
func (s *solver) addToRow(j int, v float64, nc int) int {
	if s.stat[j] == basic {
		return nc
	}
	if !s.inRow[j] {
		s.inRow[j] = true
		s.alpha[j] = 0
		s.cands[nc] = int32(j)
		nc++
	}
	s.alpha[j] += v
	return nc
}

// ratioTest finds how far the entering variable can move. It returns
// the step t, the leaving row (if a basis change occurs), whether the
// move is a pure bound flip, and ok=false when the step is unbounded.
func (s *solver) ratioTest(enter int, sigma float64) (t float64, leaveRow int, flip bool, ok bool) {
	t = Inf
	// Entering variable's own range limits the step.
	if !math.IsInf(s.hi[enter], 1) && s.lo[enter] > math.Inf(-1) {
		t = s.hi[enter] - s.lo[enter]
	}
	t, leaveRow = s.rowLimit(sigma, t)
	if math.IsInf(t, 1) {
		return 0, -1, false, false
	}
	return t, leaveRow, leaveRow < 0, true
}

// rowLimit is the primal ratio test over the basic rows for the column
// in s.w moving in direction sigma by at most t: it returns the step
// and the row whose basic value reaches a bound first, or t and -1
// when none does within it. A basic value already past the bound it
// moves toward blocks at a zero step. It visits w's listed nonzeros,
// in row order.
func (s *solver) rowLimit(sigma, t float64) (float64, int) {
	leaveRow := -1
	w := s.w.v
	for _, r32 := range s.w.idx {
		r := int(r32)
		wr := sigma * w[r]
		if math.Abs(wr) <= 1e-11 {
			continue
		}
		bj := s.basis[r]
		var lim float64
		if wr > 0 {
			// Basic value decreases toward its lower bound.
			if math.IsInf(s.lo[bj], -1) {
				continue
			}
			lim = (s.xB[r] - s.lo[bj]) / wr
		} else {
			if math.IsInf(s.hi[bj], 1) {
				continue
			}
			lim = (s.hi[bj] - s.xB[r]) / (-wr)
		}
		if lim < 0 {
			lim = 0
		}
		// Prefer the tightest limit; on near-ties keep the row with
		// the largest pivot magnitude for stability.
		if lim < t-1e-10 || (lim < t+1e-10 && leaveRow >= 0 &&
			math.Abs(w[r]) > math.Abs(w[leaveRow])) {
			t = lim
			leaveRow = r
		}
	}
	return t, leaveRow
}

// applyBoundFlip moves the entering variable across its range without a
// basis change.
func (s *solver) applyBoundFlip(enter int, sigma, t float64) {
	if sigma > 0 {
		s.stat[enter] = atUpper
		s.xN[enter] = s.hi[enter]
	} else {
		s.stat[enter] = atLower
		s.xN[enter] = s.lo[enter]
	}
	for _, r := range s.w.idx {
		s.xB[r] -= sigma * t * s.w.v[r]
	}
}

// pivot swaps the entering column into the basis at leaveRow; the
// leaving variable rests at leaveStat (primal and dual steps place it
// on different sides, so the caller decides). Requires s.w to hold the
// entering column in basis coordinates.
func (s *solver) pivot(enter int, sigma, t float64, leaveRow int, leaveStat vstat) {
	leave := s.basis[leaveRow]
	// New value of the entering variable.
	newVal := s.xN[enter] + sigma*t
	// Update basic values.
	for _, r := range s.w.idx {
		if int(r) != leaveRow {
			s.xB[r] -= sigma * t * s.w.v[r]
		}
	}
	// A fixed column rests at its lower bound whichever side it left
	// through: the value is the same, and a later SetVarBound that
	// reopens its upper bound then leaves it where it was fixed.
	if leaveStat == atLower || sameFloat(s.lo[leave], s.hi[leave]) {
		s.stat[leave] = atLower
		s.xN[leave] = s.lo[leave]
	} else {
		s.stat[leave] = atUpper
		s.xN[leave] = s.hi[leave]
	}
	if math.IsInf(s.xN[leave], 0) {
		// A free variable leaving the basis: park at zero.
		s.stat[leave] = nonbasicFree
		s.xN[leave] = 0
	}
	s.basis[leaveRow] = enter
	s.stat[enter] = basic
	s.xB[leaveRow] = newVal
	s.pivotsTotal++
	if !s.f.update(leaveRow) {
		// The new basis is near singular for the update; factor it
		// afresh, or keep the factors as they are when it is singular,
		// as maybeRefactor does.
		s.refactorNow()
	}
}

// refactorEvery is the pivot budget between explicit refactorizations
// of the basis, bounding the floating-point drift the Forrest–Tomlin
// updates accumulate.
func (s *solver) refactorEvery() int {
	if s.opts.RefactorEvery > 0 {
		return s.opts.RefactorEvery
	}
	if s.m < 200 {
		return 4000 // small bases barely drift; refactor rarely
	}
	return 1500
}

// maybeRefactor rebuilds the factor when the drift budget is
// exhausted or the updates have outgrown their storage bound (see
// factor.grown), and reports whether it tried: callers then recompute
// what they keep from the old factor.
func (s *solver) maybeRefactor() bool {
	if s.f.pivotsSince < s.refactorEvery() && !s.f.grown() {
		return false
	}
	s.refactorNow()
	return true
}

// refactorNow rebuilds the factor from the current basis and the basic
// values from it. A singular basis keeps the stale factor (and resets
// the counter so the rebuild is not retried every pivot).
func (s *solver) refactorNow() {
	if !s.f.refactorize(s.basis, s.cols) {
		s.f.pivotsSince = 0
		return
	}
	s.refactors++
	s.recomputeBasics()
}

// recomputeBasics sets xB = B^-1 (b - N x_N) from authoritative
// nonbasic values.
func (s *solver) recomputeBasics() {
	resid := s.resid[:s.m]
	copy(resid, s.b)
	for j := 0; j < s.nTotal; j++ {
		if s.stat[j] == basic || isZero(s.xN[j]) {
			continue
		}
		for _, e := range s.cols.col(j) {
			resid[e.row] -= e.coef * s.xN[j]
		}
	}
	copy(s.xB[:s.m], resid)
	s.f.ftranDense(s.xB[:s.m])
}
