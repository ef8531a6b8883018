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
	// refactorizations; 0 keeps the size-based default. Mainly for
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
	// periodic ones that fold the eta file back into fresh LU factors,
	// and a warm start's factorization of a basis not already live in
	// its Workspace.
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
	cols               [][]centry
	c                  []float64 // phase-2 costs
	lo, hi             []float64
	b                  []float64

	basis []int // basis[r] = column basic in row r
	stat  []vstat
	f     *factor   // basis inverse: sparse LU plus eta file
	xB    []float64 // values of basic variables
	xN    []float64 // current value of every column (authoritative for nonbasic)
	y     []float64 // duals scratch
	w     []float64 // entering column in basis coordinates
	rho   []float64 // dual simplex: row r of B^-1
	resid []float64 // recomputeBasics right-hand side scratch; dual flips' A·Δx
	p1c   []float64 // phase-1 cost vector

	// Dual simplex state (see dualIterate). d holds the reduced costs
	// of the nonbasic columns, kept across dual pivots. alpha holds the
	// pivot row ρᵀA_j of the nonbasic columns that are not fixed, and
	// cands lists the ones among them that can enter. devex holds the
	// dual Devex reference weights, one per row.
	d     []float64
	alpha []float64
	cands []int32
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
		st = s.run()
	}
	sol := ws.takeSolution(m, s, st)
	sol.Warm = kind == solveWarm
	if opts.KeepBasis && st == Optimal {
		sol.Basis = ws.captureBasis(m, s)
	}
	ws.noteSolved(m)
	var elapsed time.Duration
	if opts.Now != nil {
		elapsed = opts.Now().Sub(start)
	}
	recordSolve(opts, sol, elapsed, opts.Now != nil, kind)
	return sol, nil
}

// run executes phase 1 then phase 2 and returns the final status.
//
//alloc:none
func (s *solver) run() Status {
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
			for _, e := range s.cols[j] {
				resid[e.row] -= e.coef * s.xN[j]
			}
		}
	}
	art := s.artStart
	for r := 0; r < s.m; r++ {
		s.basis[r] = -1
	}
	for j := s.nStruct; j < art; j++ {
		e := s.cols[j][0]
		if v := resid[e.row] / e.coef; v >= 0 {
			s.basis[e.row] = j
			s.stat[j] = basic
			s.xB[e.row] = v
		}
	}
	needPhase1 := false
	for i := range s.p1c {
		s.p1c[i] = 0
	}
	for r := 0; r < s.m; r++ {
		j := art + r
		s.p1c[j] = 1
		// The column arena persists across solves, so the sign must be
		// written both ways, not just flipped when negative.
		if resid[r] < 0 {
			s.cols[j][0].coef = -1
		} else {
			s.cols[j][0].coef = 1
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
		st := s.iterate(s.p1c, true)
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
	for _, e := range s.cols[j] {
		d -= s.y[e.row] * e.coef
	}
	return d
}

// ftran computes w = B^-1 A_j.
func (s *solver) ftran(j int) {
	s.f.ftranCol(s.cols[j], s.w)
}

// stallLimit is the number of consecutive degenerate pivots after
// which pricing switches from the most negative reduced cost (Dantzig)
// to the first eligible column (Bland), which cannot cycle. It is a
// variable only so in-package tests can set it to 0 and price every
// pivot by Bland.
var stallLimit = 400

// iterate runs simplex pivots under the given cost vector until
// optimality (returns Optimal), unboundedness, or the iteration limit.
// phase1 restricts pricing to keep artificial columns from re-entering.
func (s *solver) iterate(cost []float64, phase1 bool) Status {
	stall := 0
	// fresh reports that s.y holds the duals of the current basis: a
	// bound flip changes no dual, so only pivots and refactorizations
	// owe a Btran.
	fresh := false
	for {
		if s.iters >= s.maxIt {
			return IterationLimit
		}
		if s.maybeRefactor() || !fresh {
			s.computeDuals(cost)
			fresh = true
		}
		enter, sigma := s.price(cost, stall >= stallLimit)
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
			s.flips++
			s.applyBoundFlip(enter, sigma, t)
			continue
		}
		if t <= s.tol {
			s.degenerate++
		}
		// Leaving variable rests at whichever bound it hit: the basic
		// value was driven toward its lower bound when sigma*w > 0.
		leaveStat := atUpper
		if sigma*s.w[leaveRow] > 0 {
			leaveStat = atLower
		}
		s.pivot(enter, sigma, t, leaveRow, leaveStat)
		fresh = false
	}
}

// price chooses the entering column and its direction sigma (+1 to
// increase, -1 to decrease). Returns enter = -1 at optimality.
func (s *solver) price(cost []float64, bland bool) (enter int, sigma float64) {
	enter = -1
	best := s.tol
	for j := 0; j < s.nTotal; j++ {
		st := s.stat[j]
		if st == basic || sameFloat(s.lo[j], s.hi[j]) {
			continue
		}
		if j >= s.artStart {
			// Artificials never re-enter the basis.
			continue
		}
		d := s.reducedCost(cost, j)
		var improving bool
		var dir float64
		switch st {
		case atLower:
			improving, dir = d < -s.tol, 1
		case atUpper:
			improving, dir = d > s.tol, -1
		case nonbasicFree:
			if d < -s.tol {
				improving, dir = true, 1
			} else if d > s.tol {
				improving, dir = true, -1
			}
		}
		if !improving {
			continue
		}
		if bland {
			return j, dir
		}
		if mag := math.Abs(d); mag > best {
			best, enter, sigma = mag, j, dir
		}
	}
	return enter, sigma
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
// moves toward blocks at a zero step.
func (s *solver) rowLimit(sigma, t float64) (float64, int) {
	leaveRow := -1
	for r := 0; r < s.m; r++ {
		wr := sigma * s.w[r]
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
			math.Abs(s.w[r]) > math.Abs(s.w[leaveRow])) {
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
	for r := 0; r < s.m; r++ {
		s.xB[r] -= sigma * t * s.w[r]
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
	for r := 0; r < s.m; r++ {
		if r != leaveRow {
			s.xB[r] -= sigma * t * s.w[r]
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
	s.f.appendEta(s.w, leaveRow)
}

// refactorEvery is the pivot budget between explicit refactorizations
// of the basis, bounding the floating-point drift the eta file
// accumulates.
func (s *solver) refactorEvery() int {
	if s.opts.RefactorEvery > 0 {
		return s.opts.RefactorEvery
	}
	if s.m < 200 {
		return 4000 // small bases barely drift; refactor rarely
	}
	return 1500
}

// etaBudget bounds the eta file's off-pivot nonzeros. Every Ftran and
// Btran replays the whole file on top of one pass over the LU factors,
// and a refactorization costs only a few such passes (B0 is nearly
// triangular), so the file is folded back into the factors once
// replaying it costs as much as the factors themselves.
func (s *solver) etaBudget() int {
	b := s.f.luNnz()
	if b < 128 {
		b = 128
	}
	return b
}

// maybeRefactor rebuilds the factor when the drift budget or the eta
// growth budget is exhausted, and reports whether it tried: callers
// then recompute what they keep from the old factor. A singular basis
// keeps the stale factor (and resets the counter so the rebuild is not
// retried every pivot).
func (s *solver) maybeRefactor() bool {
	f := s.f
	if f.pivotsSince < s.refactorEvery() &&
		!(f.pivotsSince >= 32 && f.nnz() > s.etaBudget()) {
		return false
	}
	if !f.refactorize(s.basis, s.cols) {
		f.pivotsSince = 0
		return true
	}
	s.refactors++
	s.recomputeBasics()
	return true
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
		for _, e := range s.cols[j] {
			resid[e.row] -= e.coef * s.xN[j]
		}
	}
	copy(s.xB[:s.m], resid)
	s.f.ftranDense(s.xB[:s.m])
}
