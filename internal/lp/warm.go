package lp

import "math"

// Basis is an opaque snapshot of a solver's final basis, captured with
// Options.KeepBasis and replayed with Options.Warm on the same Model.
// The in-place mutators (SetRHS, SetObjCoef, SetVarBound) leave it
// exactly valid. It also survives structural edits (AddVar, AddConstr,
// AddTerm, RemoveVars): the next warm solve carries it over by the
// stable identities of the surviving variables and rows, keeping the
// captured point. New variables rest nonbasic at their bound nearest
// zero and new rows start with their slack (or, for an equality, their
// artificial) basic; when more survivors are basic than there are
// rows, those resting at a bound are demoted first, and the one
// factorization of a carried-over basis replaces its dependent columns
// with unit columns of the rows left uncovered (see factorize and
// replaceDependent). A column strictly inside its bounds that the
// basis cannot hold is crossed over to a bound by a primal ratio-test
// step (see crossover), so removing variables whatever their values,
// even basic ones, leaves the start as feasible as the captured point
// was. A basis captured from another Model degrades to a cold solve;
// it never corrupts a result.
//
// A Basis belongs to one goroutine: the next solve through the
// Workspace that captured it overwrites it.
type Basis struct {
	model         *Model
	structVersion uint64
	basis         []int
	stat          []vstat
	// x holds the structural values at capture. A carried-over basis
	// keeps that point where it can: nonbasic survivors rest at the
	// bound nearest their captured value, and the basic columns strictly
	// inside their bounds stay basic ahead of those at a bound.
	x []float64
	// colKey and rowIDs copy the model's identities at capture: they
	// give the captured column layout and the identities the carry-over
	// matches against.
	colKey []uint64
	rowIDs []rowID
	// artSign records the direction each artificial column had when the
	// basis was captured; the shared column arena must be re-patched to
	// the same signs for the snapshot to describe the same matrix B.
	artSign []int8
	// ws/seq identify the workspace solve that produced this basis: a
	// warm solve through the same workspace with no interleaved solve
	// reuses the live factorization instead of refactorizing.
	ws  *Workspace
	seq uint64
}

// solveKind classifies a solve for the lp.* metrics and the lp.solve
// span's "kind" field.
type solveKind int

const (
	solveCold         solveKind = iota // no usable basis: two cold phases
	solveWarm                          // basis reused, recovery pivots only
	solveWarmFallback                  // warm attempt failed, restarted cold
)

func (k solveKind) String() string {
	switch k {
	case solveWarm:
		return "warm"
	case solveWarmFallback:
		return "warm-fallback"
	}
	return "cold"
}

// warmRun attempts to solve from the snapshot basis and classifies
// the start: a primal feasible one takes primal pivots, a dual
// feasible one dual pivots and then a primal polish, and one that is
// neither has its dual infeasibilities shifted into the costs for the
// dual pivots (see shiftCosts), then primal pivots under the true
// costs. It falls back to a cold run (with a fresh iteration budget)
// when the snapshot belongs to another model, cannot be carried over a
// structural edit, is numerically unusable, exhausts the iteration
// budget, or classifies the model as infeasible or unbounded — the
// cold run is the arbiter for every non-optimal outcome, so a warm
// chain can never misreport feasibility and callers never see a
// warm-only failure.
func (s *solver) warmRun(m *Model, b *Basis, ws *Workspace) (Status, solveKind) {
	var adopted bool
	switch {
	case b.model != m:
	case b.structVersion == m.structVersion:
		adopted = len(b.basis) == s.m && len(b.stat) == s.nTotal && s.adoptBasis(b, ws)
	default:
		adopted = s.adoptEdited(m, b, ws)
	}
	if !adopted {
		return s.run(m), solveWarmFallback
	}
	var st Status
	switch {
	case s.primalInfeasibility() <= s.tol:
		// RHS unchanged or basic values still in range: the cached
		// point is primal feasible, only pricing may be off.
		st = s.iterate(s.c, false)
	case s.dualFeasible():
		// The parametric hot path: an RHS or bound edit pushed basic
		// values out of range while reduced costs stayed consistent.
		// Dual pivots restore primal feasibility, then a primal sweep
		// polishes any tolerance drift.
		st = s.dualIterate()
		if st == Optimal {
			st = s.primal(s.c, false)
		}
	default:
		// Both primal and dual infeasible (an objective edit or an
		// improving new column, together with an RHS or bound move):
		// shifting each dual-infeasible column's cost by its reduced
		// cost makes the basis dual feasible, dual pivots restore
		// primal feasibility under the shifted costs, and primal
		// pivots finish under the true ones.
		s.shiftCosts()
		st = s.dualIterate()
		s.loadCosts(m)
		if st == Optimal {
			st = s.iterate(s.c, false)
		}
	}
	if st == Optimal {
		return st, solveWarm
	}
	// Infeasible/Unbounded from a warm start can be an artifact of the
	// snapshot, and an IterationLimit a recovery cut short by a caller's
	// MaxIters; settle both with a cold run before reporting.
	s.iters = 0
	return s.run(m), solveWarmFallback
}

// adoptBasis installs the snapshot into the prepared solver: statuses,
// nonbasic resting values under the *current* bounds, artificial column
// signs, and a factorization of the snapshot basis (reusing the live
// one when the workspace chain allows). Returns false when the basis
// matrix is numerically singular.
func (s *solver) adoptBasis(b *Basis, ws *Workspace) bool {
	copy(s.basis[:s.m], b.basis)
	copy(s.stat[:s.nTotal], b.stat)
	for r := 0; r < s.m; r++ {
		s.cols.unit(s.artStart + r).coef = float64(b.artSign[r])
	}
	s.restNonbasics()
	// An unbroken chain's factor already represents this basis.
	live := b.ws == ws && ws.lastSeq == b.seq && ws.lastModel == b.model &&
		ws.lastVersion == b.structVersion && ws.f.m == s.m
	if !live {
		if !ws.f.refactorize(s.basis[:s.m], s.cols) {
			return false
		}
		s.refactors++
	}
	s.recomputeBasics()
	return true
}

// restNonbasics puts every nonbasic column at the value its status
// names under the *current* bounds.
func (s *solver) restNonbasics() {
	for j := 0; j < s.nTotal; j++ {
		switch s.stat[j] {
		case basic:
		case atLower:
			if math.IsInf(s.lo[j], -1) {
				// A bound edit removed the side this variable rested
				// on; park it on the other side, or free at zero.
				if math.IsInf(s.hi[j], 1) {
					s.stat[j], s.xN[j] = nonbasicFree, 0
				} else {
					s.stat[j], s.xN[j] = atUpper, s.hi[j]
				}
				continue
			}
			s.xN[j] = s.lo[j]
		case atUpper:
			if math.IsInf(s.hi[j], 1) {
				if math.IsInf(s.lo[j], -1) {
					s.stat[j], s.xN[j] = nonbasicFree, 0
				} else {
					s.stat[j], s.xN[j] = atLower, s.lo[j]
				}
				continue
			}
			if sameFloat(s.lo[j], s.hi[j]) {
				// Fixed: rest at the lower bound, as pivot does.
				s.stat[j] = atLower
			}
			s.xN[j] = s.hi[j]
		case nonbasicFree:
			s.xN[j] = 0
		}
	}
}

// primalInfeasibility returns the largest bound violation among basic
// variables; <= tol means the adopted point is primal feasible.
func (s *solver) primalInfeasibility() float64 {
	worst := 0.0
	for r := 0; r < s.m; r++ {
		bj := s.basis[r]
		if d := s.lo[bj] - s.xB[r]; d > worst {
			worst = d
		}
		if d := s.xB[r] - s.hi[bj]; d > worst {
			worst = d
		}
	}
	return worst
}

// computeReducedCosts sets d_j = c_j − yᵀA_j under the given costs for
// every nonbasic structural and slack column from a fresh Btran of the
// basic costs.
func (s *solver) computeReducedCosts(cost []float64) {
	s.computeDuals(cost)
	for j := 0; j < s.artStart; j++ {
		if s.stat[j] != basic {
			s.d[j] = s.reducedCost(cost, j)
		}
	}
	s.dKept = false
}

// dualFeasible reports whether every nonbasic reduced cost is
// consistent with its resting bound — the precondition for dual
// simplex recovery. It leaves the reduced costs in s.d, where
// dualIterate keeps them.
func (s *solver) dualFeasible() bool {
	s.computeReducedCosts(s.c)
	for j := 0; j < s.artStart; j++ {
		if s.dualInfeasible(j) {
			return false
		}
	}
	return true
}

// dualInfeasible reports whether column j is nonbasic, not fixed, and
// has a reduced cost s.d[j] of the wrong sign for its resting bound.
func (s *solver) dualInfeasible(j int) bool {
	st := s.stat[j]
	if st == basic || sameFloat(s.lo[j], s.hi[j]) {
		return false
	}
	switch d := s.d[j]; st {
	case atLower:
		return d < -s.tol
	case atUpper:
		return d > s.tol
	default: // nonbasicFree
		return math.Abs(d) > s.tol
	}
}

// shiftCosts zeroes the reduced cost of every dual-infeasible column
// by moving its cost by that amount, which leaves the duals, and every
// other reduced cost, as they are. It reads and updates the reduced
// costs dualFeasible left in s.d; the caller restores the costs with
// loadCosts.
func (s *solver) shiftCosts() {
	for j := 0; j < s.artStart; j++ {
		if s.dualInfeasible(j) {
			s.c[j] -= s.d[j]
			s.d[j] = 0
		}
	}
}

// dualPivotTol is the minimum |alpha| accepted as a dual pivot element.
const dualPivotTol = 1e-9

// dualIterate runs dual simplex pivots from a dual-feasible,
// primal-infeasible basis until primal feasibility (Optimal), proven
// primal infeasibility (Infeasible — the caller cold-confirms), or the
// iteration limit. It starts from the reduced costs dualFeasible left
// in s.d. Each iteration
//
//   - picks the leaving row r by dual Devex (dualLeaving);
//   - forms ρ = e_rᵀB⁻¹ with one Btran, and the pivot row α_j = ρᵀA_j
//     with the columns that can enter (pivotRow);
//   - runs the bound-flipping ratio test (dualRatio), which flips the
//     boxed columns it passes and names the entering column q, so every
//     iteration ends in exactly one basis change (Maros 2003;
//     Koberstein 2005);
//   - moves x_B for the flips with one Ftran, pivots, and keeps the
//     reduced costs: d_j −= θ·α_j over the pivot row with θ = d_q/α_q,
//     and −θ for the leaving column.
//
// The reduced costs are recomputed in full only after a
// refactorization, which also wipes their incremental drift.
func (s *solver) dualIterate() Status {
	stall := 0
	const stallLimit = 400 // degenerate dual pivots before giving up
	devex := s.devex[:s.m]
	for r := range devex {
		devex[r] = 1
	}
	for {
		if s.iters >= s.maxIt {
			return IterationLimit
		}
		if s.maybeRefactor() {
			s.computeReducedCosts(s.c)
		}
		leaveRow, leaveToUpper, delta := s.dualLeaving()
		if leaveRow < 0 {
			return Optimal
		}
		if stall >= stallLimit {
			// Degenerate cycling: let the caller restart cold rather
			// than spin here.
			return Infeasible
		}
		s.iters++
		s.rho.unit(leaveRow)
		s.f.btranSparse(&s.rho)
		nc := s.pivotRow(leaveToUpper)
		enter, sigma, flipped := s.dualRatio(nc, leaveToUpper, delta)
		if enter < 0 {
			// Dual unbounded: no column can repair the violated row,
			// so the primal is infeasible.
			return Infeasible
		}
		if flipped {
			// x_B −= B⁻¹·Σ A_j·Δx_j over the passed columns.
			resid := s.resid[:s.m]
			s.f.ftranDense(resid)
			for r, v := range resid {
				s.xB[r] -= v
			}
		}
		s.ftran(enter)
		alpha := s.w.v[leaveRow]
		if math.Abs(alpha) <= 1e-11 {
			// Btran/Ftran disagree badly; the factor has drifted.
			return Infeasible
		}
		leave := s.basis[leaveRow]
		target, leaveStat := s.lo[leave], atLower
		if leaveToUpper {
			target, leaveStat = s.hi[leave], atUpper
		}
		t := (s.xB[leaveRow] - target) / (sigma * alpha)
		if t < 0 {
			t = 0
		}
		if span := s.hi[enter] - s.lo[enter]; t > span {
			// The ratio test lets a boxed column enter once crossing
			// its whole span would leave the row violated by at most
			// tol, so its step stops at its other bound.
			t = span
		}
		if t <= s.tol {
			s.degenerate++
			stall++
		} else {
			stall = 0
		}
		theta := s.d[enter] / s.alpha[enter]
		s.updateReducedCosts(theta)
		s.updateDevex(leaveRow, alpha)
		s.pivot(enter, sigma, t, leaveRow, leaveStat)
		if leave < s.artStart {
			s.d[leave] = -theta
		}
	}
}

// dualLeaving picks the leaving row by dual Devex pricing: the largest
// infeasibility²/β_r among the rows whose basic value is out of bounds
// by more than tol, the lowest row on ties. It returns the row (-1 when
// the basis is primal feasible), whether its value must land on the
// upper bound, and the infeasibility.
func (s *solver) dualLeaving() (leaveRow int, toUpper bool, delta float64) {
	leaveRow = -1
	best := 0.0
	for r := 0; r < s.m; r++ {
		bj := s.basis[r]
		v, up := s.lo[bj]-s.xB[r], false
		if u := s.xB[r] - s.hi[bj]; u > v {
			v, up = u, true
		}
		if v <= s.tol {
			continue
		}
		if score := v * v / s.devex[r]; score > best {
			best, leaveRow, toUpper, delta = score, r, up, v
		}
	}
	return leaveRow, toUpper, delta
}

// updateDevex updates the dual Devex reference weights after a pivot
// on leaveRow with pivot element alpha, from the entering column
// w = B⁻¹A_q in hand (Koberstein 2005, §3.3): every β_i grows to at
// least (w_i/α)²·β_r, and the leaving row's weight becomes
// max(β_r/α², 1).
func (s *solver) updateDevex(leaveRow int, alpha float64) {
	br := s.devex[leaveRow]
	scale := br / (alpha * alpha)
	for _, i := range s.w.idx {
		wi := s.w.v[i]
		if v := wi * wi * scale; v > s.devex[i] {
			s.devex[i] = v
		}
	}
	s.devex[leaveRow] = math.Max(scale, 1)
}

// pivotRow forms the pivot row α_j = ρᵀA_j in s.alpha, one dot product
// per nonbasic structural and slack column that is not fixed (a fixed
// column never enters, so its reduced cost is never read), and lists
// the columns that can enter (see dualDir) in s.cands in index order.
// It returns their count.
func (s *solver) pivotRow(toUpper bool) int {
	nc := 0
	for j := 0; j < s.artStart; j++ {
		if s.stat[j] == basic || sameFloat(s.lo[j], s.hi[j]) {
			continue
		}
		a := 0.0
		for _, e := range s.cols.col(j) {
			a += s.rho.v[e.row] * e.coef
		}
		s.alpha[j] = a
		if !isZero(s.dualDir(j, toUpper)) {
			s.cands[nc] = int32(j)
			nc++
		}
	}
	return nc
}

// dualDir returns the direction (+1 up, −1 down) in which nonbasic
// column j moves to push the leaving row toward its violated bound, or
// 0 when j cannot enter: it is basic or fixed, its pivot element is at
// most dualPivotTol, or the sign is wrong for its resting bound. A step
// t ≥ 0 changes x_B[r] by −σ·t·α_j, so an above-upper row needs
// σ·α_j > 0 and a below-lower one σ·α_j < 0.
func (s *solver) dualDir(j int, toUpper bool) float64 {
	st, a := s.stat[j], s.alpha[j]
	if st == basic || sameFloat(s.lo[j], s.hi[j]) || math.Abs(a) <= dualPivotTol {
		return 0
	}
	if !toUpper {
		a = -a
	}
	switch {
	case st == nonbasicFree && a < 0, st == atUpper && a < 0:
		return -1
	case st == nonbasicFree, st == atLower && a > 0:
		return 1
	}
	return 0
}

// dualRatio is the bound-flipping ratio test over the nc candidates in
// s.cands, for a leaving row violated by delta. It
// takes their breakpoints |d_j|/|α_j| in ratio order (near-ties within
// 1e-10 go to the larger |α_j|, then to the lower index) and passes one
// — flips its column to the other bound — only while the row stays
// violated by more than tol after the column crosses its whole span.
// The first breakpoint it cannot pass names the entering column, so a
// flip never comes without a pivot, and the pricing pass that
// collected the breakpoints is the only one. Passed columns flip in
// place and their moves A_j·Δx_j sum into s.resid for one Ftran; the
// dual step (updateReducedCosts) then turns their reduced costs to the
// sign of their new bound. enter is -1 when no breakpoint is left:
// even every flip together cannot repair the row, so the primal is
// infeasible.
func (s *solver) dualRatio(nc int, toUpper bool, delta float64) (enter int, sigma float64, flipped bool) {
	cand := s.cands[:nc]
	for len(cand) > 0 {
		k, best, bestAlpha := -1, Inf, 0.0
		for i, j := range cand {
			a := math.Abs(s.alpha[j])
			ratio := math.Abs(s.d[j]) / a
			if ratio < best-1e-10 || (ratio < best+1e-10 && a > bestAlpha) {
				k, best, bestAlpha = i, ratio, a
			}
		}
		j := int(cand[k])
		sigma = s.dualDir(j, toUpper)
		span := s.hi[j] - s.lo[j] // +Inf unless boxed
		if delta-bestAlpha*span <= s.tol {
			return j, sigma, flipped
		}
		delta -= bestAlpha * span
		if !flipped {
			flipped = true
			for r := range s.resid[:s.m] {
				s.resid[r] = 0
			}
		}
		s.flips++
		if sigma > 0 {
			s.stat[j], s.xN[j] = atUpper, s.hi[j]
		} else {
			s.stat[j], s.xN[j] = atLower, s.lo[j]
		}
		for _, e := range s.cols.col(j) {
			s.resid[e.row] += e.coef * sigma * span
		}
		// Drop j, keeping the rest in index order for the tie-break.
		cand = cand[:k+copy(cand[k:], cand[k+1:])]
	}
	return -1, 0, flipped
}

// updateReducedCosts takes the dual step θ over the pivot row,
// d_j −= θ·α_j for the columns pivotRow priced: the ones nonbasic and
// not fixed before the pivot (dualRatio's flips keep a column
// nonbasic).
func (s *solver) updateReducedCosts(theta float64) {
	for j := 0; j < s.artStart; j++ {
		if s.stat[j] != basic && !sameFloat(s.lo[j], s.hi[j]) {
			s.d[j] -= theta * s.alpha[j]
		}
	}
	s.dKept = true
}
