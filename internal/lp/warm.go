package lp

import "math"

// Basis is an opaque snapshot of a solver's final basis, captured with
// Options.KeepBasis and replayed with Options.Warm on the same Model.
// The in-place mutators (SetRHS, SetObjCoef, SetVarBound) leave it
// exactly valid. It also survives structural edits (AddVar, AddConstr,
// AddTerm, RemoveVars): the next warm solve carries it over by the
// stable identities of the surviving variables and rows. New variables
// rest nonbasic at their bound nearest zero and new rows start with
// their slack (or, for an equality, their artificial) basic; when more
// survivors are basic than there are rows, those resting at a bound are
// demoted first, and a carried-over basis the sparse LU finds singular
// has its dependent columns replaced by unit columns of the rows left
// uncovered (see repairCarried). A basis that cannot be repaired, or
// one captured from another Model, degrades to a cold solve; it never
// corrupts a result.
//
//confine:goroutine
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
	// colKey and rowIDs are the model's slices at capture (never
	// edited in place, see Model): they give the captured column layout
	// and the identities the carry-over matches against.
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

// warmRun attempts to solve from the snapshot basis, falling back to a
// cold run (with a fresh iteration budget) when the snapshot belongs to
// another model, cannot be carried over a structural edit, is
// numerically unusable, exhausts the iteration budget, or classifies
// the model as infeasible or unbounded — the cold run is the arbiter
// for every non-optimal outcome, so a warm chain can never misreport
// feasibility and callers never see a warm-only failure.
//
//alloc:none
func (s *solver) warmRun(m *Model, b *Basis, ws *Workspace) (Status, solveKind) {
	var adopted bool
	switch {
	case b.model != m:
	case b.structVersion == m.structVersion:
		adopted = len(b.basis) == s.m && len(b.stat) == s.nTotal && s.adoptBasis(b, ws)
	default:
		//alloc:amortized the carry-over allocates its scratch once per structural edit; a chain without edits never reaches it
		adopted = s.adoptEdited(m, b, ws)
	}
	if !adopted {
		return s.run(), solveWarmFallback
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
			st = s.iterate(s.c, false)
		}
	default:
		// Both primal and dual infeasible (obj and RHS both moved):
		// recovery has no anchor; restart cold.
		s.iters = 0
		return s.run(), solveWarmFallback
	}
	if st == Optimal {
		return st, solveWarm
	}
	// Infeasible/Unbounded from a warm start can be an artifact of the
	// snapshot, and an IterationLimit a stalled recovery (long budget
	// jumps can take thousands of dual pivots); settle both with a cold
	// run before reporting.
	s.iters = 0
	return s.run(), solveWarmFallback
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
		s.cols[s.artStart+r][0].coef = float64(b.artSign[r])
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

// dualFeasible reports whether every nonbasic reduced cost is
// consistent with its resting bound — the precondition for dual
// simplex recovery.
func (s *solver) dualFeasible() bool {
	s.computeDuals(s.c)
	for j := 0; j < s.artStart; j++ {
		st := s.stat[j]
		if st == basic || sameFloat(s.lo[j], s.hi[j]) {
			continue
		}
		d := s.reducedCost(s.c, j)
		switch st {
		case atLower:
			if d < -s.tol {
				return false
			}
		case atUpper:
			if d > s.tol {
				return false
			}
		case nonbasicFree:
			if math.Abs(d) > s.tol {
				return false
			}
		}
	}
	return true
}

// dualPivotTol is the minimum |alpha| accepted as a dual pivot element.
const dualPivotTol = 1e-9

// dualIterate runs dual simplex pivots from a dual-feasible,
// primal-infeasible basis until primal feasibility (Optimal), proven
// primal infeasibility (Infeasible — the caller cold-confirms), or the
// iteration limit. Each pass picks the most-violated basic variable,
// prices entering candidates against row r of B^-1 (Btran of a unit
// vector), and keeps dual feasibility with the |d|/|alpha| ratio test.
func (s *solver) dualIterate() Status {
	stall := 0
	const stallLimit = 400 // degenerate dual pivots before giving up
	// Duals are maintained incrementally across pivots (y' = y + θ·ρ_r
	// with θ = d_enter/α_r, using the ρ row already in hand) instead of
	// a full cB·B⁻¹ Btran per iteration — that Btran dominated warm
	// re-solve time. A full recompute happens only at entry and after a
	// refactorization, which also wipes the incremental drift.
	s.computeDuals(s.c)
	for {
		if s.iters >= s.maxIt {
			return IterationLimit
		}
		sincePivots := s.f.pivotsSince
		s.maybeRefactor()
		if s.f.pivotsSince < sincePivots {
			s.computeDuals(s.c)
		}
		// Leaving row: most violated basic variable, and the bound it
		// must land on.
		leaveRow, leaveToUpper := -1, false
		worst := s.tol
		for r := 0; r < s.m; r++ {
			bj := s.basis[r]
			if d := s.lo[bj] - s.xB[r]; d > worst {
				worst, leaveRow, leaveToUpper = d, r, false
			}
			if d := s.xB[r] - s.hi[bj]; d > worst {
				worst, leaveRow, leaveToUpper = d, r, true
			}
		}
		if leaveRow < 0 {
			return Optimal
		}
		if stall >= stallLimit {
			// Degenerate cycling: let the caller restart cold rather
			// than spin here.
			return Infeasible
		}
		s.iters++
		// rho = e_r^T B^-1, the leaving row of the inverse.
		for i := 0; i < s.m; i++ {
			s.rho[i] = 0
		}
		s.rho[leaveRow] = 1
		s.f.btran(s.rho[:s.m])
		bj := s.basis[leaveRow]
		target := s.lo[bj]
		leaveStat := atLower
		if leaveToUpper {
			target = s.hi[bj]
			leaveStat = atUpper
		}
		// Bound-flipping ratio pass over the FIXED leaving row: when the
		// min-ratio column saturates its span before the row reaches its
		// bound, flip it and re-price the same row — the flip leaves the
		// duals untouched, so the flipped column's eligibility sign
		// inverts and it cannot be selected again this pass, bounding
		// the pass by the column count. (Re-picking the most-violated
		// row after each flip instead lets two rows ping-pong flips
		// between each other indefinitely — a crawl this code once hit.)
		repaired := false
		for {
			enter, sigma := s.dualPrice(leaveRow, leaveToUpper)
			if enter < 0 {
				// Dual unbounded: no entering column can repair the
				// violated row — the primal is infeasible.
				return Infeasible
			}
			s.ftran(enter)
			alpha := s.w[leaveRow]
			if math.Abs(alpha) <= 1e-11 {
				// Btran/Ftran disagree badly; the factor has drifted.
				return Infeasible
			}
			t := (s.xB[leaveRow] - target) / (sigma * alpha)
			if t < 0 {
				t = 0
			}
			if !math.IsInf(s.hi[enter], 1) && s.lo[enter] > math.Inf(-1) {
				if span := s.hi[enter] - s.lo[enter]; t > span {
					s.flips++
					s.iters++
					s.applyBoundFlip(enter, sigma, span)
					// The flips may already have carried the row to its
					// bound (tolerance slack); if so, no pivot is owed.
					if s.xB[leaveRow] >= s.lo[bj]-s.tol && s.xB[leaveRow] <= s.hi[bj]+s.tol {
						repaired = true
						break
					}
					if s.iters >= s.maxIt {
						return IterationLimit
					}
					continue
				}
			}
			if t <= s.tol {
				s.degenerate++
				stall++
			} else {
				stall = 0
			}
			theta := s.reducedCost(s.c, enter) / alpha
			s.pivot(enter, sigma, t, leaveRow, leaveStat)
			for i := 0; i < s.m; i++ {
				s.y[i] += theta * s.rho[i]
			}
			break
		}
		if repaired {
			continue
		}
	}
}

// dualPrice selects the entering column for the violated leaveRow by
// the bounded-variable dual ratio test: among nonbasic columns whose
// movement pushes the leaving basic value toward its violated bound,
// minimize |d_j| / |alpha_j| so every other reduced cost keeps its
// sign. Ties prefer the larger pivot magnitude for stability.
func (s *solver) dualPrice(leaveRow int, leaveToUpper bool) (enter int, sigma float64) {
	enter = -1
	bestRatio := Inf
	bestAlpha := 0.0
	for j := 0; j < s.artStart; j++ {
		st := s.stat[j]
		if st == basic || sameFloat(s.lo[j], s.hi[j]) {
			continue
		}
		alpha := 0.0
		for _, e := range s.cols[j] {
			alpha += s.rho[e.row] * e.coef
		}
		if math.Abs(alpha) <= dualPivotTol {
			continue
		}
		// xB[leaveRow] changes by -sigma*t*alpha for a step t >= 0:
		// repairing an above-upper violation needs sigma*alpha > 0,
		// below-lower needs sigma*alpha < 0.
		var dir float64
		if leaveToUpper {
			switch st {
			case atLower:
				if alpha > dualPivotTol {
					dir = 1
				}
			case atUpper:
				if alpha < -dualPivotTol {
					dir = -1
				}
			case nonbasicFree:
				if alpha > 0 {
					dir = 1
				} else {
					dir = -1
				}
			}
		} else {
			switch st {
			case atLower:
				if alpha < -dualPivotTol {
					dir = 1
				}
			case atUpper:
				if alpha > dualPivotTol {
					dir = -1
				}
			case nonbasicFree:
				if alpha > 0 {
					dir = -1
				} else {
					dir = 1
				}
			}
		}
		if isZero(dir) {
			continue
		}
		ratio := math.Abs(s.reducedCost(s.c, j)) / math.Abs(alpha)
		if ratio < bestRatio-1e-10 ||
			(ratio < bestRatio+1e-10 && math.Abs(alpha) > math.Abs(bestAlpha)) {
			bestRatio, enter, sigma, bestAlpha = ratio, j, dir, alpha
		}
	}
	return enter, sigma
}
