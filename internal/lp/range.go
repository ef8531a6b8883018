package lp

import "math"

// rangeSlack is how far past a bound RangeRHS lets a basic value move.
// A slope that is zero in exact arithmetic can come out of the Ftran
// as rounding noise (1e-16 or so); with no slack, such a slope on a
// basic value resting at its bound would end the range where it
// starts. With it, the noise moves the range end by 1e-12/noise, far
// outside any planner's budget axis, while a true slope of 1e-3 or
// more moves it by at most 1e-9.
const rangeSlack = 1e-12

// slopeNoise is the largest slope RangeRHS counts as zero. Such noise
// on a basic value with room r would end the range r/noise away, some
// 1e16 for r of 1, and interpolating out there moves that value by the
// noise times the range: by r, however wrong. A true slope that small
// moves a value by 1e-12 per unit of right-hand side.
const slopeNoise = 1e-12

// RangeRHS ranges the right-hand side of row around the solve that
// just ran through ws on m. It returns the interval [lo, hi] of that
// right-hand side over which the solve's final basis stays primal
// feasible, and so optimal (its reduced costs do not depend on the
// right-hand sides), and for each of vars its value x0 at the solved
// right-hand side and its slope dx per unit of it: anywhere in the
// interval, that basis's optimum is x0 + (rhs' − rhs)·dx. It costs one
// Ftran of e_row against the live factors.
//
// ok is false, and nothing is written, unless the last solve through
// ws was an Optimal solve of m and m still has the structure and the
// row's right-hand side that solve saw; the caller must not have
// edited m's bounds or costs since either. An end is infinite when no
// basic variable reaches a bound in that direction; a slope of at most
// slopeNoise counts as zero. Each basic value may pass its bound by
// rangeSlack, and one that ended the solve already past a bound
// (within the solver's tolerance) is measured from where it stands, so
// lo <= rhs <= hi always holds.
func (ws *Workspace) RangeRHS(m *Model, row int, vars []VarID, x0, dx []float64) (lo, hi float64, ok bool) {
	s := &ws.s
	if !ws.lastOptimal || ws.lastModel != m || ws.lastVersion != m.structVersion ||
		ws.lastSeq != ws.seq || row < 0 || row >= s.m || !sameFloat(m.rows[row].rhs, s.b[row]) {
		return 0, 0, false
	}
	// w = B⁻¹e_row: d x_B / d rhs, by basis position.
	ws.unitCol[0] = centry{row: row, coef: 1}
	ws.f.ftranCol(ws.unitCol[:], &s.rho)
	w := s.rho.v

	ws.rangeDx = grow(ws.rangeDx, s.nStruct)
	slope := ws.rangeDx
	for j := range slope {
		slope[j] = 0
	}
	up, down := math.Inf(1), math.Inf(1)
	for _, p := range s.rho.idx {
		wp := w[p]
		if math.Abs(wp) <= slopeNoise {
			continue
		}
		j := s.basis[p]
		if j < s.nStruct {
			slope[j] = wp
		}
		v := s.xB[p]
		toHi := math.Max(s.hi[j]-v, 0) + rangeSlack
		toLo := math.Max(v-s.lo[j], 0) + rangeSlack
		if wp > 0 {
			up = math.Min(up, toHi/wp)
			down = math.Min(down, toLo/wp)
		} else {
			up = math.Min(up, toLo/-wp)
			down = math.Min(down, toHi/-wp)
		}
	}
	for k, v := range vars {
		x0[k] = ws.x[v]
		dx[k] = slope[v]
	}
	rhs := s.b[row]
	return rhs - down, rhs + up, true
}
