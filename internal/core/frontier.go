package core

import (
	"slices"

	"prospector/internal/lp"
	"prospector/internal/obs"
)

// frontier is one LP planner's budget frontier, filled lazily. Between
// two edits of the model only the budget row's right-hand side moves,
// and the optimum is piecewise linear in it: each optimal basis stays
// optimal over an interval of budgets, over which x moves along one
// line. A piece is such an interval with x at a reference right-hand
// side and its slope, kept only for the variables the program's round
// reads (program.support). A budget inside a known piece is served by
// interpolation, with no solve; every other budget is a miss, whose
// solve adds its basis's piece (see paramLP.Plan).
//
// Intervals are in right-hand-side units (budget − fixed), the units
// the solve sets, so a budget interpolates at exactly the point its
// solve would have set. No piece contains another, so both ends rise
// with the index and the last piece starting at or below a point is
// the only one that can hold it.
type frontier struct {
	pieces []piece
	// vals holds each piece's x0 and dx, len(vars) each, at its off.
	vals []float64
	// vars is the program's support, fixed until the next clear.
	vars []lp.VarID
	// x is the model-length point a hit writes the support into; the
	// other entries are never read.
	x []float64
}

// piece is one basis's interval [lo, hi] of the budget row's
// right-hand side, and the right-hand side ref its x0 was solved at.
type piece struct {
	lo, hi, ref float64
	off         int
}

// The core.plan span's frontier field.
var (
	frontierHit  = obs.FStr("frontier", "hit")
	frontierMiss = obs.FStr("frontier", "miss")
)

// clear forgets every piece: the model they describe was edited.
func (f *frontier) clear() {
	f.pieces = f.pieces[:0]
	f.vals = f.vals[:0]
	f.vars = f.vars[:0]
}

// lookup interpolates the support at right-hand side r into f.x when
// a known piece holds r.
func (f *frontier) lookup(r float64) ([]float64, bool) {
	// The last piece with lo <= r.
	i, j := 0, len(f.pieces)
	for i < j {
		h := int(uint(i+j) >> 1)
		if f.pieces[h].lo <= r {
			i = h + 1
		} else {
			j = h
		}
	}
	if i == 0 || r > f.pieces[i-1].hi {
		return nil, false
	}
	p := &f.pieces[i-1]
	n := len(f.vars)
	x0, dx := f.vals[p.off:p.off+n], f.vals[p.off+n:p.off+2*n]
	t := r - p.ref
	for k, v := range f.vars {
		f.x[v] = x0[k] + t*dx[k]
	}
	return f.x, true
}

// remember ranges the budget row around the solve that just ran
// through c's workspace and keeps its piece, unless a known piece
// already holds it. Pieces it holds itself are dropped.
func (f *frontier) remember(c *paramLP) {
	if c.budgetRow < 0 {
		return
	}
	if len(f.pieces) == 0 {
		f.vars = c.prog.support(f.vars[:0])
		f.x = slices.Grow(f.x[:0], c.model.NumVars())[:c.model.NumVars()]
	}
	n, off := len(f.vars), len(f.vals)
	f.vals = slices.Grow(f.vals, 2*n)[:off+2*n]
	lo, hi, ok := c.ws.RangeRHS(c.model, c.budgetRow, f.vars, f.vals[off:off+n], f.vals[off+n:])
	if !ok {
		f.vals = f.vals[:off]
		return
	}
	for _, q := range f.pieces {
		if q.lo <= lo && hi <= q.hi {
			f.vals = f.vals[:off]
			return
		}
	}
	f.pieces = slices.DeleteFunc(f.pieces, func(q piece) bool { return lo <= q.lo && q.hi <= hi })
	i := 0
	for i < len(f.pieces) && f.pieces[i].lo < lo {
		i++
	}
	f.pieces = slices.Insert(f.pieces, i, piece{lo: lo, hi: hi, ref: c.model.RHS(c.budgetRow), off: off})
}
