package lp

import "math"

// adoptEdited installs a basis captured before structural edits into
// the prepared solver (see Basis). Surviving columns and rows are
// matched by their stable keys, which ascend in index order on both
// sides, so one merge walk maps the captured layout onto the current
// one. The captured point is kept: surviving structurals keep their
// captured values (the nonbasic ones at the bound nearest it), each
// basic slack, and each new row's slack, takes the residual that point
// leaves its row, and when there are more basic candidates than rows
// those strictly inside their bounds are kept first. A removed column
// takes its rows with it (see Model.RemoveVars), so the point stays
// feasible for the rows that survive. An interior column the basis
// cannot hold is not rested, which would move the point, but crossed
// over (see crossover). The assembled basis is factored once, by a
// rank-revealing factorization that replaces the columns it cannot
// pivot (see factorize and replaceDependent), so the carry fails only
// when the snapshot's own sizes disagree, and returns false then. Its
// scratch lives in the Workspace.
func (s *solver) adoptEdited(m *Model, b *Basis, ws *Workspace) bool {
	// Captured layout: structurals, one slack per inequality row, one
	// artificial per row.
	nS0, m0 := len(b.colKey), len(b.rowIDs)
	art0 := nS0
	for _, id := range b.rowIDs {
		if !id.eq() {
			art0++
		}
	}
	if len(b.stat) != art0+m0 || len(b.basis) != m0 || len(b.x) != nS0 {
		return false
	}
	sc := &ws.carry
	sc.mp = grow(sc.mp, art0+m0)
	mp := sc.mp
	for c := range mp {
		mp[c] = -1
	}
	sc.rowSlack = grow(sc.rowSlack, s.m)
	rowSlack := sc.rowSlack
	sc.newRows, sc.cross = sc.newRows[:0], sc.cross[:0]

	// Every column starts where a cold start would rest it; the merge
	// walks below overwrite the survivors.
	for j := 0; j < s.artStart; j++ {
		s.rest(j, 0)
	}
	for j := s.artStart; j < s.nTotal; j++ {
		s.stat[j] = atLower
	}
	j := 0
	for c, key := range b.colKey {
		for j < s.nStruct && m.colKey[j] < key {
			j++
		}
		if j < s.nStruct && m.colKey[j] == key {
			mp[c] = int32(j)
			j++
		}
	}
	slack := s.nStruct
	for r, id := range m.rowIDs {
		rowSlack[r] = -1
		if !id.eq() {
			rowSlack[r] = slack
			slack++
		}
		s.cols.unit(s.artStart + r).coef = 1
	}
	i, slack0 := 0, nS0 // captured row, and its slack column
	for r, id := range m.rowIDs {
		for ; i < m0 && b.rowIDs[i] < id; i++ {
			if !b.rowIDs[i].eq() {
				slack0++
			}
		}
		if i == m0 || b.rowIDs[i] != id {
			// Grows to the most rows one edit adds, then is reused.
			sc.newRows = append(sc.newRows, r)
			continue
		}
		mp[art0+i] = int32(s.artStart + r)
		s.cols.unit(s.artStart + r).coef = float64(b.artSign[i])
		if !id.eq() {
			mp[slack0] = int32(rowSlack[r])
			slack0++
		}
		i++
	}
	for c, st := range b.stat {
		if st != basic && mp[c] >= 0 {
			s.stat[mp[c]] = st
		}
	}
	s.restNonbasics()

	// The basic candidates, and the captured point: structurals from
	// the capture (a bound edit since then must not move a nonbasic
	// one), slacks from their row's residual, artificials at zero.
	for c, st := range b.stat {
		if st == basic && mp[c] >= 0 {
			s.stat[mp[c]] = basic
		}
	}
	for _, r := range sc.newRows {
		if u := rowSlack[r]; u >= 0 {
			s.stat[u] = basic
		}
	}
	for c, v := range b.x {
		if j := mp[c]; j >= 0 {
			if s.stat[j] == basic {
				s.xN[j] = v
			} else {
				s.rest(int(j), v)
			}
		}
	}
	for r, rw := range m.rows {
		if a := s.artStart + r; s.stat[a] == basic {
			s.xN[a] = 0
		}
		if u := rowSlack[r]; u >= 0 && s.stat[u] == basic {
			v := rw.rhs
			for _, t := range rw.terms {
				v -= t.Coef * s.xN[t.Var]
			}
			s.xN[u] = v * s.cols.unit(u).coef
		}
	}

	n := 0
	for pass := 0; pass < 2; pass++ {
		for j := 0; j < s.nTotal; j++ {
			if s.stat[j] != basic || s.interior(j) != (pass == 0) {
				continue
			}
			if n == s.m {
				s.park(sc, j)
				continue
			}
			s.basis[n] = j
			n++
		}
	}
	for p := n; p < s.m; p++ {
		s.basis[p] = -1
	}
	// One rank-revealing factorization: a position left empty, or
	// holding a column dependent on the others (removed rows can make
	// two columns equal), gets the unit column of a row left uncovered.
	unit := rowSlack
	for r, u := range unit {
		if u < 0 {
			unit[r] = s.artStart + r
		}
	}
	pos, rows, ok := ws.f.factorize(s.basis[:s.m], s.cols, unit)
	if !ok {
		return false
	}
	sc.empty, sc.replaced = s.m-n, len(pos)
	s.refactors++
	if len(pos) > 0 {
		s.replaceDependent(ws, pos, rows, unit)
	}
	s.recomputeBasics()
	if len(sc.cross) > 0 {
		s.crossover(sc.cross)
		// A crossover pivot rests its leaving column at a bound even
		// when that column sat outside its bounds (a bound edit moved
		// them), which the incremental update does not see: recompute
		// x_B from the nonbasic values before the start is classified.
		s.recomputeBasics()
	}
	return true
}

// carryScratch is adoptEdited's per-edit scratch, kept in the
// Workspace so a chain of structural edits reuses it.
type carryScratch struct {
	mp       []int32 // captured column -> current, -1 once removed
	rowSlack []int   // current row -> its slack, -1 for an equality; then its unit column
	newRows  []int   // rows with no captured counterpart
	back     []int   // interior columns the LU dropped (replaceDependent)
	cross    []int   // interior columns left nonbasic, for crossover
	// What the last carry's factorization met: positions left empty,
	// and positions it replaced (the empty ones included).
	empty, replaced int
}

// park makes column j nonbasic: at the bound nearest its value when it
// sits at (or beyond) one, and otherwise where it is, queued for
// crossover.
func (s *solver) park(sc *carryScratch, j int) {
	if !s.interior(j) {
		s.rest(j, s.xN[j])
		return
	}
	s.stat[j] = atLower // nonbasic at its interior value until crossover
	// Grows to the most columns one edit parks, then is reused.
	sc.cross = append(sc.cross, j)
}

// crossover moves each listed column from its interior value to the
// bound rest would choose, keeping the point feasible: a primal ratio
// test over the basic rows either lets it reach that bound, where it
// rests, or names the basic column that blocks it first, which leaves
// at its own bound as the listed column pivots in (a step along an
// edge of the feasible set, as a simplex pivot takes). Requires x_B
// for the basis with the listed columns at their interior values.
func (s *solver) crossover(cols []int) {
	for _, j := range cols {
		// rest names the bound and the status j takes there; j stays
		// at v until the step below moves it.
		v := s.xN[j]
		s.rest(j, v)
		target := s.xN[j]
		sigma, span := 1.0, target-v
		if span < 0 {
			sigma, span = -1, -span
		}
		s.xN[j] = v
		s.ftran(j)
		t, r := s.rowLimit(sigma, span)
		if r < 0 {
			s.xN[j] = target
			for _, i := range s.w.idx {
				s.xB[i] -= sigma * span * s.w.v[i]
			}
			continue
		}
		leaveStat := atUpper
		if sigma*s.w.v[r] > 0 {
			leaveStat = atLower
		}
		s.pivot(j, sigma, t, r, leaveStat)
	}
}

// replaceDependent makes the basis what factorize factored: each
// position it names gets the unit column of its uncovered row, basic.
// The point is kept when every column replaced sits at a bound, which
// the unit columns, nonbasic until now, also do. An interior column
// replaced (the peel can pivot an at-bound column first) is brought
// back by a basis exchange against a position that holds a column at
// a bound; the factor absorbs each exchange as an update. Such a
// position exists while the interior columns are independent, as a
// vertex's are. Removed rows can make them dependent (two columns may
// have differed only there), and an interior column with no position
// left, or whose exchange the update refuses, is parked for crossover.
func (s *solver) replaceDependent(ws *Workspace, pos, rows []int32, unit []int) {
	sc := &ws.carry
	sc.back = sc.back[:0]
	for k, p := range pos {
		if j := s.basis[p]; j >= 0 {
			if s.interior(j) {
				// Grows to the most columns one carry replaces, then is
				// reused.
				sc.back = append(sc.back, j)
				s.stat[j] = atLower // nonbasic until it is brought back
			} else {
				s.rest(j, s.xN[j])
			}
		}
		u := unit[rows[k]]
		s.basis[p], s.stat[u] = u, basic
	}
	for _, j := range sc.back {
		s.ftran(j)
		p, best := -1, dualPivotTol
		for _, r := range s.w.idx {
			if w := math.Abs(s.w.v[r]); w > best && !s.interior(s.basis[r]) {
				p, best = int(r), w
			}
		}
		if p < 0 || !ws.f.update(p) {
			s.park(sc, j)
			continue
		}
		leave := s.basis[p]
		s.rest(leave, s.xN[leave])
		s.basis[p], s.stat[j] = j, basic
	}
}

// interior reports whether column j's value lies strictly inside its
// bounds.
func (s *solver) interior(j int) bool {
	return s.xN[j] > s.lo[j]+s.tol && s.xN[j] < s.hi[j]-s.tol
}

// rest makes column j nonbasic at its finite bound nearest v, or free
// at zero when it has none.
func (s *solver) rest(j int, v float64) {
	lo, hi := s.lo[j], s.hi[j]
	switch {
	case lo > math.Inf(-1) && (math.IsInf(hi, 1) || v-lo <= hi-v):
		s.stat[j], s.xN[j] = atLower, lo
	case !math.IsInf(hi, 1):
		s.stat[j], s.xN[j] = atUpper, hi
	default:
		s.stat[j], s.xN[j] = nonbasicFree, 0
	}
}
