package lp

import "math"

// factor maintains the basis inverse as a sparse LU factorization of
// the basis at the last refactorization with a product-form eta file
// on top:
//
//	B^-1 = E_k · ... · E_1 · B0^-1,   P·B0·Q = L·U
//
// factorize peels B0's column singletons (slack and artificial unit
// columns, and structurals touching one remaining row) into the upper
// triangle, then its row singletons into the lower one, and LU-factors
// only the remaining bump densely with partial pivoting. LP bases are
// nearly triangular, so the bump is small and Ftran/Btran are sparse
// triangular solves costing O(m + nnz(L) + nnz(U)). Each eta matrix E
// records one pivot made since, as the sparse spike w = B^-1 A_enter
// it eliminated, so a pivot costs O(nnz(w)); the eta file is folded
// into a fresh LU once it outgrows the factors (see solver.etaBudget)
// or the drift-control pivot counter fires (see solver.refactorEvery).
//
// All storage is flat and reused (the factors, the eta arenas, the
// refactorization scratch), so a Workspace can replay thousands of
// solves without allocating.
type factor struct {
	m int
	// lu holds B0's factors; factorize builds into spare and swaps,
	// so a singular basis leaves lu untouched.
	lu, spare luFactors
	// lu's U again by columns, for the scatter form of Ftran: column k
	// holds the entries of earlier pivots at basis position
	// lu.pivCol[k], as (the pivot's constraint row ucRow, ucVal) in
	// [ucOff[k], ucOff[k+1]).
	ucOff []int32
	ucRow []int32
	ucVal []float64
	// Eta file: eta e pivots on row etaRow[e] with pivot value
	// etaPiv[e]; its off-pivot nonzeros are etaIdx/etaVal in
	// [etaOff[e], etaOff[e+1]).
	etaRow []int32
	etaPiv []float64
	etaOff []int32
	etaIdx []int32
	etaVal []float64
	// pivotsSince counts pivots since the last refactorization (drift
	// control, carried across warm solves sharing this factor).
	pivotsSince int
	// peels counts the factorizations begun, failed ones included.
	peels int
	// work is the length-m vector the triangular solves run in.
	work []float64
	sc   luScratch
}

// luFactors is P·B0·Q = L·U in pivot order. Pivot k sits at
// constraint row pivRow[k] and basis position pivCol[k] with value
// pivVal[k]. Row k of U holds its off-diagonal entries as (basis
// position uIdx, uVal) in [uOff[k], uOff[k+1]). L is unit lower
// triangular and only its non-empty columns are stored, in pivot
// order: column e belongs to the pivot on constraint row lRow[e] and
// holds the multipliers (constraint row lIdx, lVal) in
// [lOff[e], lOff[e+1]).
type luFactors struct {
	pivRow []int32
	pivCol []int32
	pivVal []float64
	uOff   []int32
	uIdx   []int32
	uVal   []float64
	lRow   []int32
	lOff   []int32
	lIdx   []int32
	lVal   []float64
}

// luScratch is factorize's working storage: B0 by rows, the active
// counts and pivot positions of the peel, and the dense bump.
type luScratch struct {
	rowOff, rowIdx []int32
	rowVal         []float64
	rowCnt, colCnt []int32
	rowPos, colPos []int32 // pivot index, -1 while active
	stack          []int32
	bumpRow        []int32 // bump row t's constraint row
	bumpCol        []int32 // bump column t's basis position
	bumpIdx        []int32 // pivot t's bump column
	bumpOf         []int32 // constraint row -> bump row
	bump           []float64
}

func (f *factor) clearEtas() {
	f.etaRow = f.etaRow[:0]
	f.etaPiv = f.etaPiv[:0]
	// The first clear allocates the one-element offset slice; later
	// clears reuse it.
	f.etaOff = append(f.etaOff[:0], 0)
	f.etaIdx = f.etaIdx[:0]
	f.etaVal = f.etaVal[:0]
}

// nnz returns the eta-file size (off-pivot nonzeros), the quantity the
// refactorization budget bounds.
func (f *factor) nnz() int { return len(f.etaVal) }

// luNnz returns the work one triangular solve pass costs: a step per
// pivot plus the off-diagonal nonzeros of L and U.
func (f *factor) luNnz() int { return f.m + len(f.lu.uVal) + len(f.lu.lVal) }

// appendEta records the pivot (w, leaveRow): the next B^-1 is E·B^-1
// with E built from spike w. Only the spike's nonzeros are stored.
func (f *factor) appendEta(w []float64, leaveRow int) {
	// Eta arenas grow to the between-refactorization high-water mark, then are
	// truncated in place.
	f.etaRow = append(f.etaRow, int32(leaveRow))
	f.etaPiv = append(f.etaPiv, w[leaveRow])
	for i, wi := range w {
		if i == leaveRow || isZero(wi) {
			continue
		}
		f.etaIdx = append(f.etaIdx, int32(i))
		f.etaVal = append(f.etaVal, wi)
	}
	f.etaOff = append(f.etaOff, int32(len(f.etaVal)))
	f.pivotsSince++
}

// applyEtas runs the eta file forward over v (the Ftran direction):
// for each eta, t = v[r]/piv; v[i] -= w_i·t; v[r] = t.
func (f *factor) applyEtas(v []float64) {
	for e := 0; e < len(f.etaRow); e++ {
		r := f.etaRow[e]
		vr := v[r]
		if isZero(vr) {
			continue
		}
		t := vr / f.etaPiv[e]
		for k := f.etaOff[e]; k < f.etaOff[e+1]; k++ {
			v[f.etaIdx[k]] -= f.etaVal[k] * t
		}
		v[r] = t
	}
}

// solve sets out = B0^-1 c: c is indexed by constraint row and is
// consumed, out by basis position. L runs forward by columns and U
// backward by columns, each skipping zero multiplicands, so a sparse
// solve costs little more than a pass over the pivots.
func (f *factor) solve(c, out []float64) {
	lu := &f.lu
	for e, r := range lu.lRow {
		t := c[r]
		if isZero(t) {
			continue
		}
		for k := lu.lOff[e]; k < lu.lOff[e+1]; k++ {
			c[lu.lIdx[k]] -= lu.lVal[k] * t
		}
	}
	for k := len(lu.pivRow) - 1; k >= 0; k-- {
		t := c[lu.pivRow[k]]
		if isZero(t) {
			out[lu.pivCol[k]] = 0
			continue
		}
		t /= lu.pivVal[k]
		out[lu.pivCol[k]] = t
		for u := f.ucOff[k]; u < f.ucOff[k+1]; u++ {
			c[f.ucRow[u]] -= f.ucVal[u] * t
		}
	}
}

// solveT sets y = B0^-T y in place: y comes in indexed by basis
// position and leaves indexed by constraint row; work (length m) holds
// the input while Uᵀ runs forward by rows, then Lᵀ runs backward by
// columns.
func (lu *luFactors) solveT(y, work []float64) {
	copy(work, y)
	for k, col := range lu.pivCol {
		g := work[col] / lu.pivVal[k]
		y[lu.pivRow[k]] = g
		if isZero(g) {
			continue
		}
		for u := lu.uOff[k]; u < lu.uOff[k+1]; u++ {
			work[lu.uIdx[u]] -= lu.uVal[u] * g
		}
	}
	for e := len(lu.lRow) - 1; e >= 0; e-- {
		s := y[lu.lRow[e]]
		for k := lu.lOff[e]; k < lu.lOff[e+1]; k++ {
			s -= lu.lVal[k] * y[lu.lIdx[k]]
		}
		y[lu.lRow[e]] = s
	}
}

// ftranCol computes out = B^-1 A_j for column col of the sparse
// column store.
func (f *factor) ftranCol(col []centry, out []float64) {
	c := f.work[:f.m]
	for i := range c {
		c[i] = 0
	}
	for _, e := range col {
		c[e.row] = e.coef
	}
	f.solve(c, out)
	f.applyEtas(out)
}

// ftranDense computes v = B^-1 v in place for a dense v.
func (f *factor) ftranDense(v []float64) {
	c := f.work[:f.m]
	copy(c, v)
	f.solve(c, v)
	f.applyEtas(v)
}

// btran computes y = yᵀ B^-1 in place: the eta file runs in reverse
// (each eta adjusts only y[r]), then B0's factors apply transposed.
func (f *factor) btran(y []float64) {
	for e := len(f.etaRow) - 1; e >= 0; e-- {
		r := f.etaRow[e]
		s := y[r]
		for k := f.etaOff[e]; k < f.etaOff[e+1]; k++ {
			s -= y[f.etaIdx[k]] * f.etaVal[k]
		}
		y[r] = s / f.etaPiv[e]
	}
	f.lu.solveT(y, f.work[:f.m])
}

// refactorize rebuilds the LU factors of the basis whose position p
// holds column basis[p] of cs, wiping the eta file and accumulated
// floating-point drift. Returns false (leaving the factor untouched)
// when the basis matrix is numerically singular.
func (f *factor) refactorize(basis []int, cs *colStore) bool {
	_, _, ok := f.factorize(basis, cs, nil)
	return ok
}

// factorize is refactorize made rank-revealing. Column singletons are
// pivoted first (each leaves the rest of the matrix untouched and adds
// one row to U), then row singletons (each adds one column to L), and
// what neither peel reaches is factored densely with partial pivoting,
// column by column. With unit nil a column left with no usable pivot
// fails the factorization, as refactorize promises. Otherwise such a
// column, and a position holding -1 (an empty column), is replaced in
// the same pass by the unit column unit[r] of a row r no pivot covered
// (its slack, or for an equality its artificial). A unit column of an
// uncovered row has no entry in any pivoted row, so it needs no L or U
// fill and goes in as a trailing pivot, once the peel's U entries at
// the replaced positions are dropped. It returns the replaced basis
// positions and the uncovered rows given to them, pos[k] getting
// unit[rows[k]]; the factors describe the basis with those
// replacements made, so the caller must make them too. Both slices
// alias scratch valid until the next factorization. ok is false only
// in strict mode.
func (f *factor) factorize(basis []int, cs *colStore, unit []int) (pos, rows []int32, ok bool) {
	f.peels++
	k, ok := f.peel(basis, cs, unit == nil)
	if !ok {
		return nil, nil, false
	}
	if pos, rows, ok = f.factorBump(basis, cs, unit, k); !ok {
		return nil, nil, false
	}
	f.lu, f.spare = f.spare, f.lu
	f.columnsU(f.sc.colPos)
	f.m = len(basis)
	f.work = grow(f.work, f.m)
	f.clearEtas()
	f.pivotsSince = 0
	return pos, rows, true
}

// peel starts a factorization into f.spare: it lays B0 out by rows
// and pivots its column singletons, then its row singletons, and
// returns how many pivots it made. A singleton whose entry is too
// small a pivot fails the peel when strict and is otherwise left to
// the bump.
func (f *factor) peel(basis []int, cs *colStore, strict bool) (k int, ok bool) {
	m := len(basis)
	sc := &f.sc
	lu := &f.spare
	lu.reset(m)

	// B0 by rows, with active counts.
	sc.rowOff = grow(sc.rowOff, m+1)
	sc.rowCnt = grow(sc.rowCnt, m)
	sc.colCnt = grow(sc.colCnt, m)
	sc.rowPos = grow(sc.rowPos, m)
	sc.colPos = grow(sc.colPos, m)
	for i := 0; i < m; i++ {
		sc.rowCnt[i], sc.rowPos[i], sc.colPos[i] = 0, -1, -1
	}
	nnz := 0
	for p, bj := range basis {
		col := cs.basisCol(bj)
		sc.colCnt[p] = int32(len(col))
		nnz += len(col)
		for _, e := range col {
			sc.rowCnt[e.row]++
		}
	}
	sc.rowOff[0] = 0
	for i := 0; i < m; i++ {
		sc.rowOff[i+1] = sc.rowOff[i] + sc.rowCnt[i]
	}
	sc.rowIdx = grow(sc.rowIdx, nnz)
	sc.rowVal = grow(sc.rowVal, nnz)
	sc.stack = grow(sc.stack, m)
	fill := sc.stack
	copy(fill, sc.rowOff[:m])
	for p, bj := range basis {
		for _, e := range cs.basisCol(bj) {
			sc.rowIdx[fill[e.row]] = int32(p)
			sc.rowVal[fill[e.row]] = e.coef
			fill[e.row]++
		}
	}

	// Column singletons: pivot on the one active entry; the row leaves,
	// so the other columns it touches each lose an active entry.
	kk := int32(0)
	stack := sc.stack[:0]
	for p := 0; p < m; p++ {
		if sc.colCnt[p] == 1 {
			// Pushes fill the length-m stack carved above; each column is
			// pushed at most once.
			stack = append(stack, int32(p))
		}
	}
	for len(stack) > 0 {
		p := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if sc.colCnt[p] != 1 {
			continue // its active row went to another column: a zero column the bump rejects
		}
		row, v := -1, 0.0
		for _, e := range cs.basisCol(basis[p]) {
			if sc.rowPos[e.row] < 0 {
				row, v = e.row, e.coef
				break
			}
		}
		if tinyPivot(v, cs.colScale(basis[p])) {
			if strict {
				return 0, false
			}
			continue
		}
		sc.rowPos[row], sc.colPos[p] = kk, kk
		lu.pushPivot(int32(row), p, v)
		for q := sc.rowOff[row]; q < sc.rowOff[row+1]; q++ {
			c := sc.rowIdx[q]
			if sc.colPos[c] >= 0 {
				continue
			}
			lu.pushU(c, sc.rowVal[q])
			sc.colCnt[c]--
			if sc.colCnt[c] == 1 {
				stack = append(stack, c)
			}
		}
		lu.endU()
		kk++
	}

	// Row singletons: the pivot's row has no other active entry, so
	// eliminating its column fills nothing; the column's other active
	// entries become L multipliers.
	for i := 0; i < m; i++ {
		if sc.rowPos[i] < 0 && sc.rowCnt[i] == 1 {
			// Pushes fill the length-m stack carved above; each row is pushed
			// at most once.
			stack = append(stack, int32(i))
		}
	}
	for len(stack) > 0 {
		row := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if sc.rowCnt[row] != 1 {
			continue // its active column went to another row: a zero row the bump rejects
		}
		p, v := int32(-1), 0.0
		for q := sc.rowOff[row]; q < sc.rowOff[row+1]; q++ {
			if sc.colPos[sc.rowIdx[q]] < 0 {
				p, v = sc.rowIdx[q], sc.rowVal[q]
				break
			}
		}
		if tinyPivot(v, cs.colScale(basis[p])) {
			if strict {
				return 0, false
			}
			continue
		}
		sc.rowPos[row], sc.colPos[p] = kk, kk
		lu.pushPivot(row, p, v)
		lu.endU()
		lu.beginL(row)
		for _, e := range cs.basisCol(basis[p]) {
			if sc.rowPos[e.row] >= 0 {
				continue
			}
			lu.pushL(e.row, e.coef/v)
			sc.rowCnt[e.row]--
			if sc.rowCnt[e.row] == 1 {
				stack = append(stack, int32(e.row))
			}
		}
		lu.endL()
		kk++
	}
	sc.stack = stack
	return int(kk), true
}

// pivotTol is the smallest pivot a factorization accepts, relative to
// the largest entry of the pivot's basis column; below it the column
// counts as dependent on the ones already pivoted.
const pivotTol = 1e-11

// tinyPivot reports whether v is too small a pivot for a column whose
// largest |coefficient| is scale.
func tinyPivot(v, scale float64) bool {
	return math.Abs(v) <= pivotTol*scale
}

// factorBump factors the rows and columns the peel left active
// (pivots k..m-1) and appends the factors to f.spare (see factorize).
// Columns the peel left without an active entry, and rows likewise,
// are set aside outright; the rest is eliminated densely, column by
// column with partial pivoting, as a rectangle whose pivot-less
// columns are skipped. L multipliers are stored in place below each
// pivot, and the U row of a pivot keeps only the columns pivoted after
// it.
func (f *factor) factorBump(basis []int, cs *colStore, unit []int, k int) (pos, rows []int32, ok bool) {
	sc := &f.sc
	lu := &f.spare
	m := len(basis)
	nb := m - k
	if nb == 0 {
		return nil, nil, true
	}
	sc.bumpRow = grow(sc.bumpRow, nb)
	sc.bumpCol = grow(sc.bumpCol, nb)
	sc.bumpIdx = grow(sc.bumpIdx, nb)
	sc.bumpOf = grow(sc.bumpOf, m)
	pos = sc.stack[:0]
	nc := 0
	for p := 0; p < m; p++ {
		switch {
		case sc.colPos[p] >= 0:
		case sc.colCnt[p] == 0:
			if unit == nil {
				return nil, nil, false
			}
			// The length-m stack carved by peel holds at most one entry per
			// bump column.
			pos = append(pos, int32(p))
		default:
			sc.bumpCol[nc] = int32(p)
			nc++
		}
	}
	nr, back := 0, nb
	for i := 0; i < m; i++ {
		switch {
		case sc.rowPos[i] >= 0:
		case sc.rowCnt[i] == 0:
			if unit == nil {
				return nil, nil, false
			}
			back--
			sc.bumpRow[back] = int32(i)
		default:
			sc.bumpRow[nr], sc.bumpOf[i] = int32(i), int32(nr)
			nr++
		}
	}
	a := grow(sc.bump, nr*nc)
	sc.bump = a
	for i := range a {
		a[i] = 0
	}
	for c, p := range sc.bumpCol[:nc] {
		for _, e := range cs.basisCol(basis[p]) {
			if sc.rowPos[e.row] < 0 {
				a[int(sc.bumpOf[e.row])*nc+c] = e.coef
			}
		}
	}
	// Pivot t sits in bump row t and rectangle column bumpIdx[t].
	rank := 0
	for c := 0; c < nc; c++ {
		piv := rank
		for r := rank + 1; r < nr; r++ {
			if math.Abs(a[r*nc+c]) > math.Abs(a[piv*nc+c]) {
				piv = r
			}
		}
		if rank == nr || tinyPivot(a[piv*nc+c], cs.colScale(basis[sc.bumpCol[c]])) {
			if unit == nil {
				return nil, nil, false
			}
			pos = append(pos, sc.bumpCol[c])
			continue
		}
		if piv != rank {
			for j := 0; j < nc; j++ {
				a[piv*nc+j], a[rank*nc+j] = a[rank*nc+j], a[piv*nc+j]
			}
			sc.bumpRow[piv], sc.bumpRow[rank] = sc.bumpRow[rank], sc.bumpRow[piv]
		}
		d := a[rank*nc+c]
		for r := rank + 1; r < nr; r++ {
			l := a[r*nc+c] / d
			a[r*nc+c] = l
			if isZero(l) {
				continue
			}
			for j := c + 1; j < nc; j++ {
				a[r*nc+j] -= l * a[rank*nc+j]
			}
		}
		sc.bumpIdx[rank] = int32(c)
		rank++
	}
	if len(pos) > 0 {
		lu.dropU(k, pos, sc.colPos)
	}
	for t := 0; t < rank; t++ {
		c := int(sc.bumpIdx[t])
		lu.pushPivot(sc.bumpRow[t], sc.bumpCol[c], a[t*nc+c])
		for _, c2 := range sc.bumpIdx[t+1 : rank] {
			if v := a[t*nc+int(c2)]; !isZero(v) {
				lu.pushU(sc.bumpCol[c2], v)
			}
		}
		lu.endU()
		lu.beginL(sc.bumpRow[t])
		for r := t + 1; r < nr; r++ {
			if l := a[r*nc+c]; !isZero(l) {
				lu.pushL(int(sc.bumpRow[r]), l)
			}
		}
		lu.endL()
	}
	rows = sc.bumpRow[rank:nb]
	for q, p := range pos {
		lu.pushPivot(rows[q], p, cs.unit(unit[rows[q]]).coef)
		lu.endU()
	}
	return pos, rows, true
}

// dropU removes the entries at the given basis positions from the U
// rows of the first k pivots. mark holds one value of at least -1 per
// basis position; the listed ones are overwritten with -2.
func (lu *luFactors) dropU(k int, pos []int32, mark []int32) {
	for _, p := range pos {
		mark[p] = -2
	}
	w := int32(0)
	for t := 0; t < k; t++ {
		q0, q1 := lu.uOff[t], lu.uOff[t+1]
		lu.uOff[t] = w
		for q := q0; q < q1; q++ {
			if mark[lu.uIdx[q]] != -2 {
				lu.uIdx[w], lu.uVal[w] = lu.uIdx[q], lu.uVal[q]
				w++
			}
		}
	}
	lu.uOff[k] = w
	lu.uIdx, lu.uVal = lu.uIdx[:w], lu.uVal[:w]
}

// columnsU copies the live factors' U by columns (see ucOff). at
// (one entry per basis position) is clobbered.
func (f *factor) columnsU(at []int32) {
	lu := &f.lu
	n := len(lu.pivRow)
	for k, p := range lu.pivCol {
		at[p] = int32(k)
	}
	f.ucOff = grow(f.ucOff, n+1)
	for k := range f.ucOff {
		f.ucOff[k] = 0
	}
	for _, p := range lu.uIdx {
		f.ucOff[at[p]+1]++
	}
	for k := 0; k < n; k++ {
		f.ucOff[k+1] += f.ucOff[k]
	}
	f.ucRow = grow(f.ucRow, len(lu.uIdx))
	f.ucVal = grow(f.ucVal, len(lu.uIdx))
	// Fill with ucOff[k] as column k's cursor, then shift the cursors,
	// each left at the next column's start, back into offsets.
	for t := 0; t < n; t++ {
		for u := lu.uOff[t]; u < lu.uOff[t+1]; u++ {
			k := at[lu.uIdx[u]]
			f.ucRow[f.ucOff[k]], f.ucVal[f.ucOff[k]] = lu.pivRow[t], lu.uVal[u]
			f.ucOff[k]++
		}
	}
	copy(f.ucOff[1:], f.ucOff[:n])
	f.ucOff[0] = 0
}

// reset empties the factors for a basis of m rows, keeping storage.
func (lu *luFactors) reset(m int) {
	lu.pivRow = grow(lu.pivRow, m)[:0]
	lu.pivCol = grow(lu.pivCol, m)[:0]
	lu.pivVal = grow(lu.pivVal, m)[:0]
	lu.uOff = grow(lu.uOff, m+1)[:1]
	lu.uOff[0] = 0
	lu.uIdx = lu.uIdx[:0]
	lu.uVal = lu.uVal[:0]
	lu.lRow = lu.lRow[:0]
	lu.lOff = grow(lu.lOff, 1)[:1]
	lu.lOff[0] = 0
	lu.lIdx = lu.lIdx[:0]
	lu.lVal = lu.lVal[:0]
}

func (lu *luFactors) pushPivot(row, col int32, v float64) {
	// Pivot arrays are carved to length m by reset.
	lu.pivRow = append(lu.pivRow, row)
	lu.pivCol = append(lu.pivCol, col)
	lu.pivVal = append(lu.pivVal, v)
}

func (lu *luFactors) pushU(col int32, v float64) {
	// Factor arenas grow to the largest factorization's fill, then are
	// truncated in place.
	lu.uIdx = append(lu.uIdx, col)
	lu.uVal = append(lu.uVal, v)
}

// endU closes the current pivot's row of U.
func (lu *luFactors) endU() {
	// Row offsets are carved to length m+1 by reset.
	lu.uOff = append(lu.uOff, int32(len(lu.uIdx)))
}

// beginL opens an L column for the pivot on constraint row row;
// endL drops it again if no multiplier was pushed.
func (lu *luFactors) beginL(row int32) {
	// Factor arenas grow to the largest factorization's fill, then are
	// truncated in place.
	lu.lRow = append(lu.lRow, row)
}

func (lu *luFactors) pushL(row int, l float64) {
	// Factor arenas grow to the largest factorization's fill, then are
	// truncated in place.
	lu.lIdx = append(lu.lIdx, int32(row))
	lu.lVal = append(lu.lVal, l)
}

func (lu *luFactors) endL() {
	n := int32(len(lu.lIdx))
	if n == lu.lOff[len(lu.lOff)-1] {
		lu.lRow = lu.lRow[:len(lu.lRow)-1]
		return
	}
	// Factor arenas grow to the largest factorization's fill, then are
	// truncated in place.
	lu.lOff = append(lu.lOff, n)
}

// grow returns a slice of length n, reusing buf's storage when it is
// large enough and zeroing nothing. A regrown array gets some headroom
// (see headroom).
func grow[T any](buf []T, n int) []T {
	if cap(buf) >= n {
		return buf[:n]
	}
	// Buffers grow to the high-water mark and are retained by their owner.
	return make([]T, n, headroom(cap(buf), n))
}

// headroom is the capacity a buffer that must hold n elements is
// allocated with, given its old capacity: exactly n the first time,
// and a sixteenth more when it regrows, so a size that creeps up from
// solve to solve (a sliding window's model) reallocates once in a
// while rather than at every new high-water mark.
func headroom(old, n int) int {
	if old == 0 {
		return n
	}
	return n + n/16 + 16
}
