package lp

import "math"

// factor maintains the basis inverse as a sparse LU factorization of
// the basis at the last refactorization with a product-form eta file
// on top:
//
//	B^-1 = E_k · ... · E_1 · B0^-1,   P·B0·Q = L·U
//
// refactorize peels B0's column singletons (slack and artificial unit
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
	// lu holds B0's factors; refactorize builds into spare and swaps,
	// so a singular basis leaves lu untouched.
	lu, spare luFactors
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

// luScratch is refactorize's working storage: B0 by rows, the active
// counts and pivot positions of the peel, and the dense bump.
type luScratch struct {
	rowOff, rowIdx []int32
	rowVal         []float64
	rowCnt, colCnt []int32
	rowPos, colPos []int32 // pivot index, -1 while active
	stack          []int32
	bumpRow        []int32 // bump row t's constraint row
	bumpCol        []int32 // bump column t's basis position
	bumpOf         []int32 // constraint row -> bump row
	bump           []float64
}

func (f *factor) clearEtas() {
	f.etaRow = f.etaRow[:0]
	f.etaPiv = f.etaPiv[:0]
	//alloc:amortized first clear allocates the one-element offset slice; later clears reuse it
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
	//alloc:amortized eta arenas grow to the between-refactorization high-water mark, then are truncated in place
	f.etaRow = append(f.etaRow, int32(leaveRow))
	//alloc:amortized eta arenas grow to the between-refactorization high-water mark, then are truncated in place
	f.etaPiv = append(f.etaPiv, w[leaveRow])
	for i, wi := range w {
		if i == leaveRow || isZero(wi) {
			continue
		}
		//alloc:amortized eta arenas grow to the between-refactorization high-water mark, then are truncated in place
		f.etaIdx = append(f.etaIdx, int32(i))
		//alloc:amortized eta arenas grow to the between-refactorization high-water mark, then are truncated in place
		f.etaVal = append(f.etaVal, wi)
	}
	//alloc:amortized eta arenas grow to the between-refactorization high-water mark, then are truncated in place
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
// consumed, out by basis position. L runs forward by columns, skipping
// zero multiplicands; U runs backward by rows.
func (lu *luFactors) solve(c, out []float64) {
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
		s := c[lu.pivRow[k]]
		for u := lu.uOff[k]; u < lu.uOff[k+1]; u++ {
			s -= lu.uVal[u] * out[lu.uIdx[u]]
		}
		out[lu.pivCol[k]] = s / lu.pivVal[k]
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

// ftranCol computes out = B^-1 A_j from the sparse column store.
//
//alloc:none
func (f *factor) ftranCol(col []centry, out []float64) {
	c := f.work[:f.m]
	for i := range c {
		c[i] = 0
	}
	for _, e := range col {
		c[e.row] = e.coef
	}
	f.lu.solve(c, out)
	f.applyEtas(out)
}

// ftranDense computes v = B^-1 v in place for a dense v.
//
//alloc:none
func (f *factor) ftranDense(v []float64) {
	c := f.work[:f.m]
	copy(c, v)
	f.lu.solve(c, v)
	f.applyEtas(v)
}

// btran computes y = yᵀ B^-1 in place: the eta file runs in reverse
// (each eta adjusts only y[r]), then B0's factors apply transposed.
//
//alloc:none
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

// refactorize rebuilds the LU factors from the given basis columns,
// wiping the eta file and accumulated floating-point drift. Column
// singletons are pivoted first (each leaves the rest of the matrix
// untouched and adds one row to U), then row singletons (each adds one
// column to L), and what neither peel reaches is factored densely with
// partial pivoting. Returns false (leaving the factor untouched) when
// the basis matrix is numerically singular.
//
//alloc:none
func (f *factor) refactorize(basis []int, cols [][]centry) bool {
	k, ok := f.peel(basis, cols)
	if !ok || !f.factorBump(basis, cols, k) {
		return false
	}
	f.lu, f.spare = f.spare, f.lu
	f.m = len(basis)
	f.work = growF64(f.work, f.m)
	f.clearEtas()
	f.pivotsSince = 0
	return true
}

// deficiency explains why a basis is singular: it runs refactorize's
// elimination but skips, instead of failing on, each column left with
// no usable pivot, and returns those columns' basis positions together
// with the constraint rows no pivot covered (as many as there are
// skipped columns). A position holding -1 counts as an empty column.
// Putting a unit column of each uncovered row in place of the skipped
// columns makes the basis nonsingular. ok is false when a singleton
// peel meets a tiny pivot. The live factors are left untouched; the
// returned slices alias scratch valid until the next refactorization.
func (f *factor) deficiency(basis []int, cols [][]centry) (pos, rows []int32, ok bool) {
	k, ok := f.peel(basis, cols)
	if !ok {
		return nil, nil, false
	}
	sc := &f.sc
	m := len(basis)
	nb := m - k
	sc.bumpRow = growInt32(sc.bumpRow, nb)
	sc.bumpCol = growInt32(sc.bumpCol, nb)
	sc.bumpOf = growInt32(sc.bumpOf, m)
	// Columns the peel left without an active entry are skipped
	// outright, and rows without one are uncovered outright (packed at
	// the back of bumpRow); only the rest is eliminated densely, as a
	// rectangle no larger than refactorize's bump.
	pos = sc.stack[:0]
	nc := 0
	for p := 0; p < m; p++ {
		switch {
		case sc.colPos[p] >= 0:
		case sc.colCnt[p] == 0:
			pos = append(pos, int32(p)) //alloc:amortized the length-m stack carved by peel holds at most one entry per bump column
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
			back--
			sc.bumpRow[back] = int32(i)
		default:
			sc.bumpRow[nr], sc.bumpOf[i] = int32(i), int32(nr)
			nr++
		}
	}
	a := growF64(sc.bump, nr*nc)
	sc.bump = a
	for i := range a {
		a[i] = 0
	}
	for c, p := range sc.bumpCol[:nc] {
		for _, e := range basisCol(cols, basis[p]) {
			if sc.rowPos[e.row] < 0 {
				a[int(sc.bumpOf[e.row])*nc+c] = e.coef
			}
		}
	}
	rank := 0
	for c := 0; c < nc; c++ {
		piv := rank
		for r := rank + 1; r < nr; r++ {
			if math.Abs(a[r*nc+c]) > math.Abs(a[piv*nc+c]) {
				piv = r
			}
		}
		if rank == nr || tinyPivot(a[piv*nc+c], basisCol(cols, basis[sc.bumpCol[c]])) {
			pos = append(pos, sc.bumpCol[c]) //alloc:amortized the length-m stack carved by peel holds at most one entry per bump column
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
			if l := a[r*nc+c] / d; !isZero(l) {
				for j := c + 1; j < nc; j++ {
					a[r*nc+j] -= l * a[rank*nc+j]
				}
			}
		}
		rank++
	}
	return pos, sc.bumpRow[rank:nb], true
}

// basisCol returns the column at a basis position; -1 (a position
// deficiency is asked to fill) is an empty column.
func basisCol(cols [][]centry, bj int) []centry {
	if bj < 0 {
		return nil
	}
	return cols[bj]
}

// peel starts a factorization into f.spare: it lays B0 out by rows
// and pivots its column singletons, then its row singletons, and
// returns how many pivots it made. ok is false on a tiny pivot.
func (f *factor) peel(basis []int, cols [][]centry) (k int, ok bool) {
	m := len(basis)
	sc := &f.sc
	lu := &f.spare
	lu.reset(m)

	// B0 by rows, with active counts.
	sc.rowOff = growInt32(sc.rowOff, m+1)
	sc.rowCnt = growInt32(sc.rowCnt, m)
	sc.colCnt = growInt32(sc.colCnt, m)
	sc.rowPos = growInt32(sc.rowPos, m)
	sc.colPos = growInt32(sc.colPos, m)
	for i := 0; i < m; i++ {
		sc.rowCnt[i], sc.rowPos[i], sc.colPos[i] = 0, -1, -1
	}
	nnz := 0
	for p, bj := range basis {
		col := basisCol(cols, bj)
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
	sc.rowIdx = growInt32(sc.rowIdx, nnz)
	sc.rowVal = growF64(sc.rowVal, nnz)
	sc.stack = growInt32(sc.stack, m)
	fill := sc.stack
	copy(fill, sc.rowOff[:m])
	for p, bj := range basis {
		for _, e := range basisCol(cols, bj) {
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
			stack = append(stack, int32(p)) //alloc:amortized pushes fill the length-m stack carved above; each column is pushed at most once
		}
	}
	for len(stack) > 0 {
		p := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if sc.colCnt[p] != 1 {
			continue // its active row went to another column: a zero column the bump rejects
		}
		row, v := -1, 0.0
		for _, e := range basisCol(cols, basis[p]) {
			if sc.rowPos[e.row] < 0 {
				row, v = e.row, e.coef
				break
			}
		}
		if tinyPivot(v, basisCol(cols, basis[p])) {
			return 0, false
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
				stack = append(stack, c) //alloc:amortized pushes fill the length-m stack carved above; each column is pushed at most once
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
			stack = append(stack, int32(i)) //alloc:amortized pushes fill the length-m stack carved above; each row is pushed at most once
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
		if tinyPivot(v, basisCol(cols, basis[p])) {
			return 0, false
		}
		sc.rowPos[row], sc.colPos[p] = kk, kk
		lu.pushPivot(row, p, v)
		lu.endU()
		lu.beginL(row)
		for _, e := range basisCol(cols, basis[p]) {
			if sc.rowPos[e.row] >= 0 {
				continue
			}
			lu.pushL(e.row, e.coef/v)
			sc.rowCnt[e.row]--
			if sc.rowCnt[e.row] == 1 {
				stack = append(stack, int32(e.row)) //alloc:amortized pushes fill the length-m stack carved above; each row is pushed at most once
			}
		}
		lu.endL()
		kk++
	}
	sc.stack = stack
	return int(kk), true
}

// pivotTol is the smallest pivot refactorize accepts, relative to the
// largest entry of the pivot's basis column; below it the basis is
// treated as singular.
const pivotTol = 1e-11

// tinyPivot reports whether v is too small a pivot for column col.
func tinyPivot(v float64, col []centry) bool {
	scale := 0.0
	for _, e := range col {
		scale = math.Max(scale, math.Abs(e.coef))
	}
	return math.Abs(v) <= pivotTol*scale
}

// factorBump LU-factors the rows and columns the peel left active
// (pivots k..m-1) densely with partial pivoting and appends the
// factors to f.spare. Returns false when the bump is singular.
func (f *factor) factorBump(basis []int, cols [][]centry, k int) bool {
	sc := &f.sc
	lu := &f.spare
	m := len(basis)
	nb := m - k
	if nb == 0 {
		return true
	}
	sc.bumpRow = growInt32(sc.bumpRow, nb)
	sc.bumpCol = growInt32(sc.bumpCol, nb)
	sc.bumpOf = growInt32(sc.bumpOf, m)
	t := 0
	for i := 0; i < m; i++ {
		if sc.rowPos[i] < 0 {
			sc.bumpRow[t], sc.bumpOf[i] = int32(i), int32(t)
			t++
		}
	}
	t = 0
	for p := 0; p < m; p++ {
		if sc.colPos[p] < 0 {
			sc.bumpCol[t] = int32(p)
			t++
		}
	}
	a := growF64(sc.bump, nb*nb)
	sc.bump = a
	for i := range a {
		a[i] = 0
	}
	for c, p := range sc.bumpCol[:nb] {
		for _, e := range basisCol(cols, basis[p]) {
			if sc.rowPos[e.row] < 0 {
				a[int(sc.bumpOf[e.row])*nb+c] = e.coef
			}
		}
	}
	for c := 0; c < nb; c++ {
		piv := c
		for r := c + 1; r < nb; r++ {
			if math.Abs(a[r*nb+c]) > math.Abs(a[piv*nb+c]) {
				piv = r
			}
		}
		if tinyPivot(a[piv*nb+c], basisCol(cols, basis[sc.bumpCol[c]])) {
			return false
		}
		if piv != c {
			for j := 0; j < nb; j++ {
				a[piv*nb+j], a[c*nb+j] = a[c*nb+j], a[piv*nb+j]
			}
			sc.bumpRow[piv], sc.bumpRow[c] = sc.bumpRow[c], sc.bumpRow[piv]
		}
		d := a[c*nb+c]
		for r := c + 1; r < nb; r++ {
			l := a[r*nb+c] / d
			a[r*nb+c] = l
			if isZero(l) {
				continue
			}
			for j := c + 1; j < nb; j++ {
				a[r*nb+j] -= l * a[c*nb+j]
			}
		}
	}
	for c := 0; c < nb; c++ {
		lu.pushPivot(sc.bumpRow[c], sc.bumpCol[c], a[c*nb+c])
		for j := c + 1; j < nb; j++ {
			if v := a[c*nb+j]; !isZero(v) {
				lu.pushU(sc.bumpCol[j], v)
			}
		}
		lu.endU()
		lu.beginL(sc.bumpRow[c])
		for r := c + 1; r < nb; r++ {
			if l := a[r*nb+c]; !isZero(l) {
				lu.pushL(int(sc.bumpRow[r]), l)
			}
		}
		lu.endL()
	}
	return true
}

// reset empties the factors for a basis of m rows, keeping storage.
func (lu *luFactors) reset(m int) {
	lu.pivRow = growInt32(lu.pivRow, m)[:0]
	lu.pivCol = growInt32(lu.pivCol, m)[:0]
	lu.pivVal = growF64(lu.pivVal, m)[:0]
	lu.uOff = growInt32(lu.uOff, m+1)[:1]
	lu.uOff[0] = 0
	lu.uIdx = lu.uIdx[:0]
	lu.uVal = lu.uVal[:0]
	lu.lRow = lu.lRow[:0]
	lu.lOff = growInt32(lu.lOff, 1)[:1]
	lu.lOff[0] = 0
	lu.lIdx = lu.lIdx[:0]
	lu.lVal = lu.lVal[:0]
}

func (lu *luFactors) pushPivot(row, col int32, v float64) {
	//alloc:amortized pivot arrays are carved to length m by reset
	lu.pivRow = append(lu.pivRow, row)
	//alloc:amortized pivot arrays are carved to length m by reset
	lu.pivCol = append(lu.pivCol, col)
	//alloc:amortized pivot arrays are carved to length m by reset
	lu.pivVal = append(lu.pivVal, v)
}

func (lu *luFactors) pushU(col int32, v float64) {
	//alloc:amortized factor arenas grow to the largest factorization's fill, then are truncated in place
	lu.uIdx = append(lu.uIdx, col)
	//alloc:amortized factor arenas grow to the largest factorization's fill, then are truncated in place
	lu.uVal = append(lu.uVal, v)
}

// endU closes the current pivot's row of U.
func (lu *luFactors) endU() {
	//alloc:amortized row offsets are carved to length m+1 by reset
	lu.uOff = append(lu.uOff, int32(len(lu.uIdx)))
}

// beginL opens an L column for the pivot on constraint row row;
// endL drops it again if no multiplier was pushed.
func (lu *luFactors) beginL(row int32) {
	//alloc:amortized factor arenas grow to the largest factorization's fill, then are truncated in place
	lu.lRow = append(lu.lRow, row)
}

func (lu *luFactors) pushL(row int, l float64) {
	//alloc:amortized factor arenas grow to the largest factorization's fill, then are truncated in place
	lu.lIdx = append(lu.lIdx, int32(row))
	//alloc:amortized factor arenas grow to the largest factorization's fill, then are truncated in place
	lu.lVal = append(lu.lVal, l)
}

func (lu *luFactors) endL() {
	n := int32(len(lu.lIdx))
	if n == lu.lOff[len(lu.lOff)-1] {
		lu.lRow = lu.lRow[:len(lu.lRow)-1]
		return
	}
	//alloc:amortized factor arenas grow to the largest factorization's fill, then are truncated in place
	lu.lOff = append(lu.lOff, n)
}

// growF64 returns a slice of length n, reusing buf's storage when it
// is large enough and zeroing nothing.
func growF64(buf []float64, n int) []float64 {
	if cap(buf) >= n {
		return buf[:n]
	}
	//alloc:amortized buffers grow to the high-water mark and are retained by the workspace
	return make([]float64, n)
}

func growInt(buf []int, n int) []int {
	if cap(buf) >= n {
		return buf[:n]
	}
	//alloc:amortized buffers grow to the high-water mark and are retained by the workspace
	return make([]int, n)
}

func growInt32(buf []int32, n int) []int32 {
	if cap(buf) >= n {
		return buf[:n]
	}
	//alloc:amortized buffers grow to the high-water mark and are retained by the workspace
	return make([]int32, n)
}

func growVstat(buf []vstat, n int) []vstat {
	if cap(buf) >= n {
		return buf[:n]
	}
	//alloc:amortized buffers grow to the high-water mark and are retained by the workspace
	return make([]vstat, n)
}

func growInt8(buf []int8, n int) []int8 {
	if cap(buf) >= n {
		return buf[:n]
	}
	//alloc:amortized buffers grow to the high-water mark and are retained by the workspace
	return make([]int8, n)
}
