package lp

import "math"

// factor maintains the basis inverse as a sparse LU factorization
// kept current by Forrest–Tomlin updates:
//
//	R_k ··· R_1 · L⁻¹ · B = U
//
// with U upper triangular in a pivot order that the updates permute.
// factorize peels the basis's column singletons (slack and artificial
// unit columns, and structurals touching one remaining row) into the
// upper triangle, then its row singletons into the lower one, and
// LU-factors only the remaining bump densely with partial pivoting.
// LP bases are nearly triangular, so the bump is small.
//
// A pivot that replaces the column at basis position p with a_q puts
// the spike L⁻¹a_q (after the R etas so far, as the Ftran of a_q left
// it) into U in place of p's column, moves p's pivot to the end of the
// order, and eliminates that pivot's old U row with one row eta R
// (Forrest & Tomlin 1972). An update costs about the nonzeros it
// touches, Ftran and Btran run on the current factors, and the factors
// are rebuilt only once U and R outgrow their storage bound (see grown)
// or the drift-control pivot counter fires (see solver.refactorEvery).
//
// These LPs are hypersparse: a column's spike has a handful of
// nonzeros and B⁻¹a_q a few dozen of some hundreds of rows. Ftran and
// Btran therefore visit only the pivots a sparse right-hand side
// reaches (Gilbert & Peierls 1988; Hall & McKinnon 2005), found by a
// bitset over the pivot order that also yields them in that order, so
// the arithmetic is the dense loop's, bit for bit, without its pass
// over every pivot (see kernel.go).
//
// All storage is flat and reused (the factors, the update arenas, the
// solve scratch), so a Workspace can replay thousands of solves
// without allocating.
type factor struct {
	m int
	// lu holds the last factorization; factorize builds into spare and
	// swaps, so a singular basis leaves lu untouched. Its L stays in
	// force until the next factorization; its pivots and U are copied to
	// the live storage below, which the updates edit.
	lu, spare luFactors

	// The live pivots, indexed by rank, their place in the current
	// pivot order: pivot k sits at constraint row kRow[k] and basis
	// position kPos[k] with diagonal kDiag[k]. The factorization's
	// pivots take ranks 0..m-1; an update gives the pivot it moves the
	// next rank and sets kRow at its old one to -1. rowRank and posRank
	// map a constraint row and a basis position to their pivot's rank.
	kRow    []int32
	kPos    []int32
	kDiag   []float64
	rowRank []int32
	posRank []int32

	// U by rows for Btran: the row of pivot k holds (the rank of the
	// entry's column urRank, urVal) in [urBeg[k], urBeg[k]+urLen[k]),
	// with room for urCap[k] entries; a row that outgrows its room moves
	// to the end of the arena.
	urBeg, urLen, urCap []int32
	urRank              []int32
	urVal               []float64
	// U by columns for Ftran: the column of pivot k holds (the rank of
	// the entry's row ucRank, ucVal) in [ucBeg[k], ucBeg[k]+ucLen[k]);
	// an update writes its spike to the end of the arena. An entry's
	// ranks stay valid: an update moves a pivot only once its row and
	// column have left U.
	ucBeg, ucLen []int32
	ucRank       []int32
	ucVal        []float64

	// L stays in the factorization's pivot order: slot s is lu's pivot
	// s, and rowSlot maps a constraint row to its slot. By rows, for the
	// scatter form of Btran, the row of slot s holds (the constraint row
	// of an earlier pivot's L column lrRow, its multiplier lrVal) in
	// [lrOff[s], lrOff[s+1]). lCol[s] is the index of slot s's L column
	// in lu, -1 when it has none.
	rowSlot []int32
	lrOff   []int32
	lrRow   []int32
	lrVal   []float64
	lCol    []int32

	// R etas: eta e replaces the value at constraint row rRow[e] with
	// itself minus the sum of rVal[k]·(value at row rIdx[k]) over
	// [rOff[e], rOff[e+1]).
	rRow []int32
	rOff []int32
	rIdx []int32
	rVal []float64

	// base is the U and R storage a factorization leaves; grown
	// measures the updates against it.
	base int
	// pivotsSince counts pivots since the last refactorization (drift
	// control, carried across warm solves sharing this factor).
	pivotsSince int
	// peels counts the factorizations begun, failed ones included.
	peels int

	// Solve scratch, all kept zero (false) between calls: c by
	// constraint row, kw by rank (U's stages run in it), mark by
	// constraint row, bits one bit per slot, rank, row or position. rows
	// is a list scratch of up to m rows. spike is the last ftranCol's
	// L⁻¹a after the R etas, by constraint row, its nonzeros listed in
	// spikeIdx.
	c        []float64
	kw       []float64
	mark     []bool
	bits     []uint64
	rows     []int32
	spike    []float64
	spikeIdx []int32

	sc luScratch
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

// refactorize rebuilds the LU factors of the basis whose position p
// holds column basis[p] of cs, wiping the updates and accumulated
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
	f.load(len(basis))
	return pos, rows, true
}

// load makes the factorization in lu the live factors for a basis of
// m rows: pivot k at rank k, U copied out by rows and by columns, L
// copied by rows, no R etas, and the solve scratch sized and cleared.
func (f *factor) load(m int) {
	lu := &f.lu
	f.m = m
	f.pivotsSince = 0
	// The pivot tables and the update arenas grow to the high-water
	// mark, then are truncated in place.
	f.kRow = append(f.kRow[:0], lu.pivRow...)
	f.kPos = append(f.kPos[:0], lu.pivCol...)
	f.kDiag = append(f.kDiag[:0], lu.pivVal...)
	f.rowRank = grow(f.rowRank, m)
	f.posRank = grow(f.posRank, m)
	f.rowSlot = grow(f.rowSlot, m)
	f.lCol = grow(f.lCol, m)
	for k := 0; k < m; k++ {
		f.rowRank[lu.pivRow[k]], f.posRank[lu.pivCol[k]] = int32(k), int32(k)
		f.lCol[k] = -1
	}
	copy(f.rowSlot, f.rowRank)

	// L by rows: count each row's multipliers into lrOff[s+1], take
	// prefix sums, fill with lrOff[s] as row s's cursor, then shift the
	// cursors back into offsets (as buildCols does).
	f.lrOff = grow(f.lrOff, m+1)
	for s := range f.lrOff {
		f.lrOff[s] = 0
	}
	for _, i := range lu.lIdx {
		f.lrOff[f.rowSlot[i]+1]++
	}
	for s := 0; s < m; s++ {
		f.lrOff[s+1] += f.lrOff[s]
	}
	f.lrRow = grow(f.lrRow, len(lu.lIdx))
	f.lrVal = grow(f.lrVal, len(lu.lIdx))
	for e, r := range lu.lRow {
		f.lCol[f.rowSlot[r]] = int32(e)
		for q := lu.lOff[e]; q < lu.lOff[e+1]; q++ {
			s := f.rowSlot[lu.lIdx[q]]
			f.lrRow[f.lrOff[s]], f.lrVal[f.lrOff[s]] = r, lu.lVal[q]
			f.lrOff[s]++
		}
	}
	copy(f.lrOff[1:], f.lrOff[:m])
	f.lrOff[0] = 0

	// U by rows, each row's room exactly its length.
	f.urBeg = append(f.urBeg[:0], lu.uOff[:m]...)
	f.urLen = grow(f.urLen, m)
	for k := 0; k < m; k++ {
		f.urLen[k] = lu.uOff[k+1] - lu.uOff[k]
	}
	f.urCap = append(f.urCap[:0], f.urLen...)
	f.urRank = grow(f.urRank, len(lu.uIdx))
	for q, p := range lu.uIdx {
		f.urRank[q] = f.posRank[p]
	}
	f.urVal = append(f.urVal[:0], lu.uVal...)

	// U by columns: count, lay the columns out, fill (the column of
	// rank j gets row k's entry in it).
	f.ucLen = grow(f.ucLen, m)
	for k := 0; k < m; k++ {
		f.ucLen[k] = 0
	}
	for _, p := range lu.uIdx {
		f.ucLen[f.posRank[p]]++
	}
	f.ucBeg = grow(f.ucBeg, m)
	n := int32(0)
	for k := 0; k < m; k++ {
		f.ucBeg[k] = n
		n += f.ucLen[k]
		f.ucLen[k] = 0
	}
	f.ucRank = grow(f.ucRank, len(lu.uIdx))
	f.ucVal = grow(f.ucVal, len(lu.uIdx))
	for k := 0; k < m; k++ {
		for u := lu.uOff[k]; u < lu.uOff[k+1]; u++ {
			j := f.urRank[u]
			q := f.ucBeg[j] + f.ucLen[j]
			f.ucRank[q], f.ucVal[q] = int32(k), lu.uVal[u]
			f.ucLen[j]++
		}
	}

	f.rRow = f.rRow[:0]
	f.rOff = append(f.rOff[:0], 0)
	f.rIdx = f.rIdx[:0]
	f.rVal = f.rVal[:0]
	f.base = len(f.urRank) + len(f.ucRank)

	f.c = grow(f.c, m)
	f.kw = grow(f.kw, m)
	f.spike = grow(f.spike, m)
	f.mark = grow(f.mark, m)
	for i := 0; i < m; i++ {
		f.c[i], f.kw[i], f.spike[i], f.mark[i] = 0, 0, 0, false
	}
	f.bits = grow(f.bits, words(m))
	for w := range f.bits {
		f.bits[w] = 0
	}
	f.rows = grow(f.rows, m)[:0]
	f.spikeIdx = grow(f.spikeIdx, m)[:0]
}

// grown reports whether the updates since the last factorization have
// grown U's arenas (live entries and the room moved rows left behind)
// and the R etas past twice what the factorization left plus m, or
// moved more pivots to the end of the order than the basis has: time
// to rebuild the factors, which costs about one pass over them.
func (f *factor) grown() bool {
	return len(f.urRank)+len(f.ucRank)+len(f.rIdx) > 2*f.base+f.m || len(f.kRow) > 2*f.m
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
