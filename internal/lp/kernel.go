package lp

import (
	"math"
	"math/bits"
	"slices"
)

// hvec is a length-m vector that lists where its nonzeros can be:
// every entry outside idx is zero, and idx is ascending. The solver
// keeps its Ftran and Btran results in hvecs so that each per-pivot
// pass reads a result's nonzeros instead of all m entries.
type hvec struct {
	v   []float64
	idx []int32
}

// reset sizes h for m entries, all zero.
func (h *hvec) reset(m int) {
	h.v = grow(h.v, m)
	for i := range h.v {
		h.v[i] = 0
	}
	h.idx = grow(h.idx, m)[:0]
}

// clear zeroes h's listed entries and empties its list.
func (h *hvec) clear() {
	for _, i := range h.idx {
		h.v[i] = 0
	}
	h.idx = h.idx[:0]
}

// unit sets h to the unit vector e_i.
func (h *hvec) unit(i int) {
	h.clear()
	h.v[i] = 1
	// idx is carved to length m by reset.
	h.idx = append(h.idx, int32(i))
}

// scan lists h's nonzeros after a dense write of all of h.v.
func (h *hvec) scan() {
	h.idx = h.idx[:0]
	for i, v := range h.v {
		if !isZero(v) {
			h.idx = append(h.idx, int32(i))
		}
	}
}

// sparse reports whether a triangular solve stage with n nonzeros
// coming in takes its hypersparse form: at most a tenth of the m
// pivots, the density below which visiting only the reached pivots
// beats a pass over all of them (Hall & McKinnon 2005).
func sparse(n, m int) bool { return 10*n <= m }

// words returns how many 64-bit words hold n bits.
func words(n int) int { return (n + 63) >> 6 }

func setBit(b []uint64, i int32) { b[i>>6] |= 1 << (uint(i) & 63) }

// sortIdx sorts idx, distinct values below 64·len(b), ascending through
// the zero bitset b, which it leaves zero: a pass over the words plus
// one step per value.
func sortIdx(idx []int32, b []uint64) {
	for _, i := range idx {
		setBit(b, i)
	}
	n := 0
	for w, word := range b {
		for word != 0 {
			idx[n] = int32(w<<6 | bits.TrailingZeros64(word))
			n++
			word &= word - 1
		}
		b[w] = 0
	}
}

// ftranCol sets out = B⁻¹a for the column a (entries by constraint
// row); out is indexed by basis position. It keeps L⁻¹a after the R
// etas as the spike the next update puts into U.
func (f *factor) ftranCol(col []centry, out *hvec) {
	c := f.c
	rows := f.rows[:0]
	for _, e := range col {
		c[e.row] = e.coef
		// rows is carved to length m by load; a column has one entry
		// per row.
		rows = append(rows, int32(e.row))
	}
	if sparse(len(rows), f.m) {
		rows = f.lSparse(c, rows)
	} else {
		f.lDense(c)
		rows = rows[:0]
		for i, v := range c {
			if !isZero(v) {
				f.mark[i] = true
				rows = append(rows, int32(i))
			}
		}
	}
	rows = f.rForward(c, rows)
	for _, i := range f.spikeIdx {
		f.spike[i] = 0
	}
	f.spikeIdx = f.spikeIdx[:0]
	for _, i := range rows {
		f.mark[i] = false
		if v := c[i]; !isZero(v) {
			f.spike[i] = v
			// spikeIdx is carved to length m by load.
			f.spikeIdx = append(f.spikeIdx, i)
		}
	}
	if sparse(len(rows), f.m) {
		out.clear()
		f.uSparse(c, rows, out)
		sortIdx(out.idx, f.bits[:words(f.m)])
	} else {
		f.uDense(c, out.v)
		out.scan()
	}
}

// ftranDense computes v = B⁻¹v in place for a dense v, indexed by
// constraint row on the way in and by basis position on the way out.
func (f *factor) ftranDense(v []float64) {
	c := f.c
	copy(c, v)
	f.lDense(c)
	for _, i := range f.rForward(c, f.rows[:0]) {
		f.mark[i] = false
	}
	f.uDense(c, v)
}

// btranSparse computes yᵀB⁻¹ in place: y comes in indexed by basis
// position and leaves indexed by constraint row, its list kept.
func (f *factor) btranSparse(y *hvec) {
	if !sparse(len(y.idx), f.m) {
		f.btran(y.v)
		y.scan()
		return
	}
	for _, p := range y.idx {
		k := f.posRank[p]
		f.kw[k], y.v[p] = y.v[p], 0
		setBit(f.bits, k)
	}
	rows := f.uTSparse(y.v, y.idx[:0])
	rows = f.rBackward(y.v, rows)
	if sparse(len(rows), f.m) {
		y.idx = f.lTSparse(y.v, rows)
		sortIdx(y.idx, f.bits[:words(f.m)])
		return
	}
	for _, i := range rows {
		f.mark[i] = false
	}
	f.lTDense(y.v)
	y.scan()
}

// btran computes y = yᵀB⁻¹ in place for a dense y, indexed by basis
// position on the way in and by constraint row on the way out.
func (f *factor) btran(y []float64) {
	f.uTDense(y)
	for _, i := range f.rBackward(y, f.rows[:0]) {
		f.mark[i] = false
	}
	f.lTDense(y)
}

// lDense applies L⁻¹ to c: L's columns in pivot order, each skipping
// a zero multiplicand.
func (f *factor) lDense(c []float64) {
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
}

// lSparse is lDense over the pivots reachable from the listed rows
// only, in the same order: the slot bitset yields the lowest pending
// pivot next, and an L column only reaches later ones. It returns the
// rows left nonzero, marked, in the storage of in.
func (f *factor) lSparse(c []float64, in []int32) []int32 {
	pivRow, lOff, lIdx, lVal := f.lu.pivRow, f.lu.lOff, f.lu.lIdx, f.lu.lVal
	b, mark, rowSlot, lCol := f.bits, f.mark, f.rowSlot, f.lCol
	for _, r := range in {
		setBit(b, rowSlot[r])
	}
	out := in[:0]
	for w := 0; w < words(f.m); w++ {
		for {
			word := b[w]
			if word == 0 {
				break
			}
			s := w<<6 | bits.TrailingZeros64(word)
			b[w] = word &^ (1 << uint(s&63))
			r := pivRow[s]
			v := c[r]
			if isZero(v) {
				c[r] = 0
				continue
			}
			mark[r] = true
			// At most one entry per row, within in's length-m storage.
			out = append(out, r)
			if e := lCol[s]; e >= 0 {
				for k := lOff[e]; k < lOff[e+1]; k++ {
					i := lIdx[k]
					c[i] -= lVal[k] * v
					setBit(b, rowSlot[i])
				}
			}
		}
	}
	return out
}

// rForward applies the R etas in order to c, adding each row an eta
// makes nonzero to the marked list rows, which it returns.
func (f *factor) rForward(c []float64, rows []int32) []int32 {
	rOff, rIdx, rVal, mark := f.rOff, f.rIdx, f.rVal, f.mark
	for e, r := range f.rRow {
		v := c[r]
		for k := rOff[e]; k < rOff[e+1]; k++ {
			v -= rVal[k] * c[rIdx[k]]
		}
		if isZero(v) {
			c[r] = 0
			continue
		}
		c[r] = v
		if !mark[r] {
			mark[r] = true
			// At most one entry per row, within rows' length-m storage.
			rows = append(rows, r)
		}
	}
	return rows
}

// uDense solves U out = c backward in pivot order, by columns, each
// skipping a zero; c is indexed by constraint row and left zero, out
// by basis position.
func (f *factor) uDense(c, out []float64) {
	kRow, kPos, kDiag, kw := f.kRow, f.kPos, f.kDiag, f.kw
	ucBeg, ucLen, ucRank, ucVal := f.ucBeg, f.ucLen, f.ucRank, f.ucVal
	for k, r := range kRow {
		if r >= 0 {
			kw[k], c[r] = c[r], 0
		}
	}
	for k := len(kRow) - 1; k >= 0; k-- {
		if kRow[k] < 0 {
			continue
		}
		t := kw[k]
		kw[k] = 0
		if isZero(t) {
			out[kPos[k]] = 0
			continue
		}
		t /= kDiag[k]
		out[kPos[k]] = t
		for q := ucBeg[k]; q < ucBeg[k]+ucLen[k]; q++ {
			kw[ucRank[q]] -= ucVal[q] * t
		}
	}
}

// uSparse is uDense over the pivots reachable from the listed rows of
// c, in the same order: the rank bitset yields the last pending pivot
// next, and a U column only reaches earlier ones. It writes the
// nonzeros to the cleared out, listing them unsorted.
func (f *factor) uSparse(c []float64, rows []int32, out *hvec) {
	kPos, kDiag, kw := f.kPos, f.kDiag, f.kw
	ucBeg, ucLen, ucRank, ucVal := f.ucBeg, f.ucLen, f.ucRank, f.ucVal
	b, v, idx := f.bits, out.v, out.idx
	for _, r := range rows {
		k := f.rowRank[r]
		kw[k], c[r] = c[r], 0
		setBit(b, k)
	}
	for w := words(len(kPos)) - 1; w >= 0; w-- {
		for {
			word := b[w]
			if word == 0 {
				break
			}
			k := w<<6 | (63 - bits.LeadingZeros64(word))
			b[w] = word &^ (1 << uint(k&63))
			t := kw[k]
			kw[k] = 0
			if isZero(t) {
				continue
			}
			t /= kDiag[k]
			p := kPos[k]
			v[p] = t
			// One entry per pivot, within idx's length-m storage.
			idx = append(idx, p)
			for q := ucBeg[k]; q < ucBeg[k]+ucLen[k]; q++ {
				j := ucRank[q]
				kw[j] -= ucVal[q] * t
				setBit(b, j)
			}
		}
	}
	out.idx = idx
}

// uTDense solves Uᵀ in place: y comes in indexed by basis position and
// leaves indexed by constraint row, forward in pivot order by rows,
// each skipping a zero.
func (f *factor) uTDense(y []float64) {
	kRow, kDiag, kw := f.kRow, f.kDiag, f.kw
	urBeg, urLen, urRank, urVal := f.urBeg, f.urLen, f.urRank, f.urVal
	for k, p := range f.kPos {
		if kRow[k] >= 0 {
			kw[k] = y[p]
		}
	}
	for k, r := range kRow {
		if r < 0 {
			continue
		}
		g := kw[k]
		kw[k] = 0
		if isZero(g) {
			y[r] = 0
			continue
		}
		g /= kDiag[k]
		y[r] = g
		for q := urBeg[k]; q < urBeg[k]+urLen[k]; q++ {
			kw[urRank[q]] -= urVal[q] * g
		}
	}
}

// uTSparse is uTDense over the pivots whose rank bits the caller set
// (with their kw entries) and those they reach, in the same order. y
// must be zero at every row it can write; the rows it writes nonzero
// are marked and appended to rows, which it returns.
func (f *factor) uTSparse(y []float64, rows []int32) []int32 {
	kRow, kDiag, kw := f.kRow, f.kDiag, f.kw
	urBeg, urLen, urRank, urVal := f.urBeg, f.urLen, f.urRank, f.urVal
	b, mark := f.bits, f.mark
	for w := 0; w < words(len(kRow)); w++ {
		for {
			word := b[w]
			if word == 0 {
				break
			}
			k := w<<6 | bits.TrailingZeros64(word)
			b[w] = word &^ (1 << uint(k&63))
			g := kw[k]
			kw[k] = 0
			if isZero(g) {
				continue
			}
			g /= kDiag[k]
			r := kRow[k]
			y[r] = g
			mark[r] = true
			// One entry per pivot, within rows' length-m storage.
			rows = append(rows, r)
			for q := urBeg[k]; q < urBeg[k]+urLen[k]; q++ {
				j := urRank[q]
				kw[j] -= urVal[q] * g
				setBit(b, j)
			}
		}
	}
	return rows
}

// rBackward applies the R etas transposed, last first, to y: each
// scatters its row's value, unless zero, to the rows it reads. Rows
// it reaches join the marked list rows, which it returns.
func (f *factor) rBackward(y []float64, rows []int32) []int32 {
	rRow, rOff, rIdx, rVal, mark := f.rRow, f.rOff, f.rIdx, f.rVal, f.mark
	for e := len(rRow) - 1; e >= 0; e-- {
		v := y[rRow[e]]
		if isZero(v) {
			continue
		}
		for k := rOff[e]; k < rOff[e+1]; k++ {
			i := rIdx[k]
			y[i] -= rVal[k] * v
			if !mark[i] {
				mark[i] = true
				// At most one entry per row, within rows' length-m storage.
				rows = append(rows, i)
			}
		}
	}
	return rows
}

// lTDense solves Lᵀ in place by rows, backward in pivot order, each
// skipping a zero.
func (f *factor) lTDense(y []float64) {
	pivRow, lrOff, lrRow, lrVal := f.lu.pivRow, f.lrOff, f.lrRow, f.lrVal
	for s := f.m - 1; s >= 0; s-- {
		v := y[pivRow[s]]
		if isZero(v) {
			continue
		}
		for q := lrOff[s]; q < lrOff[s+1]; q++ {
			y[lrRow[q]] -= lrVal[q] * v
		}
	}
}

// lTSparse is lTDense over the pivots reachable from the marked rows
// listed, in the same order; it unmarks them and returns the rows left
// nonzero, unsorted, in the storage of rows.
func (f *factor) lTSparse(y []float64, rows []int32) []int32 {
	pivRow, lrOff, lrRow, lrVal := f.lu.pivRow, f.lrOff, f.lrRow, f.lrVal
	b, mark, rowSlot := f.bits, f.mark, f.rowSlot
	for _, r := range rows {
		mark[r] = false
		setBit(b, rowSlot[r])
	}
	out := rows[:0]
	for w := words(f.m) - 1; w >= 0; w-- {
		for {
			word := b[w]
			if word == 0 {
				break
			}
			s := w<<6 | (63 - bits.LeadingZeros64(word))
			b[w] = word &^ (1 << uint(s&63))
			r := pivRow[s]
			v := y[r]
			if isZero(v) {
				y[r] = 0
				continue
			}
			// At most one entry per row, within rows' length-m storage.
			out = append(out, r)
			for q := lrOff[s]; q < lrOff[s+1]; q++ {
				i := lrRow[q]
				y[i] -= lrVal[q] * v
				setBit(b, rowSlot[i])
			}
		}
	}
	return out
}

// update replaces the column at basis position p with the column the
// last ftranCol solved for, by a Forrest–Tomlin update: the spike that
// Ftran kept becomes p's column of U, p's pivot moves to the end of
// the order, and one R eta eliminates its old U row, whose multipliers
// r solve rᵀU' = (that row) over the later pivots U' (a sparse Uᵀ
// solve). It refuses, leaving the factors as they were, when the new
// diagonal is too small a pivot for the spike, as factorize would: the
// replacement makes the basis (numerically) singular.
func (f *factor) update(p int) bool {
	k := f.posRank[p]
	r := f.kRow[k]
	for q := f.urBeg[k]; q < f.urBeg[k]+f.urLen[k]; q++ {
		j := f.urRank[q]
		f.kw[j] = f.urVal[q]
		setBit(f.bits, j)
	}
	rows := f.uTSparse(f.c, f.rows[:0])
	d, scale := f.spike[r], 0.0
	for _, i := range rows {
		d -= f.c[i] * f.spike[i]
	}
	for _, i := range f.spikeIdx {
		if v := math.Abs(f.spike[i]); v > scale {
			scale = v
		}
	}
	ok := !tinyPivot(d, scale)
	if ok && len(rows) > 0 {
		// R arenas grow to the between-refactorization high-water mark,
		// then are truncated in place.
		for _, i := range rows {
			f.rIdx = append(f.rIdx, i)
			f.rVal = append(f.rVal, f.c[i])
		}
		f.rRow = append(f.rRow, r)
		f.rOff = append(f.rOff, int32(len(f.rIdx)))
	}
	for _, i := range rows {
		f.c[i], f.mark[i] = 0, false
	}
	if !ok {
		return false
	}

	// p's old column leaves the rows that hold it, and its pivot's old
	// row the columns.
	for q := f.ucBeg[k]; q < f.ucBeg[k]+f.ucLen[k]; q++ {
		dropEntry(f.urRank, f.urVal, f.urBeg[f.ucRank[q]], &f.urLen[f.ucRank[q]], k)
	}
	for q := f.urBeg[k]; q < f.urBeg[k]+f.urLen[k]; q++ {
		dropEntry(f.ucRank, f.ucVal, f.ucBeg[f.urRank[q]], &f.ucLen[f.urRank[q]], k)
	}
	// The pivot moves to rank n at the end of the order, keeping its
	// row's room, and the spike, less its diagonal, is its new column.
	n := int32(len(f.kRow))
	// The pivot tables grow by one rank per update until grown asks for
	// a refactorization, and the bitset keeps pace.
	f.kRow = append(f.kRow, r)
	f.kPos = append(f.kPos, int32(p))
	f.kDiag = append(f.kDiag, d)
	f.urBeg = append(f.urBeg, f.urBeg[k])
	f.urLen = append(f.urLen, 0)
	f.urCap = append(f.urCap, f.urCap[k])
	f.ucBeg = append(f.ucBeg, int32(len(f.ucRank)))
	f.ucLen = append(f.ucLen, 0)
	f.kw = append(f.kw, 0)
	for len(f.bits) < words(len(f.kRow)) {
		f.bits = append(f.bits, 0)
	}
	f.kRow[k], f.urLen[k], f.urCap[k], f.ucLen[k] = -1, 0, 0, 0
	f.rowRank[r], f.posRank[p] = n, n
	for _, i := range f.spikeIdx {
		if i == r {
			continue
		}
		v := f.spike[i]
		// U arenas grow to the between-refactorization high-water mark,
		// then are truncated in place.
		j := f.rowRank[i]
		f.ucRank = append(f.ucRank, j)
		f.ucVal = append(f.ucVal, v)
		f.ucLen[n]++
		f.pushRowEntry(j, n, v)
	}
	f.pivotsSince++
	return true
}

// dropEntry removes the entry with rank k from the U row or column
// whose entries (ranks idx, values val) start at beg, *n of them.
func dropEntry(idx []int32, val []float64, beg int32, n *int32, k int32) {
	for q := beg; q < beg+*n; q++ {
		if idx[q] == k {
			last := beg + *n - 1
			idx[q], val[q] = idx[last], val[last]
			*n--
			return
		}
	}
}

// pushRowEntry adds (column rank j, v) to the U row of pivot k, first
// moving the row to the end of the arena with twice its room when it
// is full.
func (f *factor) pushRowEntry(k, j int32, v float64) {
	beg, n := f.urBeg[k], f.urLen[k]
	if n == f.urCap[k] {
		nb := len(f.urRank)
		end := nb + int(2*n+4)
		// U arenas grow to the between-refactorization high-water mark,
		// then are truncated in place.
		f.urRank = slices.Grow(f.urRank, end-nb)[:end]
		f.urVal = slices.Grow(f.urVal, end-nb)[:end]
		copy(f.urRank[nb:], f.urRank[beg:beg+n])
		copy(f.urVal[nb:], f.urVal[beg:beg+n])
		f.urBeg[k], f.urCap[k] = int32(nb), 2*n+4
		beg = int32(nb)
	}
	f.urRank[beg+n], f.urVal[beg+n] = j, v
	f.urLen[k]++
}
