package lp

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// denseInverse is the test oracle: the inverse of the basis matrix
// (column p is cols[basis[p]]) by Gauss-Jordan elimination with
// partial pivoting, row-major with rows indexed by basis position.
// ok is false when a pivot falls below 1e-9.
func denseInverse(basis []int, cols [][]centry) (inv []float64, ok bool) {
	m := len(basis)
	a := make([]float64, m*m)
	inv = make([]float64, m*m)
	for p, bj := range basis {
		for _, e := range cols[bj] {
			a[e.row*m+p] += e.coef
		}
		inv[p*m+p] = 1
	}
	for c := 0; c < m; c++ {
		piv := c
		for r := c + 1; r < m; r++ {
			if math.Abs(a[r*m+c]) > math.Abs(a[piv*m+c]) {
				piv = r
			}
		}
		if math.Abs(a[piv*m+c]) < 1e-9 {
			return nil, false
		}
		for k := 0; k < m; k++ {
			a[piv*m+k], a[c*m+k] = a[c*m+k], a[piv*m+k]
			inv[piv*m+k], inv[c*m+k] = inv[c*m+k], inv[piv*m+k]
		}
		d := a[c*m+c]
		for k := 0; k < m; k++ {
			a[c*m+k] /= d
			inv[c*m+k] /= d
		}
		for r := 0; r < m; r++ {
			if r == c {
				continue
			}
			l := a[r*m+c]
			for k := 0; k < m; k++ {
				a[r*m+k] -= l * a[c*m+k]
				inv[r*m+k] -= l * inv[c*m+k]
			}
		}
	}
	return inv, true
}

// randomSparseColumn returns a column with 1 to maxNnz entries on
// distinct rows of an m-row matrix.
func randomSparseColumn(rng *rand.Rand, m, maxNnz int) []centry {
	n := 1 + rng.Intn(maxNnz)
	if n > m {
		n = m
	}
	col := make([]centry, 0, n)
	for _, r := range rng.Perm(m)[:n] {
		col = append(col, centry{row: r, coef: rng.Float64()*4 - 2})
	}
	return col
}

// randomBasis builds an m×m basis in the shape LP bases take: a mix of
// ±1 unit columns (slacks, artificials), sparse structurals with a
// dominant entry, and a handful of dense columns forming a bump.
func randomBasis(rng *rand.Rand, m int) (basis []int, cols [][]centry) {
	return shapedBasis(rng, m, m)
}

// shapedBasis is randomBasis with at most bumpNnz entries in each bump
// column: a bumpNnz below m gives the hypersparse bases of the
// planners' LPs, and then each bump column also gets an entry on its
// own row, so that the basis is rarely singular.
func shapedBasis(rng *rand.Rand, m, bumpNnz int) (basis []int, cols [][]centry) {
	perm := rng.Perm(m)
	for p := 0; p < m; p++ {
		diag := perm[p]
		var col []centry
		switch x := rng.Float64(); {
		case x < 0.5:
			col = []centry{{row: diag, coef: float64(1 - 2*rng.Intn(2))}}
		case x < 0.8:
			col = []centry{{row: diag, coef: 3 + rng.Float64()}}
			for _, e := range randomSparseColumn(rng, m, 3) {
				if e.row != diag {
					col = append(col, e)
				}
			}
		default:
			col = randomSparseColumn(rng, m, bumpNnz)
			if bumpNnz < m && !hasRow(col, diag) {
				col = append(col, centry{row: diag, coef: 1 + rng.Float64()})
			}
		}
		cols = append(cols, col)
		basis = append(basis, p)
	}
	return basis, cols
}

func hasRow(col []centry, row int) bool {
	for _, e := range col {
		if e.row == row {
			return true
		}
	}
	return false
}

// storeOf lays cols out as a column store, with every column's
// largest |coefficient| as its scale.
func storeOf(cols [][]centry) *colStore {
	cs := &colStore{off: make([]int32, 1, len(cols)+1), scale: make([]float64, len(cols))}
	for j, col := range cols {
		for _, e := range col {
			cs.scale[j] = math.Max(cs.scale[j], math.Abs(e.coef))
		}
		cs.ent = append(cs.ent, col...)
		cs.off = append(cs.off, int32(len(cs.ent)))
	}
	return cs
}

func denseOf(col []centry, m int) []float64 {
	v := make([]float64, m)
	for _, e := range col {
		v[e.row] = e.coef
	}
	return v
}

// checkAgainstOracle compares ftranCol, ftranDense, btran and
// btranSparse on f with the dense inverse of the basis, and checks the
// index lists the sparse forms return.
func checkAgainstOracle(t *testing.T, label string, f *factor, basis []int, cols [][]centry, rng *rand.Rand) {
	t.Helper()
	m := len(basis)
	inv, ok := denseInverse(basis, cols)
	if !ok {
		t.Fatalf("%s: oracle finds the basis singular", label)
	}
	const tol = 1e-9
	near := func(what string, got, want []float64) {
		t.Helper()
		for i := range want {
			if math.Abs(got[i]-want[i]) > tol*(1+math.Abs(want[i])) {
				t.Fatalf("%s: %s[%d] = %.15g, oracle %.15g", label, what, i, got[i], want[i])
			}
		}
	}
	a := randomSparseColumn(rng, m, 4)
	ad := denseOf(a, m)
	want := make([]float64, m)
	for r := 0; r < m; r++ {
		for i := 0; i < m; i++ {
			want[r] += inv[r*m+i] * ad[i]
		}
	}
	var h hvec
	h.reset(m)
	f.ftranCol(a, &h)
	checkList(t, label+": ftranCol", &h)
	near("ftranCol", h.v, want)

	v := make([]float64, m)
	for i := range v {
		v[i] = rng.Float64()*2 - 1
	}
	for r := 0; r < m; r++ {
		want[r] = 0
		for i := 0; i < m; i++ {
			want[r] += inv[r*m+i] * v[i]
		}
	}
	f.ftranDense(v)
	near("ftranDense", v, want)

	y := make([]float64, m)
	for i := range y {
		if rng.Intn(3) == 0 {
			y[i] = rng.Float64()*2 - 1
		}
	}
	for i := 0; i < m; i++ {
		want[i] = 0
		for r := 0; r < m; r++ {
			want[i] += y[r] * inv[r*m+i]
		}
	}
	h.clear()
	for i, v := range y {
		if !isZero(v) {
			h.v[i] = v
			h.idx = append(h.idx, int32(i))
		}
	}
	f.btran(y)
	near("btran", y, want)
	f.btranSparse(&h)
	checkList(t, label+": btranSparse", &h)
	near("btranSparse", h.v, want)
}

// checkList fails unless h's list is ascending, without repeats, and
// names every nonzero of h.
func checkList(t *testing.T, label string, h *hvec) {
	t.Helper()
	listed := make([]bool, len(h.v))
	for k, i := range h.idx {
		if k > 0 && i <= h.idx[k-1] {
			t.Fatalf("%s: list %v not ascending", label, h.idx)
		}
		listed[i] = true
	}
	for i, v := range h.v {
		if !isZero(v) && !listed[i] {
			t.Fatalf("%s: nonzero %d (%g) not listed", label, i, v)
		}
	}
}

// TestFactorMatchesDenseOracle checks the sparse LU, alone and after
// Forrest–Tomlin updates, against a dense Gauss-Jordan inverse on
// random sparse bases, and the hypersparse Ftran and Btran stages
// against the dense loops bit for bit on the same factors (see
// checkHyperMatchesDense). The last 60 bases are larger and
// hypersparse, as the planners' are.
func TestFactorMatchesDenseOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	f := &factor{}
	for trial := 0; trial < 360; trial++ {
		m, bumpNnz := 1+rng.Intn(40), 0
		if trial >= 300 {
			m, bumpNnz = 50+rng.Intn(100), 6
		}
		if bumpNnz == 0 {
			bumpNnz = m
		}
		basis, cols := shapedBasis(rng, m, bumpNnz)
		if _, ok := denseInverse(basis, cols); !ok {
			continue
		}
		if !f.refactorize(basis, storeOf(cols)) {
			t.Fatalf("trial %d: refactorize rejected a nonsingular basis", trial)
		}
		checkAgainstOracle(t, "trial", f, basis, cols, rng)
		checkHyperMatchesDense(t, "trial", f, rng)
		// Pivot random entering columns in, as the simplex does, so the
		// updates compose with the factors.
		var w hvec
		w.reset(m)
		for pivots := 0; pivots < 6; pivots++ {
			enter := randomSparseColumn(rng, m, 5)
			f.ftranCol(enter, &w)
			leave := -1
			for _, r := range w.idx {
				if math.Abs(w.v[r]) > 0.2 && (leave < 0 || rng.Intn(2) == 0) {
					leave = int(r)
				}
			}
			if leave < 0 {
				continue
			}
			if !f.update(leave) {
				t.Fatalf("trial %d: update refused a pivot of %g", trial, w.v[leave])
			}
			cols = append(cols, enter)
			basis[leave] = len(cols) - 1
			checkAgainstOracle(t, "after update", f, basis, cols, rng)
			checkHyperMatchesDense(t, "after update", f, rng)
		}
	}
}

// checkHyperMatchesDense runs Ftran and Btran of random sparse
// right-hand sides through the hypersparse stages whatever their
// density (hyperFtran, hyperBtran) and through the dense loops
// (ftranDense, btran), and fails unless the results are equal entry
// for entry.
func checkHyperMatchesDense(t *testing.T, label string, f *factor, rng *rand.Rand) {
	t.Helper()
	m := f.m
	var h hvec
	h.reset(m)
	for rep := 0; rep < 4; rep++ {
		a := randomSparseColumn(rng, m, 1+m/10)
		dense := denseOf(a, m)
		f.ftranDense(dense)
		hyperFtran(f, a, &h)
		checkList(t, label+": hyperFtran", &h)
		for i, v := range dense {
			if !sameFloat(h.v[i], v) {
				t.Fatalf("%s: Ftran[%d]: hypersparse %.17g, dense %.17g", label, i, h.v[i], v)
			}
		}

		h.clear()
		dense = make([]float64, m)
		for _, p := range rng.Perm(m)[:1+rng.Intn(1+m/10)] {
			v := rng.Float64()*2 - 1
			h.v[p], dense[p] = v, v
			h.idx = append(h.idx, int32(p))
		}
		f.btran(dense)
		hyperBtran(f, &h)
		checkList(t, label+": hyperBtran", &h)
		for i, v := range dense {
			if !sameFloat(h.v[i], v) {
				t.Fatalf("%s: Btran[%d]: hypersparse %.17g, dense %.17g", label, i, h.v[i], v)
			}
		}
	}
}

// hyperFtran is ftranCol with every stage in its hypersparse form.
func hyperFtran(f *factor, col []centry, out *hvec) {
	rows := f.rows[:0]
	for _, e := range col {
		f.c[e.row] = e.coef
		rows = append(rows, int32(e.row))
	}
	rows = f.rForward(f.c, f.lSparse(f.c, rows))
	for _, i := range rows {
		f.mark[i] = false
	}
	out.clear()
	f.uSparse(f.c, rows, out)
	sortIdx(out.idx, f.bits[:words(f.m)])
}

// hyperBtran is btranSparse with every stage in its hypersparse form.
func hyperBtran(f *factor, y *hvec) {
	for _, p := range y.idx {
		k := f.posRank[p]
		f.kw[k], y.v[p] = y.v[p], 0
		setBit(f.bits, k)
	}
	rows := f.rBackward(y.v, f.uTSparse(y.v, y.idx[:0]))
	y.idx = f.lTSparse(y.v, rows)
	sortIdx(y.idx, f.bits[:words(f.m)])
}

// TestFactorRejectsSingular covers the three ways a basis is singular
// at the peel or in the bump: two unit columns on one row (a column
// left empty), a row no column touches, and a bump column that is an
// exact multiple of another. A rejected refactorization must leave the
// previous factors in force.
func TestFactorRejectsSingular(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	for trial := 0; trial < 100; trial++ {
		m := 3 + rng.Intn(20)
		basis, cols := randomBasis(rng, m)
		if _, ok := denseInverse(basis, cols); !ok {
			continue
		}
		f := &factor{}
		if !f.refactorize(basis, storeOf(cols)) {
			t.Fatalf("trial %d: refactorize rejected a nonsingular basis", trial)
		}
		bad := append([]int(nil), basis...)
		badCols := append([][]centry(nil), cols...)
		p, q := rng.Intn(m), rng.Intn(m-1)
		if q >= p {
			q++
		}
		var kind string
		switch trial % 3 {
		case 0:
			kind = "shared unit row"
			row := rng.Intn(m)
			badCols = append(badCols, []centry{{row: row, coef: 1}}, []centry{{row: row, coef: -1}})
			bad[p], bad[q] = len(badCols)-2, len(badCols)-1
		case 1:
			kind = "uncovered row"
			row := rng.Intn(m)
			for c, bj := range bad {
				kept := []centry{}
				for _, e := range badCols[bj] {
					if e.row != row {
						kept = append(kept, e)
					}
				}
				if len(kept) == 0 {
					kept = []centry{{row: (row + 1) % m, coef: 1}}
				}
				badCols = append(badCols, kept)
				bad[c] = len(badCols) - 1
			}
		default:
			kind = "dependent bump columns"
			var base, twice []centry
			for r := 0; r < m; r++ {
				v := rng.Float64()*2 - 1
				base = append(base, centry{row: r, coef: v})
				twice = append(twice, centry{row: r, coef: 2 * v})
			}
			badCols = append(badCols, base, twice)
			bad[p], bad[q] = len(badCols)-2, len(badCols)-1
		}
		if f.refactorize(bad, storeOf(badCols)) {
			t.Fatalf("trial %d (%s): refactorize accepted a singular basis", trial, kind)
		}
		checkAgainstOracle(t, kind+": previous factors", f, basis, cols, rng)
	}
}

// TestRevealingFactorRepairs checks the rank-revealing factorization
// on random bases made singular three ways: empty positions,
// duplicated columns, and a column that is a combination of two
// others. It must succeed, put in each replaced position the unit
// column of a distinct row, replace every empty position, leave a
// nonsingular basis whose Ftran and Btran match the dense oracle, and
// on a nonsingular basis replace nothing and build exactly the factors
// of the strict refactorize.
func TestRevealingFactorRepairs(t *testing.T) {
	rng := rand.New(rand.NewSource(107))
	repaired := 0
	for trial := 0; trial < 300; trial++ {
		m := 2 + rng.Intn(30)
		basis, cols := randomBasis(rng, m)
		if _, ok := denseInverse(basis, cols); !ok {
			continue
		}
		// Each row's unit column, as a slack or artificial would be.
		unit := make([]int, m)
		for r := range unit {
			cols = append(cols, []centry{{row: r, coef: float64(1 - 2*rng.Intn(2))}})
			unit[r] = len(cols) - 1
		}
		strict, revealing := &factor{}, &factor{}
		if !strict.refactorize(basis, storeOf(cols)) {
			t.Fatalf("trial %d: refactorize rejected a nonsingular basis", trial)
		}
		pos, _, ok := revealing.factorize(basis, storeOf(cols), unit)
		if !ok || len(pos) > 0 {
			t.Fatalf("trial %d: a nonsingular basis: ok %v, %d positions replaced", trial, ok, len(pos))
		}
		if !reflect.DeepEqual(strict.lu, revealing.lu) {
			t.Fatalf("trial %d: the rank-revealing factors differ from refactorize's", trial)
		}

		bad := append([]int(nil), basis...)
		empty := map[int]bool{}
		for k := 1 + rng.Intn(3); k > 0; k-- {
			p, q := rng.Intn(m), rng.Intn(m)
			switch rng.Intn(3) {
			case 0:
				bad[p] = -1
			case 1:
				if p != q && bad[q] >= 0 {
					bad[p] = bad[q]
				}
			default:
				if p != q && bad[p] >= 0 && bad[q] >= 0 {
					a, b := denseOf(cols[bad[p]], m), denseOf(cols[bad[q]], m)
					var mix []centry
					for r := range a {
						if v := 2*a[r] - 0.5*b[r]; !isZero(v) {
							mix = append(mix, centry{row: r, coef: v})
						}
					}
					if len(mix) > 0 {
						cols = append(cols, mix)
						r := rng.Intn(m)
						for r == p {
							r = rng.Intn(m)
						}
						bad[r] = len(cols) - 1
					}
				}
			}
		}
		for p, bj := range bad {
			if bj < 0 {
				empty[p] = true
			}
		}
		pos, rows, ok := revealing.factorize(bad, storeOf(cols), unit)
		if !ok || len(pos) != len(rows) {
			t.Fatalf("trial %d: ok %v, %d positions for %d rows", trial, ok, len(pos), len(rows))
		}
		seen := map[int32]bool{}
		for k, p := range pos {
			if seen[rows[k]] {
				t.Fatalf("trial %d: row %d given to two positions", trial, rows[k])
			}
			seen[rows[k]] = true
			delete(empty, int(p))
			bad[p] = unit[rows[k]]
		}
		if len(empty) > 0 {
			t.Fatalf("trial %d: empty positions %v left unreplaced", trial, empty)
		}
		if len(pos) > 0 {
			repaired++
		}
		checkAgainstOracle(t, "repaired", revealing, bad, cols, rng)
	}
	if repaired < 100 {
		t.Errorf("only %d repaired bases: the repair went unexercised", repaired)
	}
}

// TestFTUpdateMatchesDenseOracle replaces columns of random hypersparse
// bases by Forrest–Tomlin updates until the factor asks to be rebuilt
// (grown), and checks Ftran and Btran against the dense inverse of the
// current basis within 1e-9 after every update. Every fifth step tries
// a replacement that makes the basis singular (the column already at
// another position): update must refuse it and leave factors that
// still solve the unchanged basis and take further updates.
func TestFTUpdateMatchesDenseOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(109))
	f := &factor{}
	updates, refused, full := 0, 0, 0
	for trial := 0; trial < 120; trial++ {
		m := 20 + rng.Intn(60)
		basis, cols := shapedBasis(rng, m, 6)
		if _, ok := denseInverse(basis, cols); !ok {
			continue
		}
		if !f.refactorize(basis, storeOf(cols)) {
			t.Fatalf("trial %d: refactorize rejected a nonsingular basis", trial)
		}
		var w hvec
		w.reset(m)
		for step := 0; step < 4*m && !f.grown(); step++ {
			if step%5 == 4 {
				p, q := rng.Intn(m), rng.Intn(m-1)
				if q >= p {
					q++
				}
				f.ftranCol(cols[basis[q]], &w)
				if f.update(p) {
					t.Fatalf("trial %d step %d: update accepted a singular replacement", trial, step)
				}
				refused++
				checkAgainstOracle(t, "after a refused update", f, basis, cols, rng)
				continue
			}
			enter := randomSparseColumn(rng, m, 4)
			f.ftranCol(enter, &w)
			// Leave on a large entry, as a ratio test favours, so the
			// bases stay well enough conditioned for the oracle.
			top := 0.0
			for _, r := range w.idx {
				top = math.Max(top, math.Abs(w.v[r]))
			}
			leave := -1
			for _, r := range w.idx {
				if math.Abs(w.v[r]) >= 0.5*top && (leave < 0 || rng.Intn(2) == 0) {
					leave = int(r)
				}
			}
			if top < 0.1 {
				continue
			}
			if !f.update(leave) {
				t.Fatalf("trial %d step %d: update refused a pivot of %g", trial, step, w.v[leave])
			}
			cols = append(cols, enter)
			basis[leave] = len(cols) - 1
			updates++
			checkAgainstOracle(t, fmt.Sprintf("trial %d after %d updates", trial, f.pivotsSince), f, basis, cols, rng)
		}
		if f.grown() {
			full++
		}
	}
	if updates < 1000 || refused < 100 || full < 20 {
		t.Errorf("%d updates, %d refused, %d factors grown full: the update went unexercised", updates, refused, full)
	}
}

// TestFTUpdateAllocFree pins the Forrest–Tomlin update path at zero
// allocations once its arenas have grown: a refactorization followed
// by the same 30 updates, each with the Ftran of its entering column
// and the Btran of its leaving row, as a simplex pivot makes them.
func TestFTUpdateAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(113))
	const m = 80
	basis, cols := shapedBasis(rng, m, 6)
	for {
		if _, ok := denseInverse(basis, cols); ok {
			break
		}
		basis, cols = shapedBasis(rng, m, 6)
	}
	cs := storeOf(cols)
	f := &factor{}
	if !f.refactorize(basis, cs) {
		t.Fatal("refactorize rejected a nonsingular basis")
	}
	var w, rho hvec
	w.reset(m)
	rho.reset(m)
	type step struct {
		col   []centry
		leave int
	}
	var steps []step
	for len(steps) < 30 {
		enter := randomSparseColumn(rng, m, 4)
		f.ftranCol(enter, &w)
		leave := -1
		for _, r := range w.idx {
			if leave < 0 || math.Abs(w.v[r]) > math.Abs(w.v[leave]) {
				leave = int(r)
			}
		}
		if leave < 0 || math.Abs(w.v[leave]) < 0.1 || !f.update(leave) {
			continue
		}
		steps = append(steps, step{enter, leave})
	}
	run := func() {
		if !f.refactorize(basis, cs) {
			panic("refactorize rejected the basis it accepted before")
		}
		for _, st := range steps {
			f.ftranCol(st.col, &w)
			rho.unit(st.leave)
			f.btranSparse(&rho)
			if !f.update(st.leave) {
				panic("update refused a step it accepted before")
			}
		}
	}
	run()
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Errorf("refactorization plus 30 updates allocates %.1f allocs/op, want 0", allocs)
	}
}
