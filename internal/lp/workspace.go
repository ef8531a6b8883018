package lp

// Workspace owns every piece of per-solve state the solver needs: the
// solver shell, the basis factorization, the sparse column store, and
// the Solution backing arrays. Passing one Workspace through
// Options.Workspace across repeated solves makes the solver core
// allocation-free at steady state — the hot property the parametric
// planners rely on when sweeping budgets.
//
// A Workspace is not safe for concurrent use. The Solution returned by
// a solve through a Workspace (including its X and Duals slices, and
// the captured Basis) is valid until the next solve through the same
// Workspace.
//
// The column store is cached per (Model, StructVersion): re-solving the
// same model — even after in-place RHS/objective/bound mutations —
// skips canonicalization entirely, while any structural edit or a
// different model triggers a rebuild.
//
//confine:goroutine
type Workspace struct {
	s solver
	f factor

	// Column-store cache: cols/arena materialize colModel's rows at
	// structural version colVersion.
	colModel   *Model
	colVersion uint64
	cols       [][]centry
	arena      []centry
	colLen     []int32

	// carry is the scratch of a basis carried over structural edits.
	carry carryScratch

	// Reusable outputs.
	sol      Solution
	x, duals []float64
	basisOut Basis

	// seq numbers solves through this Workspace; lastSeq/lastModel/
	// lastVersion identify the solve whose final basis the factor
	// currently represents, letting a chained warm solve skip the
	// refactorization entirely.
	seq         uint64
	lastSeq     uint64
	lastModel   *Model
	lastVersion uint64
}

// NewWorkspace returns an empty workspace; buffers grow on first use
// and are retained across solves.
func NewWorkspace() *Workspace { return &Workspace{} }

// prepare sizes the solver shell for m and refreshes the per-solve
// inputs (costs, bounds, right-hand sides) from the model, reusing the
// cached column store when the structure is unchanged.
//
//alloc:none
func (ws *Workspace) prepare(m *Model, opts Options) *solver {
	rows := len(m.rows)
	opts = opts.withDefaults(rows)
	ws.seq++

	s := &ws.s
	s.f = &ws.f
	s.m = rows
	s.nStruct = m.NumVars()
	s.nSlack = 0
	for _, r := range m.rows {
		if r.sense != EQ {
			s.nSlack++
		}
	}
	s.nTotal = s.nStruct + s.nSlack + rows // artificials allocated up front
	s.artStart = s.nStruct + s.nSlack
	s.tol = opts.Tol
	s.opts = opts
	s.maxIt = opts.MaxIters
	s.iters, s.pivotsTotal, s.degenerate, s.flips, s.refactors = 0, 0, 0, 0, 0

	if ws.colModel != m || ws.colVersion != m.structVersion {
		ws.buildCols(m, rows)
	}
	s.cols = ws.cols

	s.c = growF64(s.c, s.nTotal)
	s.lo = growF64(s.lo, s.nTotal)
	s.hi = growF64(s.hi, s.nTotal)
	s.b = growF64(s.b, rows)
	s.loadCosts(m)
	for j := 0; j < s.nStruct; j++ {
		s.lo[j], s.hi[j] = m.lo[j], m.hi[j]
	}
	for j := s.nStruct; j < s.artStart; j++ {
		s.lo[j], s.hi[j] = 0, Inf // slacks
	}
	for j := s.artStart; j < s.nTotal; j++ {
		s.lo[j], s.hi[j] = 0, 0 // artificials, opened by phase 1
	}
	for r, rw := range m.rows {
		s.b[r] = rw.rhs
	}

	s.stat = growVstat(s.stat, s.nTotal)
	s.basis = growInt(s.basis, rows)
	s.xB = growF64(s.xB, rows)
	s.xN = growF64(s.xN, s.nTotal)
	s.y = growF64(s.y, rows)
	s.w = growF64(s.w, rows)
	s.rho = growF64(s.rho, rows)
	s.resid = growF64(s.resid, rows)
	s.p1c = growF64(s.p1c, s.nTotal)
	s.d = growF64(s.d, s.artStart)
	s.alpha = growF64(s.alpha, s.artStart)
	s.cands = growInt32(s.cands, s.artStart)
	s.devex = growF64(s.devex, rows)
	return s
}

// loadCosts sets the phase-2 costs from m: the objective, negated for
// a maximization, on the structurals and zero on slacks and
// artificials.
func (s *solver) loadCosts(m *Model) {
	sign := 1.0
	if m.maximize {
		sign = -1
	}
	for j := 0; j < s.nStruct; j++ {
		s.c[j] = sign * m.obj[j]
	}
	for j := s.nStruct; j < s.nTotal; j++ {
		s.c[j] = 0
	}
}

// buildCols materializes the sparse column store for m into the flat
// arena: structural columns first, then one singleton per slack, then
// one singleton per artificial (sign patched by each cold run).
func (ws *Workspace) buildCols(m *Model, rows int) {
	nStruct := m.NumVars()
	nSlack, terms := 0, 0
	for _, r := range m.rows {
		if r.sense != EQ {
			nSlack++
		}
		terms += len(r.terms)
	}
	nTotal := nStruct + nSlack + rows
	need := terms + nSlack + rows
	if cap(ws.arena) >= need {
		ws.arena = ws.arena[:need]
	} else {
		//alloc:amortized arena grows to the structural high-water mark, then is reused
		ws.arena = make([]centry, need)
	}
	if cap(ws.cols) >= nTotal {
		ws.cols = ws.cols[:nTotal]
	} else {
		//alloc:amortized column headers grow to the structural high-water mark, then are reused
		ws.cols = make([][]centry, nTotal)
	}
	if cap(ws.colLen) >= nStruct {
		ws.colLen = ws.colLen[:nStruct]
	} else {
		//alloc:amortized per-column counts grow to the structural high-water mark, then are reused
		ws.colLen = make([]int32, nStruct)
	}
	for j := range ws.colLen {
		ws.colLen[j] = 0
	}
	for _, rw := range m.rows {
		for _, t := range rw.terms {
			ws.colLen[t.Var]++
		}
	}
	off := 0
	for j := 0; j < nStruct; j++ {
		n := int(ws.colLen[j])
		ws.cols[j] = ws.arena[off : off : off+n]
		off += n
	}
	for r, rw := range m.rows {
		for _, t := range rw.terms {
			//alloc:amortized appends fill the capacity pre-carved from the arena above; they can never grow
			ws.cols[t.Var] = append(ws.cols[t.Var], centry{row: r, coef: t.Coef})
		}
	}
	// Slack columns: row + slack == rhs for LE (slack in [0, inf)),
	// row - slack == rhs for GE.
	slack := nStruct
	for r, rw := range m.rows {
		if rw.sense == EQ {
			continue
		}
		coef := 1.0
		if rw.sense == GE {
			coef = -1
		}
		ws.arena[off] = centry{row: r, coef: coef}
		ws.cols[slack] = ws.arena[off : off+1 : off+1]
		off++
		slack++
	}
	art := nStruct + nSlack
	for r := 0; r < rows; r++ {
		ws.arena[off] = centry{row: r, coef: 1}
		ws.cols[art+r] = ws.arena[off : off+1 : off+1]
		off++
	}
	ws.colModel = m
	ws.colVersion = m.structVersion
}

// takeSolution assembles the solve result into the workspace-owned
// Solution. X and Duals are filled for Optimal and IterationLimit
// outcomes and zeroed otherwise.
//
//alloc:none
func (ws *Workspace) takeSolution(m *Model, s *solver, st Status) *Solution {
	ws.x = growF64(ws.x, s.nStruct)
	ws.duals = growF64(ws.duals, s.m)
	sol := &ws.sol
	*sol = Solution{
		Status:           st,
		X:                ws.x,
		Duals:            ws.duals,
		Iterations:       s.iters,
		Pivots:           s.pivotsTotal,
		DegeneratePivots: s.degenerate,
		BoundFlips:       s.flips,
		Refactorizations: s.refactors,
	}
	if st == Optimal || st == IterationLimit {
		for j := 0; j < s.nStruct; j++ {
			sol.X[j] = s.xN[j]
		}
		for r, bj := range s.basis[:s.m] {
			if bj < s.nStruct {
				sol.X[bj] = s.xB[r]
			}
		}
		sol.Objective = m.Objective(sol.X)
		s.computeDuals(s.c)
		copy(sol.Duals, s.y[:s.m])
		if m.maximize {
			for r := range sol.Duals {
				sol.Duals[r] = -sol.Duals[r]
			}
		}
	} else {
		for i := range sol.X {
			sol.X[i] = 0
		}
		for i := range sol.Duals {
			sol.Duals[i] = 0
		}
		sol.Objective = 0
	}
	return sol
}

// captureBasis snapshots the final basis into the workspace-owned
// Basis for a later warm re-solve. It runs after takeSolution, whose
// X it copies.
//
//alloc:none
func (ws *Workspace) captureBasis(m *Model, s *solver) *Basis {
	b := &ws.basisOut
	b.model = m
	b.structVersion = m.structVersion
	b.colKey, b.rowIDs = m.colKey, m.rowIDs
	b.basis = growInt(b.basis, s.m)
	copy(b.basis, s.basis[:s.m])
	b.x = growF64(b.x, s.nStruct)
	copy(b.x, ws.x[:s.nStruct])
	b.stat = growVstat(b.stat, s.nTotal)
	copy(b.stat, s.stat[:s.nTotal])
	b.artSign = growInt8(b.artSign, s.m)
	for r := 0; r < s.m; r++ {
		if s.cols[s.artStart+r][0].coef < 0 {
			b.artSign[r] = -1
		} else {
			b.artSign[r] = 1
		}
	}
	b.ws = ws
	b.seq = ws.seq
	return b
}

// noteSolved records which solve the factor's state corresponds to, so
// the next warm solve through this workspace can reuse it.
//
//alloc:none
func (ws *Workspace) noteSolved(m *Model) {
	ws.lastSeq = ws.seq
	ws.lastModel = m
	ws.lastVersion = m.structVersion
}
