package lp

import "math"

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
type Workspace struct {
	s solver
	f factor

	// Column-store cache: cols materializes colModel's rows at
	// structural version colVersion, and slackOf[r] is row r's slack
	// column (-1 for an equality). The model's own rows serve as the
	// row-wise copy.
	colModel   *Model
	colVersion uint64
	cols       colStore
	slackOf    []int32

	// carry is the scratch of a basis carried over structural edits.
	carry carryScratch

	// Reusable outputs.
	sol      Solution
	x, duals []float64
	basisOut Basis

	// seq numbers solves through this Workspace; lastSeq/lastModel/
	// lastVersion identify the solve whose final basis the factor
	// currently represents, letting a chained warm solve skip the
	// refactorization entirely. lastOptimal reports that solve ended
	// Optimal, which RangeRHS needs.
	seq         uint64
	lastSeq     uint64
	lastModel   *Model
	lastVersion uint64
	lastOptimal bool

	// rangeDx and unitCol are RangeRHS's scratch: the slope of every
	// structural, and the unit column it solves for.
	rangeDx []float64
	unitCol [1]centry
}

// NewWorkspace returns an empty workspace; buffers grow on first use
// and are retained across solves.
func NewWorkspace() *Workspace { return &Workspace{} }

// prepare sizes the solver shell for m and refreshes the per-solve
// inputs (costs, bounds, right-hand sides) from the model, reusing the
// cached column store when the structure is unchanged.
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
	s.cols, s.slackOf, s.rows = &ws.cols, ws.slackOf, m.rows

	s.c = grow(s.c, s.nTotal)
	s.lo = grow(s.lo, s.nTotal)
	s.hi = grow(s.hi, s.nTotal)
	s.b = grow(s.b, rows)
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

	s.stat = grow(s.stat, s.nTotal)
	s.basis = grow(s.basis, rows)
	s.xB = grow(s.xB, rows)
	s.xN = grow(s.xN, s.nTotal)
	s.y = grow(s.y, rows)
	s.w.reset(rows)
	s.rho.reset(rows)
	s.resid = grow(s.resid, rows)
	s.d = grow(s.d, s.artStart)
	s.gain = grow(s.gain, s.artStart)
	s.alpha = grow(s.alpha, s.artStart)
	s.cands = grow(s.cands, s.artStart)
	s.inRow = grow(s.inRow, s.artStart)
	s.devex = grow(s.devex, rows)
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

// buildCols materializes the sparse column store for m: structural
// columns first, then one singleton per slack, then one singleton per
// artificial (sign patched by each cold run).
func (ws *Workspace) buildCols(m *Model, rows int) {
	cs := &ws.cols
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
	cs.ent = grow(cs.ent, need)
	cs.off = grow(cs.off, nTotal+1)
	cs.scale = grow(cs.scale, nStruct)
	ws.slackOf = grow(ws.slackOf, rows)
	// Structural columns: count each column's entries into off[j+1],
	// take prefix sums, fill with off[j] as column j's cursor, then
	// shift the cursors, each left at the next column's start, back.
	for j := range cs.off[:nStruct+1] {
		cs.off[j] = 0
	}
	for _, rw := range m.rows {
		for _, t := range rw.terms {
			cs.off[t.Var+1]++
		}
	}
	for j := 0; j < nStruct; j++ {
		cs.off[j+1] += cs.off[j]
	}
	for r, rw := range m.rows {
		for _, t := range rw.terms {
			cs.ent[cs.off[t.Var]] = centry{row: r, coef: t.Coef}
			cs.off[t.Var]++
		}
	}
	copy(cs.off[1:nStruct+1], cs.off[:nStruct])
	cs.off[0] = 0
	for j := 0; j < nStruct; j++ {
		scale := 0.0
		for _, e := range cs.col(j) {
			scale = math.Max(scale, math.Abs(e.coef))
		}
		cs.scale[j] = scale
	}
	// Slack columns: row + slack == rhs for LE (slack in [0, inf)),
	// row - slack == rhs for GE. Then the artificials.
	off := terms
	slack := nStruct
	for r, rw := range m.rows {
		ws.slackOf[r] = -1
		if rw.sense == EQ {
			continue
		}
		ws.slackOf[r] = int32(slack)
		coef := 1.0
		if rw.sense == GE {
			coef = -1
		}
		cs.ent[off] = centry{row: r, coef: coef}
		off++
		slack++
		cs.off[slack] = int32(off)
	}
	for r := 0; r < rows; r++ {
		cs.ent[off] = centry{row: r, coef: 1}
		off++
		cs.off[slack+r+1] = int32(off)
	}
	ws.colModel = m
	ws.colVersion = m.structVersion
}

// takeSolution assembles the solve result into the workspace-owned
// Solution. X and Duals are filled for Optimal and IterationLimit
// outcomes and zeroed otherwise.
func (ws *Workspace) takeSolution(m *Model, s *solver, st Status) *Solution {
	ws.x = grow(ws.x, s.nStruct)
	ws.duals = grow(ws.duals, s.m)
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
		if st != Optimal {
			// An Optimal solve ends on the pricing pass that found no
			// entering column, whose duals s.y already are, from the
			// phase-2 costs and the final factors; a cut-short one does
			// not.
			s.computeDuals(s.c)
		}
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
func (ws *Workspace) captureBasis(m *Model, s *solver) *Basis {
	b := &ws.basisOut
	b.model = m
	b.structVersion = m.structVersion
	b.colKey = grow(b.colKey, len(m.colKey))
	copy(b.colKey, m.colKey)
	b.rowIDs = grow(b.rowIDs, len(m.rowIDs))
	copy(b.rowIDs, m.rowIDs)
	b.basis = grow(b.basis, s.m)
	copy(b.basis, s.basis[:s.m])
	b.x = grow(b.x, s.nStruct)
	copy(b.x, ws.x[:s.nStruct])
	b.stat = grow(b.stat, s.nTotal)
	copy(b.stat, s.stat[:s.nTotal])
	b.artSign = grow(b.artSign, s.m)
	for r := 0; r < s.m; r++ {
		if s.cols.unit(s.artStart+r).coef < 0 {
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
// the next warm solve through this workspace can reuse it, and whether
// it ended Optimal.
func (ws *Workspace) noteSolved(m *Model, st Status) {
	ws.lastSeq = ws.seq
	ws.lastModel = m
	ws.lastVersion = m.structVersion
	ws.lastOptimal = st == Optimal
}
