package lp

// Clone returns an independently mutable copy of the model. The
// in-place mutators (SetRHS, SetObjCoef, SetVarBound) and structural
// edits (AddVar, AddConstr, AddTerm, RemoveVars) on either side never
// affect the other: the objective, bound, name, identity and row
// slices are copied with exact capacity, so even an append reallocates
// instead of sharing a backing array.
//
// Constraint term slices are shared between the original and the
// clone, which is what makes cloning a built parametric program cheap
// enough to do once per pool worker (see core.Snapshot). Shared slices
// are never edited: SetRHS rewrites the row's rhs field (copied per
// clone), AddTerm builds a new term slice, and RemoveVars renumbers
// terms in place only in a model whose slices no clone shares.
//
// Clone only reads the original, apart from marking its term slices
// shared, which is atomic: clones of one model may be taken from many
// goroutines at once, as long as none of them edits or solves it.
//
// The clone keeps the original's StructVersion, but a Basis captured
// from a solve of one model is never warm-startable on another:
// Basis validity is checked by model pointer identity, so each clone
// starts its own warm chain with one cold solve.
func (m *Model) Clone() *Model {
	c := &Model{
		obj:           make([]float64, len(m.obj)),
		lo:            make([]float64, len(m.lo)),
		hi:            make([]float64, len(m.hi)),
		names:         make([]varName, len(m.names)),
		rows:          make([]row, len(m.rows)),
		maximize:      m.maximize,
		structVersion: m.structVersion,
		colKey:        make([]uint64, len(m.colKey)),
		rowIDs:        make([]rowID, len(m.rowIDs)),
		nextKey:       m.nextKey,
	}
	copy(c.obj, m.obj)
	copy(c.lo, m.lo)
	copy(c.hi, m.hi)
	copy(c.names, m.names)
	copy(c.colKey, m.colKey)
	copy(c.rowIDs, m.rowIDs)
	copy(c.rows, m.rows)
	m.termsShared.Store(true)
	c.termsShared.Store(true)
	return c
}
