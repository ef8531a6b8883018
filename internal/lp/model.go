// Package lp is a self-contained linear programming toolkit built for
// the PROSPECTOR planners: a model builder, a two-phase revised simplex
// solver with bounded variables, and optimality-certificate checking.
//
// The paper solved its programs with ILOG CPLEX; no LP solver exists in
// the Go standard library, so this package substitutes a from-scratch
// implementation. The planners' LPs are pure minimization problems with
// box-bounded variables (0 <= x <= u) and sparse inequality rows, which
// is exactly the shape this solver is tuned for: bounds are handled
// implicitly (no extra rows), columns are stored sparse, cold solves
// start from a slack crash basis, and the basis is kept as a sparse LU
// factorization.
package lp

import (
	"fmt"
	"math"
	"strconv"
)

// VarID names a variable within a Model.
type VarID int

// Sense is the direction of a linear constraint.
type Sense int

// Constraint senses.
const (
	LE Sense = iota // <=
	GE              // >=
	EQ              // ==
)

func (s Sense) String() string {
	switch s {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "=="
	}
	return fmt.Sprintf("Sense(%d)", int(s))
}

// Term is one coefficient of a constraint row.
type Term struct {
	Var  VarID
	Coef float64
}

// Inf is the bound used for unbounded variables.
var Inf = math.Inf(1)

// Model is a linear program under construction. Objective sense is
// minimization; use Maximize to flip. The zero value is an empty model
// ready for use.
type Model struct {
	obj      []float64
	lo, hi   []float64
	names    []varName
	rows     []row
	maximize bool
	// structVersion counts structural edits (AddVar, AddConstr,
	// AddTerm, RemoveVars). A Basis captured at the current version is
	// replayed as is; one captured earlier is carried over to the new
	// structure (see Basis). The in-place mutators (SetRHS, SetObjCoef,
	// SetVarBound) deliberately leave it alone.
	structVersion uint64
	// colKey and rowIDs hold stable identities drawn from nextKey,
	// ascending in index order, that survive the renumbering RemoveVars
	// does (it compacts both in place; a Basis keeps copies).
	colKey  []uint64
	rowIDs  []rowID
	nextKey uint64
	// Edit scratch: termPos[v] is 1 + the position of variable v in the
	// row AddConstr is merging (0 when absent, the state between calls,
	// also beyond its length up to its capacity); varMap and rowMap
	// back RemoveVars' results.
	termPos []int32
	varMap  []VarID
	rowMap  []int
}

// varName is a variable's diagnostic name, kept unformatted until it
// is read: text, then its non-negative indices in decimal joined by
// "_" (text "x_" with indices 3 and 7 reads x_3_7, text "y" with 4
// reads y4). An unused index slot holds -1.
type varName struct {
	text string
	idx  [2]int32
}

func (v varName) String() string {
	if v.idx[0] < 0 {
		return v.text
	}
	b := strconv.AppendInt(append(make([]byte, 0, len(v.text)+24), v.text...), int64(v.idx[0]), 10)
	if v.idx[1] >= 0 {
		b = strconv.AppendInt(append(b, '_'), int64(v.idx[1]), 10)
	}
	return string(b)
}

type row struct {
	terms []Term
	sense Sense
	rhs   float64
}

// rowID is a row's stable key, shifted left one bit to make room for
// whether the row is an equality (which has no slack column): what a
// Basis needs of the rows it was captured against. IDs order as their
// keys do.
type rowID uint64

func newRowID(key uint64, sense Sense) rowID {
	id := rowID(key << 1)
	if sense == EQ {
		id |= 1
	}
	return id
}

func (id rowID) eq() bool { return id&1 == 1 }

// NewModel returns an empty model.
func NewModel() *Model { return &Model{} }

// Maximize switches the objective sense to maximization. Solutions
// still report the objective in the caller's sense.
func (m *Model) Maximize() { m.maximize = true }

// AddVar adds a variable with bounds [lo, hi] and the given objective
// coefficient. Use lp.Inf / -lp.Inf for unbounded sides. name is kept
// for diagnostics only and may be empty.
func (m *Model) AddVar(lo, hi, obj float64, name string) (VarID, error) {
	return m.addVar(lo, hi, obj, varName{text: name, idx: [2]int32{-1, -1}})
}

// MustVarIndexed is MustVar for a variable named prefix followed by
// one or two non-negative indices joined by "_": ("x_", 3, 7) names
// x_3_7 and ("y", 4) names y4. The name is formatted only when it is
// read, so a model built or edited in a loop pays no formatting per
// variable.
func (m *Model) MustVarIndexed(lo, hi, obj float64, prefix string, idx ...int) VarID {
	name := varName{text: prefix, idx: [2]int32{-1, -1}}
	if len(idx) == 0 || len(idx) > len(name.idx) {
		panic(fmt.Sprintf("lp: variable %q with %d indices", prefix, len(idx)))
	}
	for k, i := range idx {
		if i < 0 || i > math.MaxInt32 {
			panic(fmt.Sprintf("lp: variable %q with index %d", prefix, i))
		}
		name.idx[k] = int32(i)
	}
	id, err := m.addVar(lo, hi, obj, name)
	if err != nil {
		panic(err)
	}
	return id
}

func (m *Model) addVar(lo, hi, obj float64, name varName) (VarID, error) {
	if math.IsNaN(lo) || math.IsNaN(hi) || math.IsNaN(obj) {
		return -1, fmt.Errorf("lp: NaN in variable %q", name)
	}
	if lo > hi {
		return -1, fmt.Errorf("lp: variable %q has lo %g > hi %g", name, lo, hi)
	}
	id := VarID(len(m.obj))
	m.obj = append(m.obj, obj)
	m.lo = append(m.lo, lo)
	m.hi = append(m.hi, hi)
	m.names = append(m.names, name)
	m.colKey = append(m.colKey, m.nextKey)
	m.nextKey++
	m.structVersion++
	return id, nil
}

// MustVar is AddVar for statically valid arguments.
func (m *Model) MustVar(lo, hi, obj float64, name string) VarID {
	id, err := m.AddVar(lo, hi, obj, name)
	if err != nil {
		panic(err)
	}
	return id
}

// AddConstr adds the row sum(terms) sense rhs. Terms referencing the
// same variable are summed. Empty rows are rejected.
func (m *Model) AddConstr(terms []Term, sense Sense, rhs float64) error {
	if len(terms) == 0 {
		return fmt.Errorf("lp: empty constraint row")
	}
	if math.IsNaN(rhs) || math.IsInf(rhs, 0) {
		return fmt.Errorf("lp: constraint rhs %g", rhs)
	}
	for _, t := range terms {
		if t.Var < 0 || int(t.Var) >= len(m.obj) {
			return fmt.Errorf("lp: constraint references unknown variable %d", t.Var)
		}
		if math.IsNaN(t.Coef) || math.IsInf(t.Coef, 0) {
			return fmt.Errorf("lp: constraint coefficient %g on variable %d", t.Coef, t.Var)
		}
	}
	// Sum the terms of each variable in first-appearance order, then
	// drop the ones that cancelled.
	m.termPos = grow(m.termPos, len(m.obj))
	clean := make([]Term, 0, len(terms))
	for _, t := range terms {
		if p := m.termPos[t.Var]; p > 0 {
			clean[p-1].Coef += t.Coef
			continue
		}
		clean = append(clean, t)
		m.termPos[t.Var] = int32(len(clean))
	}
	n := 0
	for _, t := range clean {
		m.termPos[t.Var] = 0
		if !isZero(t.Coef) {
			clean[n] = t
			n++
		}
	}
	clean = clean[:n]
	if len(clean) == 0 {
		// All coefficients cancelled: the row is 0 sense rhs. Either
		// trivially true or trivially false.
		violated := false
		switch sense {
		case LE:
			violated = rhs < 0
		case GE:
			violated = rhs > 0
		case EQ:
			violated = !isZero(rhs)
		}
		if violated {
			return fmt.Errorf("lp: constraint with zero row is infeasible (0 %v %g)", sense, rhs)
		}
		return nil
	}
	m.rows = append(m.rows, row{terms: clean, sense: sense, rhs: rhs})
	m.rowIDs = append(m.rowIDs, newRowID(m.nextKey, sense))
	m.nextKey++
	m.structVersion++
	return nil
}

// MustConstr is AddConstr for statically valid arguments. It returns
// the index of the retained row (usable with SetRHS), or -1 when the
// row cancelled to a trivially true constraint and was dropped.
func (m *Model) MustConstr(terms []Term, sense Sense, rhs float64) int {
	before := len(m.rows)
	if err := m.AddConstr(terms, sense, rhs); err != nil {
		panic(err)
	}
	if len(m.rows) == before {
		return -1
	}
	return before
}

// SetRHS replaces the right-hand side of retained row i in place. The
// constraint matrix is untouched, so a Basis captured from a previous
// solve stays valid and the next warm solve only has to repair primal
// feasibility. Row indices are the values returned by MustConstr.
func (m *Model) SetRHS(i int, rhs float64) error {
	if i < 0 || i >= len(m.rows) {
		return fmt.Errorf("lp: SetRHS row %d out of range [0,%d)", i, len(m.rows))
	}
	if math.IsNaN(rhs) || math.IsInf(rhs, 0) {
		return fmt.Errorf("lp: SetRHS rhs %g", rhs)
	}
	m.rows[i].rhs = rhs
	return nil
}

// RHS returns the right-hand side of retained row i.
func (m *Model) RHS(i int) float64 { return m.rows[i].rhs }

// SetObjCoef replaces a variable's objective coefficient in place (in
// the caller's declared sense, like AddVar). Basis-preserving: a warm
// solve after an objective edit re-prices from the cached basis.
func (m *Model) SetObjCoef(v VarID, obj float64) error {
	if v < 0 || int(v) >= len(m.obj) {
		return fmt.Errorf("lp: SetObjCoef unknown variable %d", v)
	}
	if math.IsNaN(obj) || math.IsInf(obj, 0) {
		return fmt.Errorf("lp: SetObjCoef coefficient %g on variable %d", obj, v)
	}
	m.obj[v] = obj
	return nil
}

// SetVarBound replaces a variable's bounds in place. Basis-preserving:
// if the edit makes the cached basis primal-infeasible, the next warm
// solve recovers with dual pivots instead of restarting cold.
func (m *Model) SetVarBound(v VarID, lo, hi float64) error {
	if v < 0 || int(v) >= len(m.obj) {
		return fmt.Errorf("lp: SetVarBound unknown variable %d", v)
	}
	if math.IsNaN(lo) || math.IsNaN(hi) {
		return fmt.Errorf("lp: SetVarBound NaN on variable %d", v)
	}
	if lo > hi {
		return fmt.Errorf("lp: SetVarBound variable %d has lo %g > hi %g", v, lo, hi)
	}
	m.lo[v], m.hi[v] = lo, hi
	return nil
}

// AddTerm adds coef*v to retained row i (summed into an existing term
// on v). It is a structural edit: a Basis captured before it carries
// over, re-factored against the new row, and is repaired if the edit
// made it singular.
func (m *Model) AddTerm(i int, v VarID, coef float64) error {
	if i < 0 || i >= len(m.rows) {
		return fmt.Errorf("lp: AddTerm row %d out of range [0,%d)", i, len(m.rows))
	}
	if v < 0 || int(v) >= len(m.obj) {
		return fmt.Errorf("lp: AddTerm unknown variable %d", v)
	}
	if math.IsNaN(coef) || math.IsInf(coef, 0) {
		return fmt.Errorf("lp: AddTerm coefficient %g on variable %d", coef, v)
	}
	old := m.rows[i].terms
	terms := make([]Term, 0, len(old)+1)
	merged := false
	for _, t := range old {
		if t.Var == v {
			t.Coef += coef
			merged = true
			if isZero(t.Coef) {
				continue
			}
		}
		terms = append(terms, t)
	}
	if !merged && !isZero(coef) {
		terms = append(terms, Term{Var: v, Coef: coef})
	}
	if len(terms) == 0 {
		return fmt.Errorf("lp: AddTerm would empty row %d", i)
	}
	m.rows[i].terms = terms
	m.structVersion++
	return nil
}

// RemoveVars deletes the given variables together with every row that
// references one of them. The surviving variables and rows keep their
// order and are renumbered densely; varMap[old] and rowMap[old] give
// each old VarID and row index its new value, or -1 when it was
// removed. Both maps are the model's scratch, overwritten by its next
// RemoveVars. No surviving row mentions a removed variable, so a point
// that satisfied every row still satisfies the survivors, whatever
// values the removed variables had; a Basis captured before the
// removal carries over to the smaller model and keeps that point (see
// Basis).
func (m *Model) RemoveVars(vars []VarID) (varMap []VarID, rowMap []int, err error) {
	for _, v := range vars {
		if v < 0 || int(v) >= len(m.obj) {
			return nil, nil, fmt.Errorf("lp: RemoveVars unknown variable %d", v)
		}
	}
	m.varMap = grow(m.varMap, len(m.obj))
	varMap = m.varMap
	clear(varMap)
	for _, v := range vars {
		varMap[v] = -1
	}
	n := 0
	for j := range m.obj {
		if varMap[j] < 0 {
			continue
		}
		varMap[j] = VarID(n)
		m.obj[n], m.lo[n], m.hi[n], m.names[n] = m.obj[j], m.lo[j], m.hi[j], m.names[j]
		m.colKey[n] = m.colKey[j]
		n++
	}
	clear(m.names[n:])
	m.obj, m.lo, m.hi, m.names, m.colKey = m.obj[:n], m.lo[:n], m.hi[:n], m.names[:n], m.colKey[:n]

	m.rowMap = grow(m.rowMap, len(m.rows))
	rowMap = m.rowMap
	k := 0
rows:
	for i, r := range m.rows {
		rowMap[i] = -1
		for _, t := range r.terms {
			if varMap[t.Var] < 0 {
				continue rows
			}
		}
		for q, t := range r.terms {
			r.terms[q] = Term{Var: varMap[t.Var], Coef: t.Coef}
		}
		m.rows[k], rowMap[i] = r, k
		m.rowIDs[k] = m.rowIDs[i]
		k++
	}
	clear(m.rows[k:])
	m.rows, m.rowIDs = m.rows[:k], m.rowIDs[:k]
	m.structVersion++
	return varMap, rowMap, nil
}

// StructVersion identifies the model's structure (its history of
// structural edits). In-place mutators do not change it; AddVar,
// AddConstr, AddTerm and RemoveVars do.
func (m *Model) StructVersion() uint64 { return m.structVersion }

// NumVars returns the number of variables added so far.
func (m *Model) NumVars() int { return len(m.obj) }

// NumConstrs returns the number of (retained) constraint rows.
func (m *Model) NumConstrs() int { return len(m.rows) }

// Name returns the diagnostic name of a variable.
func (m *Model) Name(v VarID) string { return m.names[v].String() }

// Bounds returns the bounds of a variable.
func (m *Model) Bounds(v VarID) (lo, hi float64) { return m.lo[v], m.hi[v] }

// Objective evaluates the model objective (in the caller's sense) at x.
func (m *Model) Objective(x []float64) float64 {
	z := 0.0
	for i, c := range m.obj {
		z += c * x[i]
	}
	return z
}

// Violation returns the largest constraint or bound violation of x; a
// feasible point has Violation <= tol for the solver's tolerance.
func (m *Model) Violation(x []float64) float64 {
	worst := 0.0
	for i := range m.obj {
		if d := m.lo[i] - x[i]; d > worst {
			worst = d
		}
		if d := x[i] - m.hi[i]; d > worst {
			worst = d
		}
	}
	for _, r := range m.rows {
		lhs := 0.0
		for _, t := range r.terms {
			lhs += t.Coef * x[t.Var]
		}
		var d float64
		switch r.sense {
		case LE:
			d = lhs - r.rhs
		case GE:
			d = r.rhs - lhs
		case EQ:
			d = math.Abs(lhs - r.rhs)
		}
		if d > worst {
			worst = d
		}
	}
	return worst
}
