package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Unit machinery for the unitcheck analyzer. A Unit is a product of
// base dimensions with integer exponents — the cost model juggles
// millijoules (mJ), bytes (B), messages (msg), values (val), and
// seconds (s), and the classic bug is adding a per-byte coefficient
// to a total energy. The nil *Unit means "unknown"; an empty dims map
// is dimensionless (a fraction or count ratio), written "1".
//
// Units enter the analysis two ways:
//
//   - the declarative table below, keyed by (package suffix, owner
//     type, name), which tags the cost-model fields and methods of the
//     real tree and, by suffix matching, their fixture twins;
//   - //unit: directives in source, for locals, parameters, and
//     anything the table does not cover:
//
//     //unit: mJ                    on a var/const/field declaration
//     //unit: nValues=val extra=B   on a func declaration (parameters)
//     //unit: return=mJ             on a func declaration
//
// A directive sits at the end of the declaration line, on the line
// directly above it, or in the declaration's doc comment. Malformed
// directives are unitcheck findings themselves.

// knownDims is the closed set of base dimensions; a typo in a
// directive ("mj") must be a finding, not a fresh dimension.
var knownDims = map[string]bool{"mJ": true, "B": true, "msg": true, "val": true, "s": true}

// Unit is a product of base dimensions with integer exponents.
type Unit struct {
	dims map[string]int
}

func (u *Unit) equal(o *Unit) bool {
	if u == nil || o == nil {
		return u == o
	}
	if len(u.dims) != len(o.dims) {
		return false
	}
	for d, e := range u.dims {
		if o.dims[d] != e {
			return false
		}
	}
	return true
}

// String renders the unit in the same syntax parseUnit accepts:
// "mJ", "mJ/B", "B/val", "1", "mJ/B/val", "B^2".
func (u *Unit) String() string {
	if u == nil {
		return "?"
	}
	var pos, neg []string
	for _, d := range sortedDims(u.dims) {
		e := u.dims[d]
		switch {
		case e > 1:
			pos = append(pos, d+"^"+strconv.Itoa(e))
		case e == 1:
			pos = append(pos, d)
		case e == -1:
			neg = append(neg, d)
		case e < -1:
			neg = append(neg, d+"^"+strconv.Itoa(-e))
		}
	}
	s := strings.Join(pos, "*")
	if s == "" {
		s = "1"
	}
	for _, d := range neg {
		s += "/" + d
	}
	return s
}

func sortedDims(dims map[string]int) []string {
	out := make([]string, 0, len(dims))
	for d := range dims {
		out = append(out, d)
	}
	sort.Strings(out)
	return out
}

// parseUnit parses "mJ", "mJ/B", "B*s", "mJ/B/val", "B^2", "1".
func parseUnit(s string) (*Unit, error) {
	u := &Unit{dims: make(map[string]int)}
	for i, seg := range strings.Split(s, "/") {
		sign := 1
		if i > 0 {
			sign = -1
		}
		for _, factor := range strings.Split(seg, "*") {
			name, exp := factor, 1
			if base, pow, ok := strings.Cut(factor, "^"); ok {
				n, err := strconv.Atoi(pow)
				if err != nil || n <= 0 {
					return nil, fmt.Errorf("bad exponent in unit %q", s)
				}
				name, exp = base, n
			}
			if name == "1" && exp == 1 {
				continue
			}
			if !knownDims[name] {
				return nil, fmt.Errorf("unknown dimension %q in unit %q (known: B, mJ, msg, s, val)", name, s)
			}
			u.dims[name] += sign * exp
			if u.dims[name] == 0 {
				delete(u.dims, name)
			}
		}
	}
	return u, nil
}

// mustUnit parses a unit-table string, panicking on the programmer
// error of an invalid table entry.
func mustUnit(s string) *Unit {
	u, err := parseUnit(s)
	if err != nil {
		panic("analysis: bad unit table entry: " + err.Error())
	}
	return u
}

// mulUnits / divUnits combine units; unknown propagates.
func mulUnits(a, b *Unit) *Unit {
	if a == nil || b == nil {
		return nil
	}
	out := &Unit{dims: make(map[string]int, len(a.dims)+len(b.dims))}
	for d, e := range a.dims {
		out.dims[d] = e
	}
	for d, e := range b.dims {
		out.dims[d] += e
		if out.dims[d] == 0 {
			delete(out.dims, d)
		}
	}
	return out
}

func divUnits(a, b *Unit) *Unit {
	if a == nil || b == nil {
		return nil
	}
	inv := &Unit{dims: make(map[string]int, len(b.dims))}
	for d, e := range b.dims {
		inv.dims[d] = -e
	}
	return mulUnits(a, inv)
}

// joinUnits is the optimistic lattice join used when several
// definitions reach a use: unknowns defer to the known unit, and two
// different known units collapse to unknown (the mixing itself is
// flagged at the assignment that caused it, not at every later use).
func joinUnits(a, b *Unit) *Unit {
	switch {
	case a == nil:
		return b
	case b == nil:
		return a
	case a.equal(b):
		return a
	default:
		return nil
	}
}

// unitTableEntry tags one named element of the real tree: a struct
// field or method when owner is a type name, a package-level func,
// var, or const when owner is empty. pkg is an import-path suffix so
// the fixture module's twin packages get the same rows. Entries that
// resolve to nothing (a fixture twin declaring only a subset) are
// silently skipped.
type unitTableEntry struct {
	pkg, owner, name, unit string
}

var unitTable = []unitTableEntry{
	// internal/energy: the paper's cost model.
	{"internal/energy", "Model", "PerMessage", "mJ"},
	{"internal/energy", "Model", "PerByte", "mJ/B"},
	{"internal/energy", "Model", "BytesPerValue", "B/val"},
	{"internal/energy", "Model", "BytesPerRequest", "B"},
	{"internal/energy", "Model", "TriggerFraction", "1"},
	{"internal/energy", "Model", "PerValue", "mJ/val"},
	{"internal/energy", "Model", "Unicast", "mJ"},
	{"internal/energy", "Model", "Trigger", "mJ"},
	{"internal/energy", "Model", "Request", "mJ"},
	{"internal/energy", "Model", "TxShare", "mJ"},
	{"internal/energy", "Model", "RxShare", "mJ"},
	{"internal/energy", "Ledger", "Collection", "mJ"},
	{"internal/energy", "Ledger", "Trigger", "mJ"},
	{"internal/energy", "Ledger", "Requests", "mJ"},
	{"internal/energy", "Ledger", "Install", "mJ"},
	{"internal/energy", "Ledger", "Messages", "msg"},
	{"internal/energy", "Ledger", "Values", "val"},
	{"internal/energy", "Ledger", "Total", "mJ"},
	{"internal/energy", "", "TxFraction", "1"},

	// internal/plan: per-node cost vectors and bandwidth plans.
	{"internal/plan", "Costs", "Msg", "mJ"},
	{"internal/plan", "Costs", "Val", "mJ/val"},
	{"internal/plan", "Costs", "ValueCost", "mJ"},
	{"internal/plan", "Plan", "Bandwidth", "val"},
	{"internal/plan", "Plan", "TotalBandwidth", "val"},
	{"internal/plan", "Plan", "CollectionCost", "mJ"},
	{"internal/plan", "Plan", "TriggerCost", "mJ"},
	{"internal/plan", "Plan", "InstallCost", "mJ"},
	{"internal/plan", "Plan", "BundleBytes", "B"},
	{"internal/plan", "Plan", "SubplanBytes", "B"},

	// internal/sim: radio-level replay of the same model.
	{"internal/sim", "Result", "NodeEnergy", "mJ"},
	{"internal/sim", "Config", "SlotSeconds", "s"},
}

// unitScopeSuffixes lists the packages unitcheck analyzes: the cost
// model and every package that does arithmetic with it.
var unitScopeSuffixes = []string{
	"internal/energy",
	"internal/plan",
	"internal/lp",
	"internal/exec",
	"internal/sim",
	"internal/core",
}

func unitScope(path string) bool {
	for _, s := range unitScopeSuffixes {
		if pathHasSuffix(path, s) {
			return true
		}
	}
	return false
}

const unitDirective = "//unit:"

// unitErr is one malformed //unit: directive, reported by unitcheck.
type unitErr struct {
	pos token.Pos
	msg string
}

// unitWorld is the cross-package unit state: declared units per
// object, return units per function (declared or inferred), directive
// errors per package, and a cache of per-function dataflow results.
type unitWorld struct {
	prog        *Program
	scope       []*Package
	decl        map[types.Object]*Unit
	ret         map[*types.Func]*Unit
	declaredRet map[*types.Func]bool
	errs        map[*Package][]unitErr

	mu    sync.Mutex
	flows map[*ast.FuncDecl]*funcFlow
}

func (w *unitWorld) flowOf(pkg *Package, fd *ast.FuncDecl) *funcFlow {
	w.mu.Lock()
	defer w.mu.Unlock()
	if ff, ok := w.flows[fd]; ok {
		return ff
	}
	ff := analyzeFlow(pkg.Info, fd.Type, fd.Recv, fd.Body)
	w.flows[fd] = ff
	return ff
}

func (w *unitWorld) addErr(pkg *Package, pos token.Pos, format string, args ...interface{}) {
	w.errs[pkg] = append(w.errs[pkg], unitErr{pos: pos, msg: fmt.Sprintf(format, args...)})
}

// buildUnitWorld collects declared units (table + directives), then
// iterates whole-module return-unit inference to a fixed point: a
// function whose single result is computed with one consistent unit
// exports that unit to its callers, even without a table row.
func buildUnitWorld(prog *Program) *unitWorld {
	w := &unitWorld{
		prog:        prog,
		decl:        make(map[types.Object]*Unit),
		ret:         make(map[*types.Func]*Unit),
		declaredRet: make(map[*types.Func]bool),
		errs:        make(map[*Package][]unitErr),
		flows:       make(map[*ast.FuncDecl]*funcFlow),
	}
	for _, pkg := range prog.Pkgs {
		if unitScope(pkg.Path) {
			w.scope = append(w.scope, pkg)
		}
	}
	for _, pkg := range w.scope {
		w.applyTable(pkg)
		w.collectDirectives(pkg)
	}
	for round := 0; round < 4; round++ {
		changed := false
		for _, pkg := range w.scope {
			for _, file := range pkg.Files {
				for _, decl := range file.Decls {
					fd, ok := decl.(*ast.FuncDecl)
					if !ok || fd.Body == nil {
						continue
					}
					if w.inferReturn(pkg, fd) {
						changed = true
					}
				}
			}
		}
		if !changed {
			break
		}
	}
	return w
}

// inferReturn analyzes one function and, when its single numeric
// result is produced with one consistent known unit, records that as
// the function's return unit. Reports whether the summary changed.
func (w *unitWorld) inferReturn(pkg *Package, fd *ast.FuncDecl) bool {
	fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
	if !ok || w.declaredRet[fn] {
		return false
	}
	sig := fn.Type().(*types.Signature)
	if sig.Results().Len() != 1 {
		return false
	}
	ua := w.analyze(pkg, fd, fn, nil)
	var inferred *Unit
	for _, ru := range ua.returns {
		if ru == nil {
			continue
		}
		if inferred != nil && !inferred.equal(ru) {
			return false // conflicting returns: stay unknown
		}
		inferred = ru
	}
	if len(ua.returns) == 0 || ua.sawUnknownReturn {
		return false
	}
	if inferred.equal(w.ret[fn]) {
		return false
	}
	w.ret[fn] = inferred
	return true
}

// retUnit is the declared or inferred return unit of fn.
func (w *unitWorld) retUnit(fn *types.Func) *Unit { return w.ret[fn] }

func (w *unitWorld) setDeclaredRet(fn *types.Func, u *Unit) {
	w.ret[fn] = u
	w.declaredRet[fn] = true
}

// applyTable resolves the table rows matching pkg's import path.
func (w *unitWorld) applyTable(pkg *Package) {
	scope := pkg.Types.Scope()
	for _, e := range unitTable {
		if !pathHasSuffix(pkg.Path, e.pkg) {
			continue
		}
		u := mustUnit(e.unit)
		if e.owner == "" {
			w.tagObject(scope.Lookup(e.name), u)
			continue
		}
		tn, ok := scope.Lookup(e.owner).(*types.TypeName)
		if !ok {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		if st, ok := named.Underlying().(*types.Struct); ok {
			for i := 0; i < st.NumFields(); i++ {
				if st.Field(i).Name() == e.name {
					w.decl[st.Field(i)] = u
				}
			}
		}
		for i := 0; i < named.NumMethods(); i++ {
			if named.Method(i).Name() == e.name {
				w.setDeclaredRet(named.Method(i), u)
			}
		}
	}
}

func (w *unitWorld) tagObject(obj types.Object, u *Unit) {
	switch obj := obj.(type) {
	case *types.Func:
		w.setDeclaredRet(obj, u)
	case *types.Var, *types.Const:
		w.decl[obj] = u
	}
}

// collectDirectives parses every //unit: comment in pkg and attaches
// each to the declaration on its line, the line below, or (for
// functions) the declaration its doc comment documents. Unattached or
// unparsable directives become unitcheck findings.
func (w *unitWorld) collectDirectives(pkg *Package) {
	for _, file := range pkg.Files {
		byLine := make(map[int][]*ast.Comment)
		used := make(map[*ast.Comment]bool)
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				if strings.HasPrefix(c.Text, unitDirective) {
					line := pkg.Fset.Position(c.Pos()).Line
					byLine[line] = append(byLine[line], c)
				}
			}
		}
		// attached returns the directives adjacent to a node starting
		// at pos, marking them consumed.
		attached := func(pos token.Pos) []*ast.Comment {
			line := pkg.Fset.Position(pos).Line
			var out []*ast.Comment
			for _, l := range [2]int{line, line - 1} {
				for _, c := range byLine[l] {
					if !used[c] {
						used[c] = true
						out = append(out, c)
					}
				}
			}
			return out
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				cs := attached(n.Pos())
				if n.Doc != nil {
					for _, c := range n.Doc.List {
						if strings.HasPrefix(c.Text, unitDirective) && !used[c] {
							used[c] = true
							cs = append(cs, c)
						}
					}
				}
				for _, c := range cs {
					w.applyFuncDirective(pkg, n, c)
				}
			case *ast.StructType:
				for _, field := range n.Fields.List {
					for _, c := range attached(field.Pos()) {
						w.applyNamedDirective(pkg, c, field.Names, "field")
					}
				}
			case *ast.ValueSpec:
				for _, c := range attached(n.Pos()) {
					w.applyNamedDirective(pkg, c, n.Names, "declaration")
				}
			case *ast.AssignStmt:
				var names []*ast.Ident
				for _, lhs := range n.Lhs {
					if id, ok := unparen(lhs).(*ast.Ident); ok && id.Name != "_" {
						names = append(names, id)
					}
				}
				for _, c := range attached(n.Pos()) {
					w.applyNamedDirective(pkg, c, names, "assignment")
				}
			}
			return true
		})
		for _, cs := range byLine {
			for _, c := range cs {
				if !used[c] {
					w.addErr(pkg, c.Pos(), "unit directive attached to no declaration")
				}
			}
		}
	}
}

// directiveTokens splits a //unit: comment into its fields.
func directiveTokens(c *ast.Comment) []string {
	return strings.Fields(strings.TrimPrefix(c.Text, unitDirective))
}

// applyFuncDirective handles a directive on a function declaration:
// every token must be name=unit (a parameter, receiver, or named
// result) or return=unit.
func (w *unitWorld) applyFuncDirective(pkg *Package, fd *ast.FuncDecl, c *ast.Comment) {
	toks := directiveTokens(c)
	if len(toks) == 0 {
		w.addErr(pkg, c.Pos(), "empty unit directive")
		return
	}
	for _, tok := range toks {
		name, unit, ok := strings.Cut(tok, "=")
		if !ok {
			w.addErr(pkg, c.Pos(), "unit directive on a function needs name=unit or return=unit, got %q", tok)
			continue
		}
		u, err := parseUnit(unit)
		if err != nil {
			w.addErr(pkg, c.Pos(), "unit directive: %v", err)
			continue
		}
		if name == "return" {
			if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
				w.setDeclaredRet(fn, u)
			}
			continue
		}
		if !w.tagFuncName(pkg, fd, name, u) {
			w.addErr(pkg, c.Pos(), "unit directive names no parameter, receiver, or result %q", name)
		}
	}
}

func (w *unitWorld) tagFuncName(pkg *Package, fd *ast.FuncDecl, name string, u *Unit) bool {
	try := func(fl *ast.FieldList) bool {
		if fl == nil {
			return false
		}
		for _, f := range fl.List {
			for _, id := range f.Names {
				if id.Name == name {
					if obj := pkg.Info.Defs[id]; obj != nil {
						w.decl[obj] = u
						return true
					}
				}
			}
		}
		return false
	}
	return try(fd.Recv) || try(fd.Type.Params) || try(fd.Type.Results)
}

// applyNamedDirective handles a directive on a field, var/const spec,
// or assignment: either one bare unit covering every declared name,
// or name=unit tokens.
func (w *unitWorld) applyNamedDirective(pkg *Package, c *ast.Comment, names []*ast.Ident, what string) {
	toks := directiveTokens(c)
	if len(toks) == 0 {
		w.addErr(pkg, c.Pos(), "empty unit directive")
		return
	}
	if len(names) == 0 {
		w.addErr(pkg, c.Pos(), "unit directive on a %s with no named targets", what)
		return
	}
	objOf := func(id *ast.Ident) types.Object {
		if obj := pkg.Info.Defs[id]; obj != nil {
			return obj
		}
		return pkg.Info.Uses[id]
	}
	for _, tok := range toks {
		if name, unit, ok := strings.Cut(tok, "="); ok {
			u, err := parseUnit(unit)
			if err != nil {
				w.addErr(pkg, c.Pos(), "unit directive: %v", err)
				continue
			}
			found := false
			for _, id := range names {
				if id.Name == name {
					if obj := objOf(id); obj != nil {
						w.decl[obj] = u
						found = true
					}
				}
			}
			if !found {
				w.addErr(pkg, c.Pos(), "unit directive names nothing called %q in this %s", name, what)
			}
			continue
		}
		u, err := parseUnit(tok)
		if err != nil {
			w.addErr(pkg, c.Pos(), "unit directive: %v", err)
			continue
		}
		for _, id := range names {
			if obj := objOf(id); obj != nil {
				w.decl[obj] = u
			}
		}
	}
}
