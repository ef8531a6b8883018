package analysis

import (
	"go/ast"
	"go/types"
)

// planfreeze: plan.Plan and lp.Solution are frozen after their
// constructors (the LP solver) return them — the planners compare and
// execute plans, and a mutated plan silently desynchronizes the
// planned costs from the executed ones. The check enforces, outside
// each type's defining package:
//
//  1. no direct writes through a frozen value (p.Bandwidth[i] = ...,
//     sol.X[0] = ..., *p = ...); rebinding a variable (p = q) is fine;
//  2. no composite-literal construction (plan.Plan{...} bypasses the
//     constructors' validation);
//  3. no calls that mutate a frozen argument — an interprocedural
//     fixpoint over the call graph computes, for every module
//     function, which parameters (receiver included) it writes
//     through, so handing a frozen value to a mutating helper is
//     flagged at the call site even when the write is layers deep.

// frozenSpec names one immutable-after-construction struct.
type frozenSpec struct {
	pkg  string // import-path suffix of the defining package
	name string
}

var frozenTypes = []frozenSpec{
	{"internal/plan", "Plan"},
	{"internal/lp", "Solution"},
}

// frozenName resolves t (through pointers) to a frozen type, returning
// its display name and defining package, or ok=false.
func frozenName(t types.Type) (string, *types.Package, bool) {
	for {
		p, ok := t.(*types.Pointer)
		if !ok {
			break
		}
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return "", nil, false
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return "", nil, false
	}
	for _, fs := range frozenTypes {
		if obj.Name() == fs.name && pathHasSuffix(obj.Pkg().Path(), fs.pkg) {
			return obj.Pkg().Name() + "." + obj.Name(), obj.Pkg(), true
		}
	}
	return "", nil, false
}

// prefixChain returns the proper prefixes of an assignable expression,
// innermost-first: for p.Bandwidth[i] it yields p.Bandwidth then p.
// Writing through any frozen prefix mutates the frozen struct; the
// whole expression itself is excluded so rebinding (p = q) and
// whole-struct replacement of a *field* that happens to be frozen are
// judged by their own prefixes.
func prefixChain(lhs ast.Expr) []ast.Expr {
	var chain []ast.Expr
	e := ast.Unparen(lhs)
	for {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			e = ast.Unparen(x.X)
		case *ast.IndexExpr:
			e = ast.Unparen(x.X)
		case *ast.StarExpr:
			e = ast.Unparen(x.X)
		default:
			return chain
		}
		chain = append(chain, e)
	}
}

// frozenWorld is the interprocedural mutator solution: for every
// module function, the mask of parameter slots (receiver first, when
// present) through which it writes into a frozen struct.
type frozenWorld struct {
	mutators map[*types.Func][]bool
}

// paramSlots maps a declaration's receiver and parameter objects to
// mask slots.
func paramSlots(pkg *Package, fd *ast.FuncDecl) (map[types.Object]int, int) {
	slots := make(map[types.Object]int)
	n := 0
	addFields := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			for _, name := range f.Names {
				if obj := pkg.Info.Defs[name]; obj != nil {
					slots[obj] = n
				}
				n++
			}
			if len(f.Names) == 0 { // unnamed receiver/parameter
				n++
			}
		}
	}
	addFields(fd.Recv)
	addFields(fd.Type.Params)
	return slots, n
}

// frozenWrites calls visit for every write in body whose target has a
// frozen proper prefix.
func frozenWrites(pkg *Package, body ast.Node, visit func(lhs ast.Expr, prefix ast.Expr, name string, defPkg *types.Package)) {
	check := func(lhs ast.Expr) {
		for _, pre := range prefixChain(lhs) {
			t := pkg.Info.TypeOf(pre)
			if t == nil {
				continue
			}
			if name, defPkg, ok := frozenName(t); ok {
				visit(lhs, pre, name, defPkg)
				return // one finding per write target
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				check(lhs)
			}
		case *ast.IncDecStmt:
			check(n.X)
		}
		return true
	})
}

// buildFrozenWorld computes the mutator masks: direct param-rooted
// frozen writes seed the masks, then call sites propagate them to
// callers passing their own parameters through, to a fixed point.
func buildFrozenWorld(prog *Program) *frozenWorld {
	fw := &frozenWorld{mutators: make(map[*types.Func][]bool)}
	cg := prog.CallGraph()

	slotCache := make(map[*types.Func]map[types.Object]int)
	mask := func(fn *types.Func) []bool {
		if m, ok := fw.mutators[fn]; ok {
			return m
		}
		fd := cg.Decl(fn)
		pkg := cg.DeclPkg(fn)
		if fd == nil || pkg == nil {
			return nil
		}
		slots, n := paramSlots(pkg, fd)
		slotCache[fn] = slots
		m := make([]bool, n)
		fw.mutators[fn] = m
		return m
	}

	// Seed: direct writes through a parameter.
	for _, pkg := range prog.Pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				m := mask(fn)
				frozenWrites(pkg, fd.Body, func(lhs, pre ast.Expr, name string, defPkg *types.Package) {
					root, ok := pre.(*ast.Ident)
					if !ok {
						return
					}
					obj := pkg.Info.Uses[root]
					if obj == nil {
						return
					}
					if slot, ok := slotCache[fn][obj]; ok {
						m[slot] = true
					}
				})
			}
		}
	}

	// Propagate through call sites: f passing its own parameter into a
	// mutating slot of g mutates through that parameter too.
	for changed := true; changed; {
		changed = false
		for _, site := range cg.Sites {
			calleeMask := fw.mutators[site.Callee]
			if len(calleeMask) == 0 {
				continue
			}
			callerMask := mask(site.Caller)
			if callerMask == nil {
				continue
			}
			callerSlots := slotCache[site.Caller]
			for slot, muts := range calleeMask {
				if !muts {
					continue
				}
				arg := argAtSlot(site.Pkg, site.Call, site.Callee, slot)
				if arg == nil {
					continue
				}
				id, ok := ast.Unparen(arg).(*ast.Ident)
				if !ok {
					continue
				}
				obj := site.Pkg.Info.Uses[id]
				if obj == nil {
					continue
				}
				if cs, ok := callerSlots[obj]; ok && !callerMask[cs] {
					callerMask[cs] = true
					changed = true
				}
			}
		}
	}
	return fw
}

// argAtSlot returns the expression a call passes in the callee's given
// mask slot: the receiver expression for slot 0 of a method, the
// positional argument otherwise.
func argAtSlot(pkg *Package, call *ast.CallExpr, callee *types.Func, slot int) ast.Expr {
	sig, ok := callee.Type().(*types.Signature)
	if !ok {
		return nil
	}
	if sig.Recv() != nil {
		if slot == 0 {
			return receiverExpr(pkg.Info, call)
		}
		slot--
	}
	if slot < len(call.Args) {
		return call.Args[slot]
	}
	return nil
}

// newPlanfreezeCheck builds the planfreeze analyzer.
func newPlanfreezeCheck() *Check {
	return &Check{
		Name: "planfreeze",
		Doc:  "plan.Plan and lp.Solution are immutable outside their defining packages",
		Run: func(pass *Pass) {
			fw := pass.Prog.frozenWorld()
			cg := pass.Prog.CallGraph()
			samePkg := func(defPkg *types.Package) bool { return pass.Pkg.Types == defPkg }

			for _, file := range pass.Pkg.Files {
				// Rule 2: composite-literal construction.
				ast.Inspect(file, func(n ast.Node) bool {
					cl, ok := n.(*ast.CompositeLit)
					if !ok {
						return true
					}
					t := pass.Pkg.Info.TypeOf(cl)
					if t == nil {
						return true
					}
					if name, defPkg, ok := frozenName(t); ok && !samePkg(defPkg) {
						pass.Reportf(cl.Pos(), "composite literal constructs frozen %s outside %s; use its constructors", name, defPkg.Name())
					}
					return true
				})
				// Rule 1: direct writes.
				for _, decl := range file.Decls {
					fd, ok := decl.(*ast.FuncDecl)
					if !ok || fd.Body == nil {
						continue
					}
					frozenWrites(pass.Pkg, fd.Body, func(lhs, pre ast.Expr, name string, defPkg *types.Package) {
						if samePkg(defPkg) {
							return
						}
						pass.Reportf(lhs.Pos(), "write to frozen %s outside %s; plans are immutable once built", name, defPkg.Name())
					})
				}
			}
			// Rule 3: calls that mutate a frozen argument.
			for _, site := range cg.Sites {
				if site.Pkg != pass.Pkg {
					continue
				}
				m := fw.mutators[site.Callee]
				for slot, muts := range m {
					if !muts {
						continue
					}
					arg := argAtSlot(pass.Pkg, site.Call, site.Callee, slot)
					if arg == nil {
						continue
					}
					t := pass.Pkg.Info.TypeOf(arg)
					if t == nil {
						continue
					}
					if name, defPkg, ok := frozenName(t); ok && !samePkg(defPkg) {
						pass.Reportf(arg.Pos(), "call to %s mutates its frozen %s argument", site.Callee.Name(), name)
					}
				}
			}
		},
	}
}
