package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// goleak: no fire-and-forget goroutines in the library packages. Every
// `go` statement in internal/... must carry a provable termination
// signal — some structural evidence that the goroutine stops and that
// somebody notices. The accepted shapes:
//
//	A. the goroutine body references a context.Context (cancellation
//	   plumbing is visible);
//	B. the body receives from a channel — `<-ch`, `for range ch`, or a
//	   select with a receive case — so closing the channel ends it;
//	C. the body calls wg.Done() on a sync.WaitGroup that is provably
//	   joined: a Wait() on the same local variable in the enclosing
//	   function, or on the same field/package-level WaitGroup anywhere
//	   in the package;
//	D. the enclosing function references a Close/Shutdown/Stop method
//	   of a value the goroutine captures (the http.Server idiom:
//	   `go srv.Serve(ln)` is fine when `srv.Close` is handed out);
//	E. the body signals a captured channel (close or send) that the
//	   enclosing function receives from (the done-channel idiom).
//
// For `go namedFn(...)` the callee's body is resolved through the call
// graph and scanned the same way; a wg.Done on a callee *parameter* is
// mapped back to the argument at the go site. The check is
// conservative in the accepting direction only — a `for { <-tick.C }`
// loop with no exit counts as signal B — because its job is to catch
// goroutines with no coordination at all, not to prove liveness.
type goleakScan struct {
	pkg *Package
	cg  *CallGraph
}

func newGoleakCheck() *Check {
	return &Check{
		Name: "goleak",
		Doc:  "every go statement in internal/... has a provable termination signal: context, channel receive, joined WaitGroup, reachable stopper, or done-channel hand-shake",
		Applies: func(path string) bool {
			return strings.Contains("/"+path+"/", "/internal/")
		},
		Run: func(pass *Pass) {
			gs := &goleakScan{pkg: pass.Pkg, cg: pass.Prog.CallGraph()}
			for _, file := range pass.Pkg.Files {
				for _, decl := range file.Decls {
					fd, ok := decl.(*ast.FuncDecl)
					if !ok || fd.Body == nil {
						continue
					}
					ast.Inspect(fd.Body, func(n ast.Node) bool {
						g, ok := n.(*ast.GoStmt)
						if !ok {
							return true
						}
						if !gs.terminates(fd, g) {
							pass.Reportf(g.Pos(), "goroutine has no termination signal (context, channel receive, joined WaitGroup, or reachable Close/Shutdown/Stop); it can leak")
						}
						return true
					})
				}
			}
		},
	}
}

// terminates reports whether the goroutine started by g shows one of
// the accepted termination signals.
func (gs *goleakScan) terminates(encl *ast.FuncDecl, g *ast.GoStmt) bool {
	info := gs.pkg.Info

	// The body to scan: a literal's body, or the resolved declaration
	// of a named/method callee. remap translates a WaitGroup root
	// object in the body back to the caller's world (identity for
	// literals, parameter-slot mapping for named callees).
	var body *ast.BlockStmt
	remap := func(obj types.Object) types.Object { return obj }
	var lit *ast.FuncLit
	if l, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit); ok {
		lit = l
		body = l.Body
	} else if callee := staticCallee(info, g.Call); callee != nil {
		fd := gs.cg.Decl(callee)
		declPkg := gs.cg.DeclPkg(callee)
		if fd == nil || fd.Body == nil || declPkg == nil {
			return false // unresolvable body: demand a signal we can see
		}
		body = fd.Body
		slots, _ := paramSlots(declPkg, fd)
		remap = func(obj types.Object) types.Object {
			slot, ok := slots[obj]
			if !ok {
				return obj
			}
			arg := argAtSlot(gs.pkg, g.Call, callee, slot)
			if arg == nil {
				return obj
			}
			if root := rootIdent(arg); root != nil {
				if o := gs.pkg.Info.Uses[root]; o != nil {
					return o
				}
			}
			return obj
		}
		// Signal A via arguments: passing a context into the callee
		// counts even before scanning its body.
		for _, arg := range g.Call.Args {
			if isContextType(info.TypeOf(arg)) {
				return true
			}
		}
	} else {
		return false // dynamic call (func value): no body to inspect
	}

	bodyInfo := info
	if lit == nil {
		// Named callee: its body was type-checked in its own package.
		if declPkg := gs.cg.DeclPkg(staticCallee(info, g.Call)); declPkg != nil {
			bodyInfo = declPkg.Info
		}
	}

	if gs.bodyHasContextOrReceive(bodyInfo, body) {
		return true // signals A and B
	}
	if gs.waitGroupJoined(bodyInfo, body, remap, encl) {
		return true // signal C
	}
	if lit != nil {
		captured := capturedRoots(info, lit)
		if gs.stopperReachable(encl, g, captured) {
			return true // signal D
		}
		if gs.doneChannelHandshake(info, lit, encl, g, captured) {
			return true // signal E
		}
	} else {
		// go srv.Serve(ln): the receiver and arguments are the
		// captured values for the stopper pattern.
		objs := make(map[types.Object]bool)
		note := func(e ast.Expr) {
			if e == nil {
				return
			}
			if root := rootIdent(e); root != nil {
				if obj := info.Uses[root]; obj != nil {
					objs[obj] = true
				}
			}
		}
		note(receiverExpr(info, g.Call))
		for _, arg := range g.Call.Args {
			note(arg)
		}
		if gs.stopperReachable(encl, g, objs) {
			return true
		}
	}
	return false
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	if t == nil {
		return false
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// bodyHasContextOrReceive scans a goroutine body (skipping nested
// literals) for a context reference or a channel receive.
func (gs *goleakScan) bodyHasContextOrReceive(info *types.Info, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.Ident:
			if isContextType(info.TypeOf(n)) {
				found = true
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				found = true
			}
		case *ast.RangeStmt:
			if t := info.TypeOf(n.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// waitGroupJoined implements signal C: a wg.Done() in the body whose
// WaitGroup is joined by a reachable Wait().
func (gs *goleakScan) waitGroupJoined(bodyInfo *types.Info, body *ast.BlockStmt, remap func(types.Object) types.Object, encl *ast.FuncDecl) bool {
	for _, done := range waitGroupCalls(bodyInfo, body, "Done") {
		target := remap(done.root)
		if target == nil {
			continue
		}
		// Local (or remapped-to-local) WaitGroup: Wait in the enclosing
		// function, anywhere outside the goroutine body.
		for _, wait := range waitGroupCalls(gs.pkg.Info, encl.Body, "Wait") {
			if wait.root == target || (done.field != nil && wait.field == done.field) {
				return true
			}
		}
		// Field or package-level WaitGroup: any Wait in the package on
		// the same field object / package var joins it.
		if done.field != nil || isPackageLevel(target) {
			for _, file := range gs.pkg.Files {
				for _, decl := range file.Decls {
					fd, ok := decl.(*ast.FuncDecl)
					if !ok || fd.Body == nil {
						continue
					}
					for _, wait := range waitGroupCalls(gs.pkg.Info, fd.Body, "Wait") {
						if wait.root == target || (done.field != nil && wait.field == done.field) {
							return true
						}
					}
				}
			}
		}
	}
	return false
}

// wgCall is one wg.Done()/wg.Wait() occurrence: the root object of the
// receiver chain and, for field-rooted WaitGroups, the field object.
type wgCall struct {
	root  types.Object
	field types.Object
}

func waitGroupCalls(info *types.Info, body ast.Node, method string) []wgCall {
	var out []wgCall
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != method {
			return true
		}
		if t := info.TypeOf(sel.X); t == nil || !isWaitGroup(t) {
			return true
		}
		var c wgCall
		if root := rootIdent(sel.X); root != nil {
			c.root = info.Uses[root]
			if c.root == nil {
				c.root = info.Defs[root]
			}
		}
		if inner, ok := ast.Unparen(sel.X).(*ast.SelectorExpr); ok {
			c.field = info.Uses[inner.Sel]
		}
		if c.root != nil || c.field != nil {
			out = append(out, c)
		}
		return true
	})
	return out
}

// capturedRoots collects the objects a literal references that are
// declared outside it.
func capturedRoots(info *types.Info, lit *ast.FuncLit) map[types.Object]bool {
	objs := make(map[types.Object]bool)
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := info.Uses[id]
		if obj == nil {
			return true
		}
		if obj.Pos() >= lit.Pos() && obj.Pos() < lit.End() {
			return true
		}
		objs[obj] = true
		return true
	})
	return objs
}

// stopperReachable implements signal D: the enclosing function, outside
// the go statement itself, references a Close/Shutdown/Stop method of a
// value the goroutine captures.
func (gs *goleakScan) stopperReachable(encl *ast.FuncDecl, g *ast.GoStmt, captured map[types.Object]bool) bool {
	info := gs.pkg.Info
	found := false
	ast.Inspect(encl.Body, func(n ast.Node) bool {
		if found || n == ast.Node(g) {
			return false
		}
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		switch sel.Sel.Name {
		case "Close", "Shutdown", "Stop":
		default:
			return true
		}
		if root := rootIdent(sel.X); root != nil {
			if obj := info.Uses[root]; obj != nil && captured[obj] {
				found = true
			}
		}
		return true
	})
	return found
}

// doneChannelHandshake implements signal E: the goroutine closes or
// sends on a captured channel that the enclosing function receives
// from.
func (gs *goleakScan) doneChannelHandshake(info *types.Info, lit *ast.FuncLit, encl *ast.FuncDecl, g *ast.GoStmt, captured map[types.Object]bool) bool {
	signaled := make(map[types.Object]bool)
	chanObj := func(e ast.Expr) types.Object {
		root := rootIdent(e)
		if root == nil {
			return nil
		}
		obj := info.Uses[root]
		if obj == nil || !captured[obj] {
			return nil
		}
		if t := info.TypeOf(e); t != nil {
			if _, ok := t.Underlying().(*types.Chan); ok {
				return obj
			}
		}
		return nil
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			if obj := chanObj(n.Chan); obj != nil {
				signaled[obj] = true
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "close" && len(n.Args) == 1 {
				if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
					if obj := chanObj(n.Args[0]); obj != nil {
						signaled[obj] = true
					}
				}
			}
		}
		return true
	})
	if len(signaled) == 0 {
		return false
	}
	found := false
	ast.Inspect(encl.Body, func(n ast.Node) bool {
		if found || n == ast.Node(g) {
			return false
		}
		var target ast.Expr
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				target = n.X
			}
		case *ast.RangeStmt:
			target = n.X
		}
		if target == nil {
			return true
		}
		if root := rootIdent(target); root != nil {
			if obj := info.Uses[root]; obj != nil && signaled[obj] {
				found = true
			}
		}
		return true
	})
	return found
}

// rootIdent returns the root identifier of a selector/index/deref/
// address chain (x for &x.f[i].g), or nil.
func rootIdent(e ast.Expr) *ast.Ident {
	e = ast.Unparen(e)
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = ast.Unparen(x.X)
		case *ast.IndexExpr:
			e = ast.Unparen(x.X)
		case *ast.StarExpr:
			e = ast.Unparen(x.X)
		case *ast.UnaryExpr:
			if x.Op != token.AND {
				return nil
			}
			e = ast.Unparen(x.X)
		default:
			return nil
		}
	}
}

// isPackageLevel reports whether obj is a package-scope variable.
func isPackageLevel(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	if !ok {
		return false
	}
	pkg := v.Pkg()
	return pkg != nil && pkg.Scope() == v.Parent()
}

// isWaitGroup reports whether t (through pointers) is sync.WaitGroup.
func isWaitGroup(t types.Type) bool {
	for {
		p, ok := t.(*types.Pointer)
		if !ok {
			break
		}
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == "WaitGroup"
}
