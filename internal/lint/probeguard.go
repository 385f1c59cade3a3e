package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ProbeGuard checks that every method call on a value of the
// observability-probe interface type (internal/obs.Probe) is dominated
// by a nil check on that same expression. The engines' contract is that
// a disabled probe costs one nil test and nothing else — an unguarded
// call either panics on the nil fast path or silently makes the probe
// mandatory.
//
// Two guard shapes are recognized, matching the repo's idiom:
//
//	if m.probe != nil { m.probe.CacheHit(...) }     // enclosing guard
//	if m.probe == nil { return }; m.probe.RunEnd(t) // early-return guard
//
// The receiver is matched syntactically (same rendered expression), and a
// compound condition guards only when the nil check is a top-level &&
// conjunct. The defining package (internal/obs) is exempt: its fan-out and
// decorator types uphold the invariant by construction (Multi drops nil
// entries before any call is made).
var ProbeGuard = &Analyzer{
	Name: "probeguard",
	Doc:  "calls on obs.Probe values must be nil-guarded",
	Run:  runProbeGuard,
}

// probeInterfacePathSuffix locates the interface the analyzer protects.
const probeInterfacePathSuffix = "internal/obs"

func runProbeGuard(pass *Pass) {
	if pathSuffixMatch(pass.Pkg.Path, probeInterfacePathSuffix) {
		return // the defining package implements the fan-out itself
	}
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		walkStack(f, func(n ast.Node, stack []ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			s, ok := info.Selections[sel]
			if !ok || s.Kind() != types.MethodVal {
				return true
			}
			if !isProbeInterface(s.Recv()) {
				return true
			}
			recv := types.ExprString(sel.X)
			if !guarded(recv, call, stack) {
				pass.Reportf(call.Pos(), "call on obs.Probe value %s is not dominated by a %s != nil check", recv, recv)
			}
			return true
		})
	}
}

// isProbeInterface reports whether t is the named interface Probe from an
// internal/obs package.
func isProbeInterface(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Name() != "Probe" || obj.Pkg() == nil {
		return false
	}
	return pathSuffixMatch(obj.Pkg().Path(), probeInterfacePathSuffix) && types.IsInterface(t)
}

// guarded reports whether the call on receiver expression recv (rendered
// form) is protected by a nil check, looking outward through the ancestor
// stack.
func guarded(recv string, call *ast.CallExpr, stack []ast.Node) bool {
	// Shape 1: an enclosing `if recv != nil { ... }` with the call in the
	// then-branch.
	var inner ast.Node = call
	for i := len(stack) - 1; i >= 0; i-- {
		switch n := stack[i].(type) {
		case *ast.IfStmt:
			if containsNode(n.Body, inner) && condAsserts(n.Cond, recv) {
				return true
			}
		case *ast.FuncLit, *ast.FuncDecl:
			// A closure may run after the guard's facts expired; don't look
			// past function boundaries except for shape 2 below, which also
			// stops here.
			return earlyReturnGuard(recv, call, stack[i:])
		}
		inner = stack[i]
	}
	return earlyReturnGuard(recv, call, stack)
}

// earlyReturnGuard detects shape 2: within the blocks between the nearest
// function boundary and the call, a preceding statement of the form
// `if recv == nil { return }` (or any terminating body) establishes the
// fact for everything after it.
func earlyReturnGuard(recv string, call *ast.CallExpr, stack []ast.Node) bool {
	var inner ast.Node = call
	for i := len(stack) - 1; i >= 0; i-- {
		if block, ok := stack[i].(*ast.BlockStmt); ok {
			idx := -1
			for j, st := range block.List {
				if st == inner {
					idx = j
					break
				}
			}
			for j := 0; j < idx; j++ {
				if ifs, ok := block.List[j].(*ast.IfStmt); ok &&
					ifs.Else == nil && condRefutes(ifs.Cond, recv) && terminates(ifs.Body) {
					return true
				}
			}
		}
		switch stack[i].(type) {
		case *ast.FuncLit, *ast.FuncDecl:
			return false
		}
		inner = stack[i]
	}
	return false
}

// condAsserts reports whether cond guarantees recv != nil when true:
// either the comparison itself or a top-level && conjunct.
func condAsserts(cond ast.Expr, recv string) bool {
	cond = ast.Unparen(cond)
	if b, ok := cond.(*ast.BinaryExpr); ok {
		switch b.Op {
		case token.LAND:
			return condAsserts(b.X, recv) || condAsserts(b.Y, recv)
		case token.NEQ:
			return nilCompare(b, recv)
		}
	}
	return false
}

// condRefutes reports whether cond being true means recv IS nil
// (`recv == nil`), i.e. the guarded body runs only on the nil path.
func condRefutes(cond ast.Expr, recv string) bool {
	cond = ast.Unparen(cond)
	b, ok := cond.(*ast.BinaryExpr)
	return ok && b.Op == token.EQL && nilCompare(b, recv)
}

// nilCompare reports whether the comparison's operands are recv and nil.
func nilCompare(b *ast.BinaryExpr, recv string) bool {
	x, y := ast.Unparen(b.X), ast.Unparen(b.Y)
	if isNilIdent(y) {
		return types.ExprString(x) == recv
	}
	if isNilIdent(x) {
		return types.ExprString(y) == recv
	}
	return false
}

func isNilIdent(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}

// terminates reports whether the block always transfers control away
// (return, panic, continue, break, or goto as its last statement).
func terminates(b *ast.BlockStmt) bool {
	if len(b.List) == 0 {
		return false
	}
	switch last := b.List[len(b.List)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		call, ok := last.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		return ok && id.Name == "panic"
	}
	return false
}

// containsNode reports whether outer's subtree contains n (by position —
// nodes of one file nest by interval).
func containsNode(outer, n ast.Node) bool {
	return outer.Pos() <= n.Pos() && n.End() <= outer.End()
}
