package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Hotpath checks that functions annotated `//mtlint:hotpath` contain no
// allocating constructs. The fast engine's per-event path (fast.go,
// eventtree.go, fastcache.go, fastdir.go) and the static analysis's
// per-reference profiling loop (internal/analysis/analysis.go) must stay
// allocation-free — the dynamic counterparts are AllocsPerRun proofs
// (BenchmarkEngineProbeDisabled's, and internal/lint/selfcheck_test.go's);
// this is the static half of the same contract.
//
// Flagged constructs: make / new, function literals (closures), address-of
// composite literals, slice and map literals, conversions to interface
// types, string<->[]byte/[]rune conversions, string concatenation, calls
// into package fmt, and go / defer statements. Struct and array *value*
// literals are allowed (they are stores, not allocations), as is append
// into a caller-owned scratch buffer — the engines' amortized-growth
// idiom. The check is intraprocedural: callees are not followed, so every
// function on the hot path needs its own annotation.
//
// A legitimate allocation inside an annotated function is waived with
// `//mtlint:allow hotpath -- reason` on the offending line.
var Hotpath = &Analyzer{
	Name: "hotpath",
	Doc:  "//mtlint:hotpath functions must not contain allocating constructs",
	Run:  runHotpath,
}

func runHotpath(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !hasDirective(fd.Doc, "//mtlint:hotpath") {
				continue
			}
			checkHotFunc(pass, fd)
		}
	}
}

func checkHotFunc(pass *Pass, fd *ast.FuncDecl) {
	info := pass.Pkg.Info
	walkStack(fd.Body, func(n ast.Node, stack []ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			pass.Reportf(n.Pos(), "function literal allocates a closure in hot-path function %s", fd.Name.Name)
			return false // the literal's body is the closure's problem

		case *ast.GoStmt:
			pass.Reportf(n.Pos(), "go statement in hot-path function %s", fd.Name.Name)

		case *ast.DeferStmt:
			pass.Reportf(n.Pos(), "defer in hot-path function %s", fd.Name.Name)

		case *ast.CompositeLit:
			checkHotComposite(pass, fd, n, stack, info)

		case *ast.BinaryExpr:
			if n.Op == token.ADD && isStringType(info.TypeOf(n)) {
				pass.Reportf(n.Pos(), "string concatenation allocates in hot-path function %s", fd.Name.Name)
			}

		case *ast.CallExpr:
			checkHotCall(pass, fd, n, info)
		}
		return true
	})
}

// checkHotComposite flags composite literals that allocate: slice and map
// literals (heap-backed storage) and literals whose address is taken.
// Struct/array value literals written into existing memory are allowed.
func checkHotComposite(pass *Pass, fd *ast.FuncDecl, lit *ast.CompositeLit, stack []ast.Node, info *types.Info) {
	if len(stack) > 0 {
		if u, ok := stack[len(stack)-1].(*ast.UnaryExpr); ok && u.Op == token.AND && u.X == lit {
			pass.Reportf(u.Pos(), "address of composite literal escapes in hot-path function %s", fd.Name.Name)
			return
		}
	}
	switch info.TypeOf(lit).Underlying().(type) {
	case *types.Slice:
		pass.Reportf(lit.Pos(), "slice literal allocates in hot-path function %s", fd.Name.Name)
	case *types.Map:
		pass.Reportf(lit.Pos(), "map literal allocates in hot-path function %s", fd.Name.Name)
	}
}

func checkHotCall(pass *Pass, fd *ast.FuncDecl, call *ast.CallExpr, info *types.Info) {
	// Builtins make and new.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make", "new":
				pass.Reportf(call.Pos(), "call to %s allocates in hot-path function %s", b.Name(), fd.Name.Name)
			}
			return
		}
	}

	// Conversions: T(x).
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		target := tv.Type
		if types.IsInterface(target.Underlying()) {
			pass.Reportf(call.Pos(), "conversion to interface type %s allocates in hot-path function %s", types.TypeString(target, types.RelativeTo(pass.Pkg.Types)), fd.Name.Name)
			return
		}
		if len(call.Args) == 1 {
			src := info.TypeOf(call.Args[0])
			if stringBytesConversion(src, target) {
				pass.Reportf(call.Pos(), "string/slice conversion copies and allocates in hot-path function %s", fd.Name.Name)
			}
		}
		return
	}

	// Calls into package fmt.
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if id, ok := sel.X.(*ast.Ident); ok {
			if pn, ok := info.Uses[id].(*types.PkgName); ok && pn.Imported().Path() == "fmt" {
				pass.Reportf(call.Pos(), "call to fmt.%s allocates in hot-path function %s", sel.Sel.Name, fd.Name.Name)
			}
		}
	}
}

// stringBytesConversion reports whether converting src to dst copies a
// string or byte/rune slice (string([]byte), []byte(string), etc.).
func stringBytesConversion(src, dst types.Type) bool {
	return (isStringType(dst) && isByteOrRuneSlice(src)) ||
		(isByteOrRuneSlice(dst) && isStringType(src))
}

func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	if t == nil {
		return false
	}
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune || b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}
