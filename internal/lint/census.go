package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// The shared-state census is the lint-time analogue of the paper's
// sharing matrix: instead of measuring which threads touch which cache
// lines at simulation time, it computes which struct fields are reachable
// from more than one concurrency root at compile time, and what guards
// each one.
//
// Concurrency roots per package:
//   - every `go` statement (the spawned body runs on its own goroutine);
//   - every exported function or method, counted as two roots (callers
//     on arbitrary goroutines, any number of them at once — the serving
//     tier's API surface is inherently concurrent, so a field reached
//     through one exported method alone is still shared);
//   - every function referenced as a value (an HTTP handler registered
//     with mux.HandleFunc runs on the server's connection goroutines).
//
// A field is *shared* when the functions that access it are reachable
// from two or more distinct roots. Each shared field is classified by
// what guards it:
//
//	sync       the field is itself a synchronization primitive
//	channel    the field is a channel (its operations synchronize)
//	atomic     every access goes through sync/atomic or an atomic.* type
//	mutex(L)   every access happens while lock L is held
//	immutable  the field is never written outside construction
//	annotated  the field declaration carries //mtlint:guard <class> -- why
//	NOTHING    none of the above — a latent race; census treats it as an
//	           error
//
// Accesses through a struct value allocated in the enclosing function
// (the `s := &Server{...}; s.x = y; return s` constructor idiom) are
// construction-phase: they happen before the value is published to any
// other goroutine and are exempt from guard classification. Accesses
// whose whole selector chain goes through value-typed locals of the
// current function (a value parameter, value receiver or range value
// variable) touch a stack copy, not shared memory, and are likewise
// exempt — this is what makes the `func (o Options) withDefaults()`
// normalization idiom census-clean.
//
// Lock context is propagated one level interprocedurally: a function
// that is not itself a concurrency root inherits the intersection of
// the locksets held at every one of its call sites, so the
// `evictLocked`-style helper ("caller holds mu") classifies as
// mutex-guarded without annotations. A function ever called with no
// lock held — or reachable as a root — inherits nothing.
//
// # Annotation grammar
//
//	//mtlint:guard <class> [-- reason]
//
// on the field's line, the line above it, or in its doc comment, where
// <class> is one of mutex, atomic, channel, immutable, sync, external.
// The same directive on a type declaration's line (or the line above)
// applies to every field of that struct that lacks its own field-level
// directive — for single-owner instrumentation types whose exported
// method set would otherwise count as concurrent roots. Use it for
// idioms the census cannot prove, e.g. a result field written once and
// published by close(done).
const guardDirective = "//mtlint:guard"

// CensusEntry is one shared field in the census report.
type CensusEntry struct {
	// Pkg, Type, Field identify the field.
	Pkg, Type, Field string
	// Roots is the number of distinct concurrency roots that reach an
	// access of the field.
	Roots int
	// Accesses counts non-construction access sites.
	Accesses int
	// Guard is the classification ("mutex(Server.mu)", "atomic",
	// "channel", "immutable", "sync", "annotated:<class>", "NOTHING").
	Guard string
	// Unguarded lists up to three access sites with no guard when Guard
	// is NOTHING.
	Unguarded []token.Position
}

// Unsafe reports whether the entry is an error (an unguarded shared
// field).
func (e CensusEntry) Unsafe() bool { return e.Guard == "NOTHING" }

// CensusReport runs the census over the packages and returns entries
// sorted by (package, type, field). Only fields of struct types declared
// in the analyzed packages are reported.
func CensusReport(pkgs []*Package) []CensusEntry {
	var out []CensusEntry
	for _, pkg := range pkgs {
		out = append(out, censusPackage(pkg)...)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pkg != b.Pkg {
			return a.Pkg < b.Pkg
		}
		if a.Type != b.Type {
			return a.Type < b.Type
		}
		return a.Field < b.Field
	})
	return out
}

// funcNode is one analyzable function: a declaration or a literal.
type funcNode struct {
	decl *ast.FuncDecl // nil for literals
	lit  *ast.FuncLit  // nil for declarations
	obj  *types.Func   // nil for literals
}

func (f *funcNode) body() *ast.BlockStmt {
	if f.decl != nil {
		return f.decl.Body
	}
	return f.lit.Body
}

// span returns the function's full source extent, including its
// signature, so receiver and parameter declarations test as "inside".
func (f *funcNode) span() (token.Pos, token.Pos) {
	if f.decl != nil {
		return f.decl.Pos(), f.decl.End()
	}
	return f.lit.Pos(), f.lit.End()
}

// fieldAccess is one non-construction access to a struct field.
type fieldAccess struct {
	fn     *funcNode
	pos    token.Pos
	write  bool
	locked []string // short keys of locks held at the access
	atomic bool     // access goes through sync/atomic or a wrapper method
}

// fieldDecl is one named struct field declared in the package.
type fieldDecl struct {
	typeName  string
	fieldName string
	fieldType types.Type
	annotated string // class from a //mtlint:guard directive, "" if none
}

func censusPackage(pkg *Package) []CensusEntry {
	info := pkg.Info

	// --- Field declarations and their annotations. ---------------------
	guardComments := make(map[allowKey]string) // (file,line) -> class
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if class, ok := parseGuard(c.Text); ok {
					pos := pkg.Fset.Position(c.Pos())
					guardComments[allowKey{pos.Filename, pos.Line}] = class
				}
			}
		}
	}
	decls := make(map[string]*fieldDecl) // field key -> decl
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				// A type-level directive (on the type line or the line above,
				// i.e. the tail of its doc comment) is the default for every
				// field of the struct.
				typeClass := ""
				tpos := pkg.Fset.Position(ts.Name.Pos())
				for _, line := range [2]int{tpos.Line, tpos.Line - 1} {
					if class, ok := guardComments[allowKey{tpos.Filename, line}]; ok {
						typeClass = class
					}
				}
				for _, field := range st.Fields.List {
					for _, name := range field.Names {
						key := pkg.Path + "." + ts.Name.Name + "." + name.Name
						fd := &fieldDecl{
							typeName:  ts.Name.Name,
							fieldName: name.Name,
							fieldType: info.TypeOf(field.Type),
							annotated: typeClass,
						}
						fpos := pkg.Fset.Position(name.Pos())
						for _, line := range [2]int{fpos.Line, fpos.Line - 1} {
							if class, ok := guardComments[allowKey{fpos.Filename, line}]; ok {
								fd.annotated = class
							}
						}
						decls[key] = fd
					}
				}
			}
		}
	}

	// --- Function inventory, call/reference graph, roots. ---------------
	var funcs []*funcNode
	byObj := make(map[*types.Func]*funcNode)
	byLit := make(map[*ast.FuncLit]*funcNode)
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn := &funcNode{decl: fd}
			fn.obj, _ = info.Defs[fd.Name].(*types.Func)
			funcs = append(funcs, fn)
			if fn.obj != nil {
				byObj[fn.obj] = fn
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					ln := &funcNode{lit: lit}
					funcs = append(funcs, ln)
					byLit[lit] = ln
				}
				return true
			})
		}
	}

	// Call/reference graph and concurrency roots. The enclosing function
	// of any node is derived from the ancestor stack; each root gets a
	// distinct ID so sharing counts distinct spawn points, not just
	// "rooted yes/no".
	edges := make(map[*funcNode][]*funcNode)
	roots := make(map[*funcNode][]int) // function -> root IDs that start here
	nextRoot := 0
	addRoot := func(fn *funcNode) {
		if fn != nil {
			roots[fn] = append(roots[fn], nextRoot)
			nextRoot++
		}
	}

	currentFunc := func(stack []ast.Node) *funcNode {
		for i := len(stack) - 1; i >= 0; i-- {
			switch anc := stack[i].(type) {
			case *ast.FuncLit:
				return byLit[anc]
			case *ast.FuncDecl:
				if fn := byObj[infoDef(info, anc.Name)]; fn != nil {
					return fn
				}
				for _, cand := range funcs {
					if cand.decl == anc {
						return cand
					}
				}
				return nil
			}
		}
		return nil
	}

	for _, f := range pkg.Files {
		walkStack(f, func(n ast.Node, stack []ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body == nil {
					return false
				}
				if n.Name.IsExported() {
					if fn := byObj[infoDef(info, n.Name)]; fn != nil {
						// Two goroutines may be inside it at once.
						addRoot(fn)
						addRoot(fn)
					}
				}
			case *ast.FuncLit:
				// A literal runs synchronously in its encloser (called or
				// deferred) unless it is a go statement's target — then the
				// GoStmt root covers it and no synchronous edge exists.
				if parent := currentFunc(stack); parent != nil && !isGoTarget(stack) {
					edges[parent] = append(edges[parent], byLit[n])
				}
			case *ast.GoStmt:
				switch fun := ast.Unparen(n.Call.Fun).(type) {
				case *ast.FuncLit:
					addRoot(byLit[fun])
				case *ast.Ident:
					if obj := usedFunc(info, fun); obj != nil {
						addRoot(byObj[obj])
					}
				case *ast.SelectorExpr:
					if obj := usedFunc(info, fun.Sel); obj != nil {
						addRoot(byObj[obj])
					}
				}
			case *ast.Ident:
				obj := usedFunc(info, n)
				if obj == nil {
					return true
				}
				callee, ok := byObj[obj]
				if !ok {
					return true
				}
				caller := currentFunc(stack)
				if caller == nil {
					return true
				}
				if isGoTarget(stack) {
					// Spawn, not a synchronous call: the GoStmt case already
					// made the target a root.
					return true
				}
				edges[caller] = append(edges[caller], callee)
				if !isCallCallee(stack, n) {
					addRoot(callee)
				}
			}
			return true
		})
	}

	// --- Reachable roots per function (BFS from each root). -------------
	rootsOf := make(map[*funcNode]map[int]bool)
	for fn, ids := range roots {
		for _, id := range ids {
			// BFS
			seen := map[*funcNode]bool{fn: true}
			queue := []*funcNode{fn}
			for len(queue) > 0 {
				cur := queue[0]
				queue = queue[1:]
				if rootsOf[cur] == nil {
					rootsOf[cur] = make(map[int]bool)
				}
				rootsOf[cur][id] = true
				for _, next := range edges[cur] {
					if next != nil && !seen[next] {
						seen[next] = true
						queue = append(queue, next)
					}
				}
			}
		}
	}

	// --- Access collection with locksets. -------------------------------
	atomicKeys := collectAtomicFieldKeys(pkg)
	accesses, calls := collectFieldAccesses(pkg, funcs, byObj, atomicKeys)

	// Interprocedural lock context: a non-root function inherits the
	// locks held at every one of its call sites (intersected), so
	// helpers documented as "caller holds mu" classify correctly.
	isRoot := func(fn *funcNode) bool { return len(roots[fn]) > 0 }
	entry := inheritedLocks(calls, isRoot)
	for i := range accesses {
		if inh := entry[accesses[i].fn]; len(inh) > 0 {
			accesses[i].locked = unionStrings(accesses[i].locked, inh)
		}
	}

	// --- Classification. ------------------------------------------------
	byField := make(map[string][]fieldAccess)
	for _, a := range accesses {
		byField[a.key] = append(byField[a.key], a.fieldAccess)
	}

	var out []CensusEntry
	for key, fd := range decls {
		accs := byField[key]
		rootSet := make(map[int]bool)
		for _, a := range accs {
			for id := range rootsOf[a.fn] {
				rootSet[id] = true
			}
		}
		if len(rootSet) < 2 {
			continue // not shared
		}
		e := CensusEntry{
			Pkg: pkg.Path, Type: fd.typeName, Field: fd.fieldName,
			Roots: len(rootSet), Accesses: len(accs),
		}
		e.Guard = classifyGuard(pkg, fd, key, accs, atomicKeys, &e)
		out = append(out, e)
	}
	return out
}

// keyedAccess pairs a field key with its access record.
type keyedAccess struct {
	key string
	fieldAccess
}

// infoDef fetches the *types.Func a FuncDecl defines (nil-safe).
func infoDef(info *types.Info, name *ast.Ident) *types.Func {
	fn, _ := info.Defs[name].(*types.Func)
	return fn
}

// isCallCallee reports whether ident (with ancestor stack) is the callee
// expression of a direct call: f(...) or x.f(...).
func isCallCallee(stack []ast.Node, id *ast.Ident) bool {
	// Walk outward through selector/paren wrappers to the nearest call.
	var child ast.Node = id
	for i := len(stack) - 1; i >= 0; i-- {
		switch anc := stack[i].(type) {
		case *ast.ParenExpr:
			child = anc
			continue
		case *ast.SelectorExpr:
			// Only keep climbing if we're the Sel (method name) side.
			if anc.Sel != child && anc.Sel != id {
				return false
			}
			child = anc
			continue
		case *ast.CallExpr:
			return ast.Unparen(anc.Fun) == child || anc.Fun == child
		default:
			return false
		}
	}
	return false
}

// isGoTarget reports whether the ancestor chain passes through a
// GoStmt's call (already handled as a root).
func isGoTarget(stack []ast.Node) bool {
	for i := len(stack) - 1; i >= 0 && i >= len(stack)-4; i-- {
		if _, ok := stack[i].(*ast.GoStmt); ok {
			return true
		}
	}
	return false
}

// collectAtomicFieldKeys returns the keys of fields whose address is
// taken by a sync/atomic call anywhere in the package.
func collectAtomicFieldKeys(pkg *Package) map[string]bool {
	info := pkg.Info
	keys := make(map[string]bool)
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isAtomicCall(info, call) {
				return true
			}
			for _, arg := range call.Args {
				u, ok := ast.Unparen(arg).(*ast.UnaryExpr)
				if !ok || u.Op != token.AND {
					continue
				}
				if sel, ok := ast.Unparen(u.X).(*ast.SelectorExpr); ok {
					if key := fieldKey(info, sel); key != "" {
						keys[key] = true
					}
				}
			}
			return true
		})
	}
	return keys
}

// censusCall is one static call site inside the package: who calls whom,
// and which locks the caller holds at the site.
type censusCall struct {
	caller *funcNode
	callee *funcNode
	locks  []string
}

// collectFieldAccesses walks every function with the lockset interpreter
// and records each struct-field access with its guard context, plus
// every intra-package call site with the locks held there (feeding the
// interprocedural lock inheritance).
func collectFieldAccesses(pkg *Package, funcs []*funcNode, byObj map[*types.Func]*funcNode, atomicKeys map[string]bool) ([]keyedAccess, []censusCall) {
	info := pkg.Info
	var out []keyedAccess
	var calls []censusCall
	for _, fn := range funcs {
		body := fn.body()
		if body == nil {
			continue
		}
		// Lockset per node in this function.
		locksAt := make(map[ast.Node][]heldLock)
		walkFuncBody(info, body, lockCallbacks{
			onNode: func(n ast.Node, held []heldLock) {
				if len(held) > 0 {
					cp := make([]heldLock, len(held))
					copy(cp, held)
					locksAt[n] = cp
				}
			},
		})
		// Lockset lookup: the node itself, else the nearest enclosing node
		// with a recorded lockset (the interpreter records statements and
		// many exprs).
		locksAtNode := func(n ast.Node, stack []ast.Node) []string {
			if held, ok := locksAt[n]; ok {
				return lockKeysOf(held)
			}
			for i := len(stack) - 1; i >= 0; i-- {
				if held, ok := locksAt[stack[i]]; ok {
					return lockKeysOf(held)
				}
			}
			return nil
		}
		// Constructor-local bases: variables initialized in this function
		// from a composite literal or new().
		local := constructionLocals(info, body)

		fnLocal := fn
		walkStack(body, func(n ast.Node, stack []ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok && lit != fnLocal.lit {
				return false // nested literal: analyzed as its own funcNode
			}
			if call, ok := n.(*ast.CallExpr); ok {
				if callee := calleeNode(info, byObj, call); callee != nil {
					locks := locksAtNode(call, stack)
					if isDelayedCall(stack, call) {
						// go/defer: the call does not run under the locks held
						// at the statement; contribute an empty-lockset site.
						locks = nil
					}
					calls = append(calls, censusCall{caller: fnLocal, callee: callee, locks: locks})
				}
				return true
			}
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			key := fieldKey(info, sel)
			if key == "" || !strings.HasPrefix(key, pkg.Path+".") {
				return true
			}
			if base := selectorBase(sel); base != nil {
				if obj := info.Uses[base]; obj != nil && local[obj] {
					return true // construction-phase access: exempt
				}
			}
			if localValueAccess(info, sel, fnLocal) {
				return true // access to a stack copy: exempt
			}
			acc := fieldAccess{
				fn:     fnLocal,
				pos:    sel.Pos(),
				write:  isWriteContext(stack, sel),
				locked: locksAtNode(sel, stack),
			}
			if atomicKeys[key] && isAtomicOperand(info, stack) {
				acc.atomic = true
			}
			if isWrapperMethodCall(info, stack, sel) {
				acc.atomic = true
			}
			out = append(out, keyedAccess{key: key, fieldAccess: acc})
			return true
		})
	}
	return out, calls
}

// calleeNode resolves a call expression to a same-package function
// declaration, or nil for literals, indirect calls and other packages.
func calleeNode(info *types.Info, byObj map[*types.Func]*funcNode, call *ast.CallExpr) *funcNode {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	return byObj[usedFunc(info, id)]
}

// usedFunc resolves an identifier to the function it uses, or nil. A
// method used inside a generic type's methods is an instantiated copy;
// its Origin is the declaration the call graph is keyed by.
func usedFunc(info *types.Info, id *ast.Ident) *types.Func {
	if fn, ok := info.Uses[id].(*types.Func); ok {
		return fn.Origin()
	}
	return nil
}

// isDelayedCall reports whether call is the direct operand of a go or
// defer statement (and therefore does not run at the site's lock state).
func isDelayedCall(stack []ast.Node, call *ast.CallExpr) bool {
	if len(stack) == 0 {
		return false
	}
	switch s := stack[len(stack)-1].(type) {
	case *ast.GoStmt:
		return s.Call == call
	case *ast.DeferStmt:
		return s.Call == call
	}
	return false
}

// localValueAccess reports whether sel reaches its field entirely
// through value-typed expressions rooted at a local variable of fn: the
// whole chain is values (no pointer step), so the access touches a
// stack-local copy, not shared memory. Locals captured from an
// enclosing function do not qualify — a closure shares them by
// reference with its spawner.
func localValueAccess(info *types.Info, sel *ast.SelectorExpr, fn *funcNode) bool {
	if s, ok := info.Selections[sel]; ok && s.Indirect() {
		return false // promoted through an embedded pointer
	}
	x := ast.Unparen(sel.X)
	for {
		if isPointerType(info.TypeOf(x)) {
			return false
		}
		switch e := x.(type) {
		case *ast.Ident:
			v, ok := info.Uses[e].(*types.Var)
			if !ok {
				v, ok = info.Defs[e].(*types.Var)
			}
			if !ok || v.IsField() {
				return false
			}
			start, end := fn.span()
			return v.Pos() >= start && v.Pos() < end
		case *ast.SelectorExpr:
			if s, ok := info.Selections[e]; ok && s.Indirect() {
				return false
			}
			x = ast.Unparen(e.X)
		default:
			// Index, deref, call, ... may alias shared backing memory.
			return false
		}
	}
}

// inheritedLocks computes, for each function, the set of locks provably
// held on every entry: the intersection over all call sites of (locks at
// the site ∪ the caller's own inherited set). Roots — exported
// functions, go targets, functions referenced as values — can be entered
// from anywhere and inherit nothing. The fixpoint iterates to handle
// helper-calls-helper chains; sets only shrink, so it terminates.
func inheritedLocks(calls []censusCall, isRoot func(*funcNode) bool) map[*funcNode][]string {
	entry := make(map[*funcNode][]string)
	known := make(map[*funcNode]bool)
	for _, c := range calls {
		for _, fn := range [2]*funcNode{c.caller, c.callee} {
			if fn != nil && isRoot(fn) && !known[fn] {
				known[fn] = true
				entry[fn] = nil
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, c := range calls {
			if c.caller == nil || c.callee == nil || !known[c.caller] {
				continue // unconstrained caller contributes nothing yet
			}
			site := unionStrings(c.locks, entry[c.caller])
			switch {
			case !known[c.callee]:
				known[c.callee] = true
				entry[c.callee] = site
				changed = true
			default:
				inter := intersectStrings(entry[c.callee], site)
				if len(inter) != len(entry[c.callee]) {
					entry[c.callee] = inter
					changed = true
				}
			}
		}
	}
	return entry
}

// unionStrings merges two sorted-or-not string sets into a sorted one.
func unionStrings(a, b []string) []string {
	set := make(map[string]bool, len(a)+len(b))
	for _, s := range a {
		set[s] = true
	}
	for _, s := range b {
		set[s] = true
	}
	out := make([]string, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// intersectStrings returns the sorted intersection of two string sets.
func intersectStrings(a, b []string) []string {
	set := make(map[string]bool, len(b))
	for _, s := range b {
		set[s] = true
	}
	var out []string
	for _, s := range a {
		if set[s] {
			out = append(out, s)
		}
	}
	sort.Strings(out)
	return out
}

// lockKeysOf extracts sorted short keys from a held-lock list.
func lockKeysOf(held []heldLock) []string {
	var keys []string
	for _, h := range held {
		k := h.id.key
		if k == "" {
			k = h.id.expr
		}
		keys = append(keys, shortLockKey(k))
	}
	sort.Strings(keys)
	return keys
}

// constructionLocals finds local variables whose value is allocated in
// this function body (composite literal, &composite, or new()).
func constructionLocals(info *types.Info, body *ast.BlockStmt) map[types.Object]bool {
	local := make(map[types.Object]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok || as.Tok != token.DEFINE {
			return true
		}
		for i, l := range as.Lhs {
			if i >= len(as.Rhs) {
				break
			}
			id, ok := ast.Unparen(l).(*ast.Ident)
			if !ok {
				continue
			}
			if !isAllocExpr(as.Rhs[i]) {
				continue
			}
			if obj := info.Defs[id]; obj != nil {
				local[obj] = true
			}
		}
		return true
	})
	return local
}

// isAllocExpr reports whether e freshly allocates: T{...}, &T{...}, or
// new(T).
func isAllocExpr(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		if e.Op != token.AND {
			return false
		}
		_, ok := ast.Unparen(e.X).(*ast.CompositeLit)
		return ok
	case *ast.CallExpr:
		id, ok := ast.Unparen(e.Fun).(*ast.Ident)
		return ok && id.Name == "new"
	}
	return false
}

// selectorBase returns the root identifier of a selector chain
// (s in s.a.b), or nil.
func selectorBase(sel *ast.SelectorExpr) *ast.Ident {
	x := ast.Unparen(sel.X)
	for {
		switch e := x.(type) {
		case *ast.Ident:
			return e
		case *ast.SelectorExpr:
			x = ast.Unparen(e.X)
		case *ast.IndexExpr:
			x = ast.Unparen(e.X)
		case *ast.StarExpr:
			x = ast.Unparen(e.X)
		case *ast.CallExpr:
			return nil
		default:
			return nil
		}
	}
}

// isWriteContext reports whether the selector is written: assignment
// target, inc/dec, or address-taken (escaping writes are conservatively
// writes unless the address goes to a sync/atomic call, which the
// atomic classification handles).
func isWriteContext(stack []ast.Node, sel *ast.SelectorExpr) bool {
	var child ast.Node = sel
	for i := len(stack) - 1; i >= 0; i-- {
		switch anc := stack[i].(type) {
		case *ast.ParenExpr:
			child = anc
			continue
		case *ast.AssignStmt:
			for _, l := range anc.Lhs {
				if ast.Unparen(l) == child {
					return true
				}
			}
			return false
		case *ast.IncDecStmt:
			return anc.X == child
		case *ast.UnaryExpr:
			return anc.Op == token.AND
		default:
			return false
		}
	}
	return false
}

// isWrapperMethodCall reports whether the selector (an atomic.* wrapper
// field) is the receiver of a method call: s.flag.Store(...).
func isWrapperMethodCall(info *types.Info, stack []ast.Node, sel *ast.SelectorExpr) bool {
	if !isAtomicWrapperType(info.TypeOf(sel)) {
		return false
	}
	for i := len(stack) - 1; i >= 0; i-- {
		switch stack[i].(type) {
		case *ast.ParenExpr:
			continue
		case *ast.SelectorExpr:
			return true
		default:
			return false
		}
	}
	return false
}

// classifyGuard decides a shared field's guard class.
func classifyGuard(pkg *Package, fd *fieldDecl, key string, accs []fieldAccess, atomicKeys map[string]bool, e *CensusEntry) string {
	if fd.annotated != "" {
		return "annotated:" + fd.annotated
	}
	if isSyncPrimitiveType(fd.fieldType) {
		return "sync"
	}
	if isChannelType(fd.fieldType) {
		return "channel"
	}
	if isAtomicWrapperType(derefType(fd.fieldType)) && !isPointerType(fd.fieldType) {
		return "atomic"
	}
	if atomicKeys[key] {
		// All plain accesses are atomiccheck's problem; the field's
		// discipline is atomic.
		return "atomic"
	}
	// Mutex: every access under some lock.
	allLocked := len(accs) > 0
	lockSet := make(map[string]bool)
	for _, a := range accs {
		if len(a.locked) == 0 {
			allLocked = false
			break
		}
		for _, l := range a.locked {
			lockSet[l] = true
		}
	}
	if allLocked {
		var locks []string
		for l := range lockSet {
			locks = append(locks, l)
		}
		sort.Strings(locks)
		return "mutex(" + strings.Join(locks, ",") + ")"
	}
	// Immutable: no writes outside construction.
	hasWrite := false
	for _, a := range accs {
		if a.write {
			hasWrite = true
			break
		}
	}
	if !hasWrite {
		return "immutable"
	}
	// NOTHING: record up to three unguarded sites.
	for _, a := range accs {
		if len(a.locked) == 0 && !a.atomic && len(e.Unguarded) < 3 {
			e.Unguarded = append(e.Unguarded, pkg.Fset.Position(a.pos))
		}
	}
	return "NOTHING"
}

// isSyncPrimitiveType reports whether t is (a pointer to) one of sync's
// internally synchronized types.
func isSyncPrimitiveType(t types.Type) bool {
	t = derefType(t)
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	switch obj.Name() {
	case "Mutex", "RWMutex", "WaitGroup", "Once", "Cond", "Map", "Pool":
		return true
	}
	return false
}

// isChannelType reports whether t's underlying type is a channel.
func isChannelType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Chan)
	return ok
}

// isPointerType reports whether t is a pointer.
func isPointerType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.(*types.Pointer)
	return ok
}

// derefType unwraps one level of pointer.
func derefType(t types.Type) types.Type {
	if t == nil {
		return t
	}
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// parseGuard parses "//mtlint:guard <class> [-- reason]".
func parseGuard(text string) (string, bool) {
	rest, ok := strings.CutPrefix(text, guardDirective)
	if !ok {
		return "", false
	}
	rest, _, _ = strings.Cut(rest, "--")
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return "", false
	}
	return fields[0], true
}

// FormatCensus renders entries as the deterministic text report.
func FormatCensus(entries []CensusEntry) string {
	var b strings.Builder
	lastPkg := ""
	for _, e := range entries {
		if e.Pkg != lastPkg {
			fmt.Fprintf(&b, "%s\n", e.Pkg)
			lastPkg = e.Pkg
		}
		fmt.Fprintf(&b, "  %-36s roots=%-3d accesses=%-4d guard=%s\n",
			e.Type+"."+e.Field, e.Roots, e.Accesses, e.Guard)
		for _, p := range e.Unguarded {
			fmt.Fprintf(&b, "      unguarded at %s:%d\n", p.Filename, p.Line)
		}
	}
	return b.String()
}
