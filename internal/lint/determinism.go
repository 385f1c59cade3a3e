package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Determinism enforces the repo's reproducibility contract: identical
// inputs produce bit-identical results and byte-identical reports.
//
// In the simulation packages (internal/sim, internal/workload,
// internal/placement, internal/advise), the cache keys
// (internal/serve/rescache) and the memo table (internal/memo) it
// forbids wall-clock reads (time.Now) and the process-global math/rand
// source (rand.Intn etc. — rand.New with an explicit rand.NewSource seed
// is the sanctioned idiom).
//
// In the presentation packages (internal/report, internal/analysis) it
// forbids ranging over a map where the iteration order can leak into the
// result: a loop body that writes output (Write*/Print*/Fprint*/Sprint*
// calls), appends to a slice that is never handed to sort/slices in the
// same function, or accumulates floats or strings (non-commutative).
// Order-insensitive bodies — integer tallies, map writes, flag sets — are
// allowed, as is the collect-keys-then-sort idiom.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc:  "no wall-clock/global-rand in simulation packages; no map-ordered output in report packages",
	Run:  runDeterminism,
}

// determinismTimeRandScope lists package-path suffixes where time.Now and
// the global math/rand source are forbidden. internal/serve/rescache and
// internal/memo are here because cache keys and eviction order are part
// of mtserve's reproducibility contract: a clock-derived key, a
// wall-clock LRU timestamp or a randomized eviction tiebreak in the memo
// table would make a server's cache state — and therefore the Cached
// flag and hit-rate benchmarks — depend on when it ran.
// internal/advise is here because its online policies run inside the
// engines' cycle-exact loop: the differential harness replays the same
// policy on both engines and requires identical decisions, which a wall
// clock or an unseeded random tiebreak would break.
var determinismTimeRandScope = []string{"internal/sim", "internal/workload", "internal/placement", "internal/serve/rescache", "internal/memo", "internal/advise"}

// determinismMapOrderScope lists package-path suffixes where map iteration
// must not feed output or order-sensitive accumulation. internal/cluster
// is here because the coordinator keeps its worker registry and job
// tables in maps while its observable behaviour — lease grant order,
// rendezvous candidate order, /metrics series, worker-ID lists in health
// and error output — must not depend on Go's randomized map iteration.
// (The coordinator legitimately reads the wall clock for heartbeat
// liveness, so it is deliberately not in the time/rand scope.)
// internal/obs is here because its renderings are part of the repo's
// byte-determinism contract: the /metrics exposition (histogram buckets
// included) and the span/Perfetto trace export must produce identical
// bytes for identical recorded state, so map iteration must never feed
// either. (obs legitimately reads wall clocks for spans and latency
// histograms, so it too stays out of the time/rand scope.)
// internal/store is here because the durable result store keeps its
// record index in a map while its on-disk artifacts are part of the
// byte-determinism contract: compaction rewrites segments and recovery
// rebuilds the index, and if either walked the index in map order, two
// stores holding identical records could seal byte-different segment
// files — breaking the warm-restart differential (byte-identical
// artifacts across lives). (The store legitimately reads wall clocks for
// flush pacing, so it does not join the time/rand scope.)
var determinismMapOrderScope = []string{"internal/report", "internal/analysis", "internal/cluster", "internal/obs", "internal/store"}

// seededRandConstructors are the math/rand functions that do not touch the
// global source.
var seededRandConstructors = map[string]bool{"New": true, "NewSource": true}

func inScope(pkgPath string, scope []string) bool {
	for _, s := range scope {
		if pathSuffixMatch(pkgPath, s) {
			return true
		}
	}
	return false
}

func runDeterminism(pass *Pass) {
	if inScope(pass.Pkg.Path, determinismTimeRandScope) {
		checkTimeRand(pass)
	}
	if inScope(pass.Pkg.Path, determinismMapOrderScope) {
		checkMapOrder(pass)
	}
}

// checkTimeRand flags time.Now calls and global-source math/rand uses.
func checkTimeRand(pass *Pass) {
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj, ok := info.Uses[sel.Sel].(*types.Func)
			if !ok || obj.Pkg() == nil {
				return true
			}
			// Package-level functions only; methods (e.g. (*rand.Rand).Intn)
			// carry a receiver and are the sanctioned seeded idiom.
			if sig, ok := obj.Type().(*types.Signature); !ok || sig.Recv() != nil {
				return true
			}
			switch obj.Pkg().Path() {
			case "time":
				if obj.Name() == "Now" {
					pass.Reportf(sel.Pos(), "time.Now is wall-clock and breaks run reproducibility; derive times from simulated cycles")
				}
			case "math/rand", "math/rand/v2":
				if !seededRandConstructors[obj.Name()] {
					pass.Reportf(sel.Pos(), "%s.%s uses a process-global random source; use rand.New(rand.NewSource(seed))", obj.Pkg().Name(), obj.Name())
				}
			}
			return true
		})
	}
}

// checkMapOrder flags range-over-map statements whose body is
// order-sensitive.
func checkMapOrder(pass *Pass) {
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				rng, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				if _, isMap := info.TypeOf(rng.X).Underlying().(*types.Map); !isMap {
					return true
				}
				if reason := mapOrderLeak(rng, fd, info); reason != "" {
					pass.Reportf(rng.Pos(), "range over map %s %s; iterate sorted keys instead", types.ExprString(rng.X), reason)
				}
				return true
			})
		}
	}
}

// mapOrderLeak inspects a range-over-map body and returns a description of
// the first order-sensitive operation, or "" when the body is
// order-insensitive.
func mapOrderLeak(rng *ast.RangeStmt, fd *ast.FuncDecl, info *types.Info) string {
	var reason string
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if reason != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if name, ok := calleeName(n); ok && isOutputName(name) {
				reason = "feeds output through " + name + " in map iteration order"
				return false
			}
		case *ast.AssignStmt:
			if r := assignOrderLeak(n, rng, fd, info); r != "" {
				reason = r
				return false
			}
		}
		return true
	})
	return reason
}

// assignOrderLeak classifies one assignment inside a map-range body.
func assignOrderLeak(as *ast.AssignStmt, rng *ast.RangeStmt, fd *ast.FuncDecl, info *types.Info) string {
	switch as.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		t := info.TypeOf(as.Lhs[0])
		if b, ok := t.Underlying().(*types.Basic); ok {
			if b.Info()&types.IsFloat != 0 {
				return "accumulates floating-point values in map iteration order (float addition is not associative)"
			}
			if b.Info()&types.IsString != 0 {
				return "concatenates strings in map iteration order"
			}
		}
		return ""
	case token.ASSIGN, token.DEFINE:
		for i, rhs := range as.Rhs {
			call, ok := ast.Unparen(rhs).(*ast.CallExpr)
			if !ok || !isBuiltinAppend(call, info) || i >= len(as.Lhs) {
				continue
			}
			target, ok := ast.Unparen(as.Lhs[i]).(*ast.Ident)
			if !ok {
				// append into a map element, field, etc. — cannot prove a
				// later sort.
				return "appends to " + types.ExprString(as.Lhs[i]) + " in map iteration order"
			}
			obj := identObject(target, info)
			if obj == nil || !sortedLater(obj, rng, fd, info) {
				return "appends to " + target.Name + " in map iteration order without a later sort"
			}
		}
	}
	return ""
}

// sortedLater reports whether obj is passed to a sort or slices function
// after the range statement within the same function body.
func sortedLater(obj types.Object, rng *ast.RangeStmt, fd *ast.FuncDecl, info *types.Info) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if call.Pos() < rng.End() {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		id, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		pn, ok := info.Uses[id].(*types.PkgName)
		if !ok {
			return true
		}
		if p := pn.Imported().Path(); p != "sort" && p != "slices" {
			return true
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(an ast.Node) bool {
				if aid, ok := an.(*ast.Ident); ok && identObject(aid, info) == obj {
					found = true
				}
				return !found
			})
		}
		return !found
	})
	return found
}

// calleeName extracts the called function's bare name.
func calleeName(call *ast.CallExpr) (string, bool) {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name, true
	case *ast.SelectorExpr:
		return fun.Sel.Name, true
	}
	return "", false
}

// isOutputName reports whether a callee name writes or formats output.
func isOutputName(name string) bool {
	for _, prefix := range []string{"Write", "Print", "Fprint", "Sprint", "Render"} {
		if strings.HasPrefix(name, prefix) {
			return true
		}
	}
	return false
}

func isBuiltinAppend(call *ast.CallExpr, info *types.Info) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

// identObject resolves an identifier to its object via Uses or Defs.
func identObject(id *ast.Ident, info *types.Info) types.Object {
	if o := info.Uses[id]; o != nil {
		return o
	}
	return info.Defs[id]
}
