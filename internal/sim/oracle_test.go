package sim

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestReferenceEngineIsTestOnly keeps the reference engine an oracle: no
// production file outside this package may name sim.ReferenceEngine or
// sim.RunChecked. Test files and this package's own code are exempt —
// the differential, property and fuzz suites are what the reference
// engine is kept for.
func TestReferenceEngineIsTestOnly(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	self, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	oracle := map[string]bool{"ReferenceEngine": true, "RunChecked": true}
	fset := token.NewFileSet()
	checked := 0
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path == self || name == "testdata" || (path != root && strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		checked++
		local := ""
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "repro/internal/sim" {
				local = "sim"
				if imp.Name != nil {
					local = imp.Name.Name
				}
			}
		}
		if local == "" {
			return nil
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && oracle[sel.Sel.Name] {
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == local {
					rel, _ := filepath.Rel(root, path)
					t.Errorf("%s:%d: production code names sim.%s; the reference engine is a test oracle",
						rel, fset.Position(sel.Pos()).Line, sel.Sel.Name)
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if checked < 50 {
		t.Fatalf("scanned only %d production files under %s; is the module root right?", checked, root)
	}
}
