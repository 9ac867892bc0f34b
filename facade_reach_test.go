package vnfopt_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestFacadeReachedByPrograms holds vnfopt.go to what the programs use:
// every exported func must be named as vnfopt.<Name> by a non-test file
// under cmd/ or examples/, and every exported type alias, const or var
// must be named the same way or appear in the signature of such a func.
// A wrapper only tests call belongs next to the package it wraps.
func TestFacadeReachedByPrograms(t *testing.T) {
	fset := token.NewFileSet()
	facade, err := parser.ParseFile(fset, "vnfopt.go", nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	used := programSelectors(t, fset, "cmd", "examples")

	inSignature := map[string]bool{}
	var funcs, others []string
	for _, decl := range facade.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv != nil || !d.Name.IsExported() {
				continue
			}
			funcs = append(funcs, d.Name.Name)
			ast.Inspect(d.Type, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					inSignature[id.Name] = true
				}
				return true
			})
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					others = append(others, s.Name.Name)
				case *ast.ValueSpec:
					for _, id := range s.Names {
						others = append(others, id.Name)
					}
				}
			}
		}
	}

	var unreached []string
	for _, name := range funcs {
		if !used[name] {
			unreached = append(unreached, "func "+name)
		}
	}
	for _, name := range others {
		if ast.IsExported(name) && !used[name] && !inSignature[name] {
			unreached = append(unreached, name)
		}
	}
	if len(unreached) > 0 {
		sort.Strings(unreached)
		t.Fatalf("vnfopt.go exports %d names no program under cmd/ or examples/ uses:\n  %s",
			len(unreached), strings.Join(unreached, "\n  "))
	}
}

// programSelectors returns every <Name> that a non-test Go file under
// roots selects from its import of the "vnfopt" package.
func programSelectors(t *testing.T, fset *token.FileSet, roots ...string) map[string]bool {
	t.Helper()
	used := map[string]bool{}
	for _, root := range roots {
		err := filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error {
			if err != nil || e.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			local := ""
			for _, imp := range f.Imports {
				if p, _ := strconv.Unquote(imp.Path.Value); p == "vnfopt" {
					local = "vnfopt"
					if imp.Name != nil {
						local = imp.Name.Name
					}
				}
			}
			if local == "" {
				return nil
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok {
					if x, ok := sel.X.(*ast.Ident); ok && x.Name == local {
						used[sel.Sel.Name] = true
					}
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return used
}
