package vnfopt_test

import (
	"go/ast"
	"sort"
	"strings"
	"testing"
)

// TestFacadeReachedByPrograms holds vnfopt.go to what the programs use:
// every exported func must be named as vnfopt.<Name> by a non-test file
// under cmd/ or examples/, and every exported type alias, const or var
// must be named the same way or appear in the signature of such a func.
// A wrapper only tests call belongs next to the package it wraps.
func TestFacadeReachedByPrograms(t *testing.T) {
	files := parseTree(t)
	used := map[string]bool{}
	var facade []ast.Decl
	for _, f := range files {
		switch {
		case f.dir == ".":
			facade = append(facade, f.ast.Decls...)
		case isProgram(f.dir) && f.dir != "bench":
			for name := range selectors(f.ast, "vnfopt") {
				used[name] = true
			}
		}
	}

	inSignature := map[string]bool{}
	var funcs, others []string
	for _, decl := range facade {
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
