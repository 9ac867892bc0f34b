package vnfopt_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// reachAllowed is what the reach tests let stand although no program
// reaches it. A bare key is an internal package (its path after
// internal/): it may be an orphan, and its exported names go unread. A
// dotted key is one func ("graph.AllPairsSequential") or method
// ("graph.Graph.Dijkstra"). Every reason opens with its group, and there
// are three: "oracle:" (a plain implementation tests hold the real one
// to), "harness:" (code that exists to drive tests) and "ablation:" (a
// variant EXPERIMENTS.md reports numbers for, cited in backquotes).
var reachAllowed = map[string]string{
	"chaos":                    "harness: seeded fault schedules against a fault-free reference engine (make chaos-smoke)",
	"differential":             "harness: the solver differential and cost-cache fuzz targets (make fuzz)",
	"failfs":                   "harness: the crash matrix fails the filesystem through it at every I/O boundary",
	"ilp":                      "ablation: the Fig. 4 row on the ILP's path assumption, `internal/ilp`",
	"graph.AllPairsSequential": "oracle: the one-source-at-a-time APSP every parallel and incremental build is held to bit for bit",
	"graph.APSP.Built":         "harness: which rows a lazily built matrix holds; the engine and fault tests pin a workload's read set with it",
	"graph.Graph.Dijkstra":     "oracle: the adjacency-list Dijkstra the CSR kernels are held to",
	"graph.CSR.Dijkstra":       "oracle: the full single-source search sfcroute holds a route with no stage to (TestEmptyChainIsPlainShortestPath)",
	"graph.Graph.EdgeWeight":   "oracle: a pristine edge's weight read off the adjacency list; the degrade tests hold a view's fabric weights to its multiples",
	"topology.Jellyfish":       "harness: the random-regular fabric of the generality tests and the large-fabric APSP benchmarks",
	"migration.FullFrontiers":  "ablation: the exhaustive-frontier row, `BenchmarkAblationFullFrontier`",
	"sim.Simulator.RunEngine":  "ablation: the drift-trigger row drives the engine through `sim.RunEngine`",
}

// stdlibMethods are method names a standard-library interface declares:
// a type satisfies error, fmt.Stringer, json.Marshaler, sort.Interface
// and the like by having them, so nothing needs to name them.
var stdlibMethods = map[string]bool{
	"Error": true, "Unwrap": true, "String": true, "GoString": true, "Format": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"Read": true, "Write": true, "Close": true, "Seek": true, "Sync": true,
	"ServeHTTP": true,
}

// TestInternalPackagesReachedByPrograms fails on an internal package no
// program imports: one that neither cmd/, examples/ nor the bench module
// reaches through its import closure. The facade (the root package) is a
// library, not a program: what only it imports is not reached.
func TestInternalPackagesReachedByPrograms(t *testing.T) {
	files := parseTree(t)
	reached := reachedPackages(files)
	var orphans []string
	for _, pkg := range internalPackages(files) {
		if !reached[pkg] && reachAllowed[pkg] == "" {
			orphans = append(orphans, pkg)
		}
	}
	if len(orphans) > 0 {
		t.Fatalf("internal packages no program under cmd/, examples/ or bench/ imports, and not in reachAllowed:\n  %s",
			strings.Join(orphans, "\n  "))
	}
}

// TestInternalNamesReachedOutsidePackage holds internal/ to what other
// code reads: every exported func and method declared in a non-test file
// must be named by a non-test file outside its own package (under cmd/,
// examples/, bench/, another internal package, or the facade). A func is
// named when a file writes pkg.Name. A method is named when a file has a
// .Name selector, when an interface type in the tree declares it, or when
// a standard-library interface does. What only its own package reads is
// unexported; what only tests read is deleted, or has a reason in
// reachAllowed.
func TestInternalNamesReachedOutsidePackage(t *testing.T) {
	files := parseTree(t)
	interfaceMethods := map[string]bool{}
	for _, f := range files {
		ast.Inspect(f.ast, func(n ast.Node) bool {
			if it, ok := n.(*ast.InterfaceType); ok {
				for _, m := range it.Methods.List {
					for _, id := range m.Names {
						interfaceMethods[id.Name] = true
					}
				}
			}
			return true
		})
	}

	used := map[string]bool{} // allow-list keys that excused a name
	var unread []string
	for _, pkg := range internalPackages(files) {
		dir := "internal/" + pkg
		funcs := map[string]bool{}   // pkg.Name written outside the package
		methods := map[string]bool{} // .Name selected outside the package
		for _, f := range files {
			if f.dir == dir {
				continue
			}
			for name := range selectors(f.ast, "vnfopt/"+dir) {
				funcs[name] = true
			}
			ast.Inspect(f.ast, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok {
					methods[sel.Sel.Name] = true
				}
				return true
			})
		}
		for _, f := range files {
			if f.dir != dir {
				continue
			}
			for _, decl := range f.ast.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || !fn.Name.IsExported() {
					continue
				}
				name, key := fn.Name.Name, pkg+"."+fn.Name.Name
				if fn.Recv == nil && funcs[name] {
					continue
				}
				if fn.Recv != nil {
					if methods[name] || interfaceMethods[name] || stdlibMethods[name] {
						continue
					}
					key = pkg + "." + receiverType(fn.Recv.List[0].Type) + "." + name
				}
				switch {
				case reachAllowed[key] != "":
					used[key] = true
				case reachAllowed[pkg] != "":
					used[pkg] = true
				default:
					unread = append(unread, key)
				}
			}
		}
	}
	if len(unread) > 0 {
		sort.Strings(unread)
		t.Errorf("%d exported funcs and methods of internal/ that no non-test file outside their package names; "+
			"delete them, unexport them, or give reachAllowed a reason:\n  %s", len(unread), strings.Join(unread, "\n  "))
	}

	experiments, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	reached := reachedPackages(files)
	for key, reason := range reachAllowed {
		group, _, _ := strings.Cut(reason, ":")
		switch group {
		case "oracle", "harness":
		case "ablation":
			_, cite, _ := strings.Cut(reason, "`")
			cite, _, _ = strings.Cut(cite, "`")
			if cite == "" || !strings.Contains(string(experiments), "`"+cite+"`") {
				t.Errorf("reachAllowed[%q] is an ablation whose citation %q EXPERIMENTS.md lacks", key, cite)
			}
		default:
			t.Errorf("reachAllowed[%q] = %q: a reason opens with oracle:, harness: or ablation:", key, reason)
		}
		// A package entry stands while the package is an orphan or has
		// unread names; a name entry while the name is unread.
		if !used[key] && (strings.Contains(key, ".") || reached[key]) {
			t.Errorf("reachAllowed[%q] excuses nothing: drop it", key)
		}
	}
}

// sourceFile is one parsed non-test Go file of the repository.
type sourceFile struct {
	dir string // slash path of its directory from the repository root; "." for the facade
	ast *ast.File
}

// parseTree parses every non-test Go file of the repository, the bench
// module included, skipping testdata and the bench's output directory.
func parseTree(t *testing.T) []sourceFile {
	t.Helper()
	fset := token.NewFileSet()
	var files []sourceFile
	err := filepath.WalkDir(".", func(p string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			if name := e.Name(); p != "." && (strings.HasPrefix(name, ".") || name == "testdata" || p == filepath.Join("bench", "out")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, sourceFile{dir: path.Dir(filepath.ToSlash(p)), ast: f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// isProgram reports whether files in dir are programs the reach rules
// start from: a command, an example, or the bench module.
func isProgram(dir string) bool {
	return dir == "bench" || strings.HasPrefix(dir, "cmd/") || strings.HasPrefix(dir, "examples/")
}

// reachedPackages returns the internal packages, by their path after
// internal/, in the import closure of the programs.
func reachedPackages(files []sourceFile) map[string]bool {
	imports := map[string][]string{} // dir → the internal packages it imports
	var queue []string
	for _, f := range files {
		if isProgram(f.dir) {
			queue = append(queue, f.dir)
		}
		for _, imp := range f.ast.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			if pkg, ok := strings.CutPrefix(p, "vnfopt/internal/"); ok {
				imports[f.dir] = append(imports[f.dir], pkg)
			}
		}
	}
	reached := map[string]bool{}
	for len(queue) > 0 {
		dir := queue[0]
		queue = queue[1:]
		for _, pkg := range imports[dir] {
			if !reached[pkg] {
				reached[pkg] = true
				queue = append(queue, "internal/"+pkg)
			}
		}
	}
	return reached
}

// internalPackages lists the internal packages by their path after
// internal/, sorted.
func internalPackages(files []sourceFile) []string {
	seen := map[string]bool{}
	var pkgs []string
	for _, f := range files {
		if pkg, ok := strings.CutPrefix(f.dir, "internal/"); ok && !seen[pkg] {
			seen[pkg] = true
			pkgs = append(pkgs, pkg)
		}
	}
	sort.Strings(pkgs)
	return pkgs
}

// selectors returns every Name that f selects, as X.Name, from its import
// of the package at importPath.
func selectors(f *ast.File, importPath string) map[string]bool {
	local := ""
	for _, imp := range f.Imports {
		if p, _ := strconv.Unquote(imp.Path.Value); p == importPath {
			local = path.Base(importPath)
			if imp.Name != nil {
				local = imp.Name.Name
			}
		}
	}
	used := map[string]bool{}
	if local == "" {
		return used
	}
	ast.Inspect(f, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if x, ok := sel.X.(*ast.Ident); ok && x.Name == local {
				used[sel.Sel.Name] = true
			}
		}
		return true
	})
	return used
}

// receiverType returns the type name of a method receiver: T for T, *T,
// T[P] and *T[P].
func receiverType(expr ast.Expr) string {
	for {
		switch x := expr.(type) {
		case *ast.StarExpr:
			expr = x.X
		case *ast.IndexExpr:
			expr = x.X
		case *ast.IndexListExpr:
			expr = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}
