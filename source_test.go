package rofl_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	pathpkg "path"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// The tests below hold source rules over the module's Go files
// (testdata/ excluded). They parse only: a call like atomic.AddUint64 is
// recognised through the name its file imports the package under, so no
// type-check is needed. DESIGN.md §8 lists each rule with the mutation
// that fails it.

// sourceFile is one parsed file and the local names it gives its
// imports. Positions name it by its slash-separated path from the module
// root. A test file, or any file of benchmarks/ (a nested module), only
// counts as a reader of the module's names: the code rules skip it.
type sourceFile struct {
	ast     *ast.File
	imports map[string]string // local name -> import path
	dir     string
	test    bool
}

var (
	sourceFset  = token.NewFileSet()
	parseModule = sync.OnceValues(func() ([]sourceFile, error) {
		var out []sourceFile
		err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") && path != "." {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, ".go") {
				return nil
			}
			path = filepath.ToSlash(path)
			f, err := parser.ParseFile(sourceFset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			imports := map[string]string{}
			for _, spec := range f.Imports {
				p, _ := strconv.Unquote(spec.Path.Value)
				name := p[strings.LastIndex(p, "/")+1:]
				if p == "math/rand/v2" {
					name = "rand"
				}
				if spec.Name != nil {
					name = spec.Name.Name
				}
				imports[name] = p
			}
			test := strings.HasSuffix(path, "_test.go") || strings.HasPrefix(path, "benchmarks/")
			out = append(out, sourceFile{f, imports, pathpkg.Dir(path), test})
			return nil
		})
		return out, err
	})
)

// importPath is the import path of the package in the module directory
// dir.
func importPath(dir string) string {
	if dir == "." {
		return "rofl"
	}
	return "rofl/" + dir
}

// eachNode calls fn for every node of the module's non-test files, with
// its position and its file.
func eachNode(t *testing.T, fn func(f sourceFile, at token.Position, n ast.Node)) {
	t.Helper()
	files, err := parseModule()
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if f.test {
			continue
		}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			if n != nil {
				fn(f, sourceFset.Position(n.Pos()), n)
			}
			return true
		})
	}
}

// eachPackageCall calls fn for every call of a package-level function,
// pkg.Name(...), with the call's position and the package's import path.
func eachPackageCall(t *testing.T, fn func(at token.Position, pkgPath, name string)) {
	t.Helper()
	eachNode(t, func(f sourceFile, at token.Position, n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return
		}
		if x, ok := sel.X.(*ast.Ident); ok && f.imports[x.Name] != "" {
			fn(at, f.imports[x.Name], sel.Sel.Name)
		}
	})
}

// Every atomic in the module is typed (atomic.Uint64 and friends), so a
// plain read or write of an atomic field does not compile. A call to a
// package-level sync/atomic function (atomic.AddUint64(&x.f, 1), ...)
// would reopen that door: the same field could then be read plainly
// elsewhere, a race the race detector only sees on the schedules it
// happens to run.
func TestNoFunctionStyleAtomics(t *testing.T) {
	eachPackageCall(t, func(at token.Position, pkgPath, name string) {
		if pkgPath == "sync/atomic" {
			t.Errorf("%s: atomic.%s is a function-style atomic; use a typed atomic (atomic.Int64, atomic.Uint64, ...) for the field", at, name)
		}
	})
}

// seeded reports whether the file belongs to a package whose output must be
// a pure function of its seed: the simulator, the experiment drivers,
// and the protocol core that every driver replays (DESIGN.md §10).
func seeded(file string) bool {
	for _, dir := range []string{"internal/proto/", "internal/sim/", "internal/experiments/"} {
		if strings.HasPrefix(file, dir) {
			return true
		}
	}
	return false
}

// Clock reads and global-generator draws vary between two runs of the
// same seed; a select over ready channels resolves by coin flip. None
// may appear in a seeded package. netem, telemetry and cluster run on
// the wall clock by design; their seeded tests are the guard there.
func TestSeededPackagesReadNoClockOrGlobalRand(t *testing.T) {
	clock := map[string]bool{
		"Now": true, "Since": true, "Until": true, "Sleep": true, "After": true,
		"AfterFunc": true, "Tick": true, "NewTimer": true, "NewTicker": true,
	}
	randConstructors := map[string]bool{
		"New": true, "NewSource": true, "NewZipf": true, "NewPCG": true, "NewChaCha8": true,
	}
	eachPackageCall(t, func(at token.Position, pkgPath, name string) {
		if !seeded(at.Filename) {
			return
		}
		switch {
		case pkgPath == "time" && clock[name]:
			t.Errorf("%s: time.%s reads the wall clock in a seeded package; derive timing from the seeded schedule", at, name)
		case (pkgPath == "math/rand" || pkgPath == "math/rand/v2") && !randConstructors[name]:
			t.Errorf("%s: rand.%s draws from the global generator; use a *rand.Rand built from the seed", at, name)
		}
	})
	eachNode(t, func(f sourceFile, at token.Position, n ast.Node) {
		if _, ok := n.(*ast.SelectStmt); ok && seeded(at.Filename) {
			t.Errorf("%s: select in a seeded package; a seeded path has a single wake source", at)
		}
	})
}

// Flat labels are points on a circle (§2): greedy forwarding compares
// clockwise distances (ident.Distance, Between, Progress), never raw
// byte order, which looks right until a destination wraps past zero.
// Only internal/ident, which implements that arithmetic, may compare
// bytes linearly.
func TestNoBytesCompareOutsideIdent(t *testing.T) {
	eachPackageCall(t, func(at token.Position, pkgPath, name string) {
		if pkgPath == "bytes" && name == "Compare" && !strings.HasPrefix(at.Filename, "internal/ident/") {
			t.Errorf("%s: bytes.Compare imposes linear order; compare identifiers by clockwise distance", at)
		}
	})
}

// A package-level const, var, func or type declared in a non-test file
// under internal/ must be named somewhere besides its declaration: by
// its own package, tests included, or as pkg.Name from any file of the
// module, benchmarks/ included. CI's staticcheck counts every exported
// name as used, so an exported name nothing reads would otherwise stay
// unnoticed. Names match by spelling within their package, so a local
// that shadows one counts as a use. Methods are out of scope: an
// interface can need a method no code calls by name.
func TestDeclaredNamesAreReferenced(t *testing.T) {
	files, err := parseModule()
	if err != nil {
		t.Fatal(err)
	}
	type name struct{ pkg, name string } // pkg is the import path
	decls := map[*ast.Ident]string{}     // declaring identifier -> its package
	var declared []*ast.Ident            // the same, in file order
	for _, f := range files {
		if f.test || !strings.HasPrefix(f.dir, "internal/") {
			continue
		}
		add := func(id *ast.Ident) {
			if id.Name != "_" && id.Name != "init" {
				decls[id] = importPath(f.dir)
				declared = append(declared, id)
			}
		}
		for _, d := range f.ast.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					add(d.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						add(spec.Name)
					case *ast.ValueSpec:
						for _, id := range spec.Names {
							add(id)
						}
					}
				}
			}
		}
	}
	used := map[name]bool{}
	for _, f := range files {
		own := !strings.HasSuffix(f.ast.Name.Name, "_test")
		ast.Inspect(f.ast, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok && f.imports[x.Name] != "" {
					used[name{f.imports[x.Name], n.Sel.Name}] = true
				}
			case *ast.Ident:
				if _, decl := decls[n]; own && !decl {
					used[name{importPath(f.dir), n.Name}] = true
				}
			}
			return true
		})
	}
	for _, id := range declared {
		if !used[name{decls[id], id.Name}] {
			t.Errorf("%s: %s is declared and never named; delete it", sourceFset.Position(id.Pos()), id.Name)
		}
	}
}
