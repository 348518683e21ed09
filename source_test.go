package rofl_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
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

// eachDeclared calls fn for every package-level name that a non-test
// file under internal/ declares, in file order: each func, method, type,
// const and var. recv is a method's receiver type name, "" for the rest;
// decl is the *ast.FuncDecl, *ast.TypeSpec or *ast.ValueSpec.
func eachDeclared(t *testing.T, fn func(f sourceFile, id *ast.Ident, recv string, decl ast.Node)) {
	t.Helper()
	files, err := parseModule()
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if f.test || !strings.HasPrefix(f.dir, "internal/") {
			continue
		}
		for _, d := range f.ast.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				fn(f, d.Name, receiverName(d), d)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						fn(f, spec.Name, "", spec)
					case *ast.ValueSpec:
						for _, id := range spec.Names {
							fn(f, id, "", spec)
						}
					}
				}
			}
		}
	}
}

// receiverName is the name of d's receiver type, "" for a function.
func receiverName(d *ast.FuncDecl) string {
	if d.Recv == nil {
		return ""
	}
	x := d.Recv.List[0].Type
	for {
		switch e := x.(type) {
		case *ast.StarExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		case *ast.Ident:
			return e.Name
		default:
			return ""
		}
	}
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
	type name struct{ pkg, name string } // pkg is the import path
	decls := map[*ast.Ident]string{}     // declaring identifier -> its package
	var declared []*ast.Ident            // the same, in file order
	eachDeclared(t, func(f sourceFile, id *ast.Ident, recv string, _ ast.Node) {
		if recv == "" && id.Name != "_" && id.Name != "init" {
			decls[id] = importPath(f.dir)
			declared = append(declared, id)
		}
	})
	files, _ := parseModule()
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

// exportedKeep lists the exported names under internal/ that no other
// package names and that stay exported anyway, "pkg.Name" to the reason.
// Each is one member of an enumeration whose other members other
// packages name: the set stays exported together.
var exportedKeep = map[string]string{
	"wire.TypeTeardown":            wireType,
	"wire.TypeZeroID":              wireType,
	"wire.TypeCapGrant":            wireType,
	"proto.NoteJoinDone":           "a proto.NoteKind; overlay switches on the others",
	"proto.ReasonStabilizeTimeout": protoReason,
	"proto.ReasonStabilizeSilence": protoReason,
	"telemetry.LevelInfo":          "a telemetry.Level, the argument of the facade's EventLog.Emit",
	"telemetry.LevelWarn":          "a telemetry.Level, the argument of the facade's EventLog.Emit",
	"topology.RelNone":             "the zero topology.Relation; every package that reads the AS graph names the others",
}

const (
	wireType    = "a wire.Type packet kind; overlay, experiments and benchmarks/ name the others"
	protoReason = "an eviction reason in proto.Note.Reason; overlay names ReasonLivenessTimeout"
)

// An exported name under internal/ is one another package names: CI's
// staticcheck counts every exported name as used, so only a name it can
// see as unexported can be reported dead. A package-level func, const,
// var or type must be named as pkg.Name by a file of another package
// (tests, cmd/, examples/, the facade and benchmarks/ all count). A type
// is exempt when an exported func, method or struct field of its own
// package mentions it: callers reach it as a value. A method must be
// selected by its spelling in a file of another package, unless rofl.go
// aliases its receiver type (the facade's API), an interface in the
// module declares its name, or a standard interface does (String, Error,
// sort and heap, the encodings). exportedKeep lists the rest, each with
// its reason.
func TestExportedNamesUsedAcrossPackages(t *testing.T) {
	type name struct{ pkg, name string } // pkg is the import path
	files, err := parseModule()
	if err != nil {
		t.Fatal(err)
	}
	named := map[name]bool{}                   // pkg.Name selectors
	selectedIn := map[string]map[string]bool{} // selector spelling -> the packages that select it
	aliased := map[name]bool{}                 // types rofl.go aliases
	mentioned := map[name]bool{}               // types an exported func, method or field mentions
	ifaceMethods := map[string]bool{
		"String": true, "Error": true, "Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
		"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
		"MarshalBinary": true, "UnmarshalBinary": true,
	}
	for _, f := range files {
		pkg := importPath(f.dir)
		if strings.HasSuffix(f.ast.Name.Name, "_test") {
			pkg += "_test"
		}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok && f.imports[x.Name] != "" {
					named[name{f.imports[x.Name], n.Sel.Name}] = true
				} else if selectedIn[n.Sel.Name] == nil {
					selectedIn[n.Sel.Name] = map[string]bool{pkg: true}
				} else {
					selectedIn[n.Sel.Name][pkg] = true
				}
			case *ast.InterfaceType:
				for _, m := range n.Methods.List {
					for _, id := range m.Names {
						ifaceMethods[id.Name] = true
					}
				}
			case *ast.TypeSpec:
				if sel, ok := n.Type.(*ast.SelectorExpr); ok && n.Assign.IsValid() && f.dir == "." && !f.test {
					if x, ok := sel.X.(*ast.Ident); ok {
						aliased[name{f.imports[x.Name], sel.Sel.Name}] = true
					}
				}
			}
			return true
		})
	}
	mention := func(pkg string, n ast.Node) {
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				mentioned[name{pkg, id.Name}] = true
			}
			_, qualified := n.(*ast.SelectorExpr) // pkg.Name: another package's name
			return !qualified
		})
	}
	type decl struct {
		id        *ast.Ident
		pkg, recv string
		isType    bool
	}
	var exported []decl
	eachDeclared(t, func(f sourceFile, id *ast.Ident, recv string, d ast.Node) {
		pkg := importPath(f.dir)
		switch d := d.(type) {
		case *ast.FuncDecl:
			if id.IsExported() {
				mention(pkg, d.Type)
			}
		case *ast.TypeSpec:
			if st, ok := d.Type.(*ast.StructType); ok {
				for _, fld := range st.Fields.List {
					if len(fld.Names) == 0 || fld.Names[0].IsExported() {
						mention(pkg, fld.Type)
					}
				}
			}
		}
		if id.IsExported() {
			_, isType := d.(*ast.TypeSpec)
			exported = append(exported, decl{id, pkg, recv, isType})
		}
	})
	kept := map[string]bool{}
	for _, d := range exported {
		key := d.pkg[strings.LastIndex(d.pkg, "/")+1:] + "." + d.id.Name
		used := named[name{d.pkg, d.id.Name}] || d.isType && mentioned[name{d.pkg, d.id.Name}]
		if d.recv != "" {
			key = strings.TrimSuffix(key, d.id.Name) + d.recv + "." + d.id.Name
			in := selectedIn[d.id.Name]
			used = aliased[name{d.pkg, d.recv}] || ifaceMethods[d.id.Name] || len(in) > 1 || len(in) == 1 && !in[d.pkg]
		}
		if _, ok := exportedKeep[key]; ok {
			kept[key] = true
			if used {
				t.Errorf("exportedKeep lists %s, which another package already uses; drop the entry", key)
			}
			continue
		}
		if !used {
			t.Errorf("%s: %s is exported and no other package names it; unexport it", sourceFset.Position(d.id.Pos()), key)
		}
	}
	for key := range exportedKeep {
		if !kept[key] {
			t.Errorf("exportedKeep lists %s, which is not an exported name under internal/", key)
		}
	}
}

// The Makefile's header says its targets mirror CI, and a developer runs
// them to learn what CI will say. So every `$(GO) test` command in a
// Makefile recipe, read to the end of its line or the next `&&`, must
// appear verbatim in .github/workflows/ci.yml, spelt with `go` for
// `$(GO)` and `$` for make's `$$`.
func TestMakefileTestsRunInCI(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	ci, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, line := range strings.Split(string(mk), "\n") {
		if !strings.HasPrefix(line, "\t") {
			continue
		}
		for _, cmd := range strings.Split(line, "&&") {
			cmd = strings.TrimSpace(cmd)
			if !strings.HasPrefix(cmd, "$(GO) test ") {
				continue
			}
			n++
			if want := strings.ReplaceAll("go"+strings.TrimPrefix(cmd, "$(GO)"), "$$", "$"); !strings.Contains(string(ci), want) {
				t.Errorf("the Makefile runs %q, which ci.yml does not", want)
			}
		}
	}
	if n == 0 {
		t.Fatal("found no $(GO) test command in the Makefile")
	}
	t.Logf("%d $(GO) test commands checked", n)
}
