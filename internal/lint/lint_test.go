package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"
)

func TestDeterminism(t *testing.T) { RunTest(t, DeterminismAnalyzer) }
func TestIdentCmp(t *testing.T)    { RunTest(t, IdentCmpAnalyzer) }
func TestHotPath(t *testing.T)     { RunTest(t, HotPathAnalyzer) }
func TestMetricName(t *testing.T)  { RunTest(t, MetricNameAnalyzer) }

// checkSource type-checks one import-free source file into a Package
// for tests that need a program smaller than a corpus.
func checkSource(t *testing.T, importPath, src string) *Package {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, importPath+".go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	tpkg, err := (&types.Config{}).Check(importPath, fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatal(err)
	}
	return &Package{ImportPath: importPath, Dir: ".", Fset: fset, Files: []*ast.File{f}, Types: tpkg, Info: info}
}

// Deleting a //rofllint:hotpath annotation from a pinned root must be a
// finding: the checked graph must not silently shrink.
func TestHotPathRequiredRoots(t *testing.T) {
	old := requiredHotRoots
	requiredHotRoots = map[string][]string{
		"roots": {"(*T).Fast", "(*T).Gone", "(*T).Missing"},
	}
	defer func() { requiredHotRoots = old }()

	pkg := checkSource(t, "roots", `package roots

type T struct{}

//rofllint:hotpath
func (t *T) Fast() {}

func (t *T) Gone() {}
`)
	diags, err := RunAnalyzer(HotPathAnalyzer, NewProgram([]*Package{pkg}), pkg)
	if err != nil {
		t.Fatal(err)
	}
	var msgs []string
	for _, d := range diags {
		msgs = append(msgs, d.Message)
	}
	joined := strings.Join(msgs, "\n")
	if !strings.Contains(joined, "(*T).Gone is a required hot-path root and must carry //rofllint:hotpath") {
		t.Errorf("missing un-annotated-root finding in:\n%s", joined)
	}
	if !strings.Contains(joined, "required hot-path root roots.(*T).Missing not found") {
		t.Errorf("missing missing-root finding in:\n%s", joined)
	}
	if len(diags) != 2 {
		t.Errorf("want exactly 2 findings, got %d:\n%s", len(diags), joined)
	}
}

// loadRepo loads and indexes the real module once for the tests that
// assert whole-repo properties.
var loadRepo = sync.OnceValues(func() (*Program, error) {
	pkgs, err := Load("../..", "./...")
	if err != nil {
		return nil, err
	}
	return NewProgram(pkgs), nil
})

// The committed repository must be lint-clean: the full suite over the
// full module yields zero findings. This is the same run CI performs
// via cmd/rofllint, kept as a test so `go test ./...` catches
// regressions without a separate driver invocation.
func TestModuleLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module type-check is not short")
	}
	prog, err := loadRepo()
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range prog.Packages {
		for _, sa := range Suite() {
			if !sa.Applies(pkg.ImportPath) {
				continue
			}
			diags, err := RunAnalyzer(sa.Analyzer, prog, pkg)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range diags {
				t.Errorf("%s", d)
			}
		}
	}
}

// Every catalog constant must be documented in DESIGN.md §9.
func TestCrossCheckDesign(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module type-check is not short")
	}
	prog, err := loadRepo()
	if err != nil {
		t.Fatal(err)
	}
	design, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Catalogs()) == 0 {
		t.Fatal("no //rofllint:metrics catalogs found in the module; the overlay and netem instrument catalogs should be annotated")
	}
	for _, d := range CrossCheckDesign(prog, design) {
		t.Errorf("%s", d)
	}
}

// The suppression surface is budgeted: per-analyzer ignore counts must
// match the committed golden file, so growing the budget is a reviewed
// diff, not drift.
func TestIgnoreBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module type-check is not short")
	}
	prog, err := loadRepo()
	if err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile("../../lint.budget")
	if err != nil {
		t.Fatal(err)
	}
	counts := CountIgnores(prog)
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s %d\n", k, counts[k])
	}
	if got, want := b.String(), string(golden); got != want {
		t.Errorf("ignore budget drifted from lint.budget; if the new suppressions are justified, update the golden file\ngot:\n%swant:\n%s", got, want)
	}
}

// Every atomic in the module is typed (atomic.Uint64 and friends), so a
// plain read or write of an atomic field does not compile. A call to a
// package-level sync/atomic function (atomic.AddUint64(&x.f, 1), ...)
// would reopen that door: the same field could then be read plainly
// elsewhere, a race the race detector only sees on the schedules it
// happens to run.
func TestNoFunctionStyleAtomics(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module type-check is not short")
	}
	prog, err := loadRepo()
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range prog.Packages {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := calleeOf(pkg.Info, call)
				if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
					return true
				}
				if fn.Type().(*types.Signature).Recv() == nil {
					t.Errorf("%s: atomic.%s is a function-style atomic; use a typed atomic (atomic.Int64, atomic.Uint64, ...) for the field", pkg.Fset.Position(call.Pos()), fn.Name())
				}
				return true
			})
		}
	}
}

// A suppression without a reason is itself a diagnostic: suppressions
// stay audited.
func TestDirectiveRequiresReason(t *testing.T) {
	src := `package p

func f() {
	//rofllint:ignore determinism
	_ = 1
	//rofllint:ignore determinism,hotpath the schedule is wall-clock by design
	_ = 2
}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	dirs, bad := parseDirectives(fset, []*ast.File{f})
	if len(bad) != 1 {
		t.Fatalf("want 1 malformed-directive diagnostic, got %d: %v", len(bad), bad)
	}
	if !strings.Contains(bad[0].Message, "without a reason") {
		t.Errorf("unexpected message: %s", bad[0].Message)
	}
	if len(dirs) != 1 {
		t.Fatalf("want 1 well-formed directive, got %d", len(dirs))
	}
	if !dirs[0].analyzers["determinism"] || !dirs[0].analyzers["hotpath"] {
		t.Errorf("directive should cover both analyzers: %v", dirs[0].analyzers)
	}
}

// The suite's scopes must route each analyzer to its packages.
func TestSuiteScopes(t *testing.T) {
	byName := map[string]ScopedAnalyzer{}
	for _, sa := range Suite() {
		byName[sa.Analyzer.Name] = sa
	}
	cases := []struct {
		analyzer string
		path     string
		want     bool
	}{
		{"determinism", "rofl/internal/sim", true},
		{"determinism", "rofl/internal/netem", true},
		{"determinism", "rofl/internal/overlay", false},
		{"identcmp", "rofl/internal/ident", false},
		{"identcmp", "rofl/internal/canon", true},
		{"hotpath", "rofl/internal/wire", true},
		{"metricname", "rofl/internal/overlay", true},
		{"metricname", "rofl/internal/vring", false},
	}
	if len(byName) != 4 {
		t.Errorf("suite has %d analyzers, want exactly determinism, identcmp, hotpath and metricname", len(byName))
	}
	for _, c := range cases {
		sa, ok := byName[c.analyzer]
		if !ok {
			t.Fatalf("suite is missing analyzer %s", c.analyzer)
		}
		if got := sa.Applies(c.path); got != c.want {
			t.Errorf("%s.Applies(%s) = %v, want %v", c.analyzer, c.path, got, c.want)
		}
	}
}
