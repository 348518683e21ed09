// Package lint is ROFL's project-specific static-analysis suite. It
// enforces the invariants no stock linter knows about and no short test
// can check as well — the properties the reproduction's correctness
// arguments lean on:
//
//   - determinism: the simulation, experiment, and netem fault-schedule
//     paths must be pure functions of their seeds (no wall clock, no
//     global math/rand, no map-iteration order leaking into output, no
//     select races);
//   - identcmp: flat labels are points on a circle; linear byte-order
//     comparisons of ident.ID outside the ident package are forbidden
//     unless they are documented tie-breaks or sorted-storage probes;
//   - hotpath: functions annotated //rofllint:hotpath and everything
//     statically reachable from them must be allocation-free — the
//     static, whole-graph version of the AllocsPerRun spot checks;
//   - metricname: metric handles are nil-safe, so a typo'd series name
//     silently no-ops; every Registry resolution and EventLog event
//     type must be a constant from the package's //rofllint:metrics
//     catalog, cross-checked against DESIGN.md §9.
//
// Properties the code satisfies by construction, or that a short test
// pins as well, are guarded by tests instead; DESIGN.md §8 lists each
// guard and the mutation that fails it.
//
// The framework is a deliberately small, dependency-free subset of
// golang.org/x/tools/go/analysis (the container builds offline), sharing
// its shape: an Analyzer runs over a type-checked package via a Pass and
// reports Diagnostics. cmd/rofllint is the multichecker driver; each
// analyzer ships an analysistest-style golden corpus under testdata/.
//
// Findings can be suppressed, one site at a time, with an audited
// directive placed on the offending line or the line above:
//
//	//rofllint:ignore <analyzer>[,<analyzer>] <reason>
//
// The reason is mandatory: a suppression without a justification is
// itself a diagnostic.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Analyzer is one named static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and ignore directives.
	Name string
	// Doc is the one-line invariant the analyzer enforces.
	Doc string
	// Run inspects the package behind pass and reports findings via
	// pass.Reportf.
	Run func(*Pass) error
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	// ImportPath is the package's import path (the corpus package name
	// under analysistest).
	ImportPath string
	// Prog is the whole loaded program: every package the driver
	// loaded, indexed into the conservative call graph. Intraprocedural
	// analyzers ignore it; the callgraph-aware ones (hotpath,
	// metricname) resolve cross-package facts through it.
	Prog *Program

	diags []Diagnostic
}

// Diagnostic is one finding at one position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders a diagnostic the way compilers do.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of e, or nil.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Info.TypeOf(e) }

// ObjectOf resolves an identifier to its object, or nil.
func (p *Pass) ObjectOf(id *ast.Ident) types.Object {
	if o := p.Info.ObjectOf(id); o != nil {
		return o
	}
	return nil
}

// --- Ignore directives ----------------------------------------------------

var directiveRe = regexp.MustCompile(`^//rofllint:ignore\s+(\S+)(?:\s+(.*))?$`)

// ignoreDirective is one parsed //rofllint:ignore comment.
type ignoreDirective struct {
	pos       token.Position
	analyzers map[string]bool
	reason    string
}

// parseDirectives extracts ignore directives from a file's comments.
// Malformed directives (missing reason) are returned separately as
// diagnostics so suppressions stay audited.
func parseDirectives(fset *token.FileSet, files []*ast.File) ([]ignoreDirective, []Diagnostic) {
	var dirs []ignoreDirective
	var bad []Diagnostic
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := directiveRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				reason := strings.TrimSpace(m[2])
				if reason == "" {
					bad = append(bad, Diagnostic{
						Pos:      pos,
						Analyzer: "rofllint",
						Message:  "ignore directive without a reason: every suppression must say why the invariant holds anyway",
					})
					continue
				}
				names := map[string]bool{}
				for _, n := range strings.Split(m[1], ",") {
					names[strings.TrimSpace(n)] = true
				}
				dirs = append(dirs, ignoreDirective{pos: pos, analyzers: names, reason: reason})
			}
		}
	}
	return dirs, bad
}

// suppressed reports whether d is covered by a directive on its own line
// or on the line immediately above (the standalone-comment form).
func suppressed(d Diagnostic, dirs []ignoreDirective) bool {
	for _, dir := range dirs {
		if !dir.analyzers[d.Analyzer] {
			continue
		}
		if dir.pos.Filename != d.Pos.Filename {
			continue
		}
		if dir.pos.Line == d.Pos.Line || dir.pos.Line == d.Pos.Line-1 {
			return true
		}
	}
	return false
}

// RunAnalyzer applies a to pkg and returns the surviving diagnostics:
// findings not covered by an ignore directive, plus one diagnostic per
// malformed directive. prog is the whole loaded program (the call graph
// spanning every package the driver loaded); pass it even when running
// a single analyzer over a single package so the callgraph-aware
// analyzers can resolve cross-package reachability.
func RunAnalyzer(a *Analyzer, prog *Program, pkg *Package) ([]Diagnostic, error) {
	pass := &Pass{
		Analyzer:   a,
		Fset:       pkg.Fset,
		Files:      pkg.Files,
		Pkg:        pkg.Types,
		Info:       pkg.Info,
		ImportPath: pkg.ImportPath,
		Prog:       prog,
	}
	if err := a.Run(pass); err != nil {
		return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.ImportPath, err)
	}
	dirs, bad := parseDirectives(pkg.Fset, pkg.Files)
	out := append([]Diagnostic(nil), bad...)
	for _, d := range pass.diags {
		if !suppressed(d, dirs) {
			out = append(out, d)
		}
	}
	sortDiagnostics(out)
	return out, nil
}

func sortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Message < b.Message
	})
}

// --- Suite ----------------------------------------------------------------

// ScopedAnalyzer pairs an analyzer with the predicate deciding which
// packages it applies to, keyed by import path.
type ScopedAnalyzer struct {
	Analyzer *Analyzer
	// Applies reports whether the analyzer runs on the package with the
	// given import path.
	Applies func(importPath string) bool
}

// Suite returns rofllint's analyzers with their package scopes:
//
//   - determinism runs on the seeded-RNG packages (sim, experiments,
//     netem, proto) and the observability/supervision packages
//     (telemetry, cluster), whose outputs must be pure functions of
//     their seeds — metric scrapes, churn schedules, and journals are
//     compared byte-for-byte across runs; the proto core in particular
//     promises identical transitions across drivers, so any ambient
//     clock or RNG in it is a bug by contract;
//   - identcmp runs everywhere except the ident package itself, which
//     implements the comparison helpers;
//   - hotpath runs everywhere: hot-path reachability crosses package
//     boundaries (wire, vring, ident, telemetry are all reachable from
//     the overlay's read loop);
//   - metricname runs on the packages that resolve telemetry series and
//     emit events (overlay, cluster, netem).
func Suite() []ScopedAnalyzer {
	return []ScopedAnalyzer{
		{DeterminismAnalyzer, pathIsAny("rofl/internal/sim", "rofl/internal/experiments", "rofl/internal/netem", "rofl/internal/telemetry", "rofl/internal/cluster", "rofl/internal/proto")},
		{IdentCmpAnalyzer, func(p string) bool { return p != "rofl/internal/ident" }},
		{HotPathAnalyzer, func(string) bool { return true }},
		{MetricNameAnalyzer, pathIsAny("rofl/internal/overlay", "rofl/internal/cluster", "rofl/internal/netem")},
	}
}

func pathIsAny(paths ...string) func(string) bool {
	return func(p string) bool {
		for _, want := range paths {
			if p == want || strings.HasPrefix(p, want+"/") {
				return true
			}
		}
		return false
	}
}
