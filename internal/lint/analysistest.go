package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// This file is rofllint's stand-in for golang.org/x/tools'
// go/analysis/analysistest: RunTest applies an analyzer to a testdata
// package and checks its diagnostics against `// want "regexp"`
// comments, so each analyzer carries a golden corpus of positive and
// negative cases.

// RunTest type-checks the package in testdata/src/<a.Name> and verifies
// that a's diagnostics exactly match the corpus's want comments.
func RunTest(t *testing.T, a *Analyzer) {
	t.Helper()
	dir := filepath.Join("testdata", "src", a.Name)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading corpus: %v", err)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	importSet := map[string]bool{}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			t.Fatalf("parsing corpus: %v", err)
		}
		files = append(files, f)
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			importSet[path] = true
		}
	}
	if len(files) == 0 {
		t.Fatalf("corpus %s has no Go files", dir)
	}
	// Collect export data for everything the corpus imports. The test's
	// working directory is internal/lint, which is inside the module, so
	// module-path patterns resolve without touching the network.
	patterns := make([]string, 0, len(importSet)+1)
	patterns = append(patterns, "rofl/...")
	for p := range importSet {
		patterns = append(patterns, p)
	}
	sort.Strings(patterns)
	listed, err := goList(".", patterns...)
	if err != nil {
		t.Fatalf("building export data: %v", err)
	}
	imp := newExportImporter(fset, listed)
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(a.Name, fset, files, info)
	if err != nil {
		t.Fatalf("type-checking corpus: %v", err)
	}
	pkg := &Package{ImportPath: a.Name, Dir: dir, Fset: fset, Files: files, Types: tpkg, Info: info}
	got, err := RunAnalyzer(a, pkg)
	if err != nil {
		t.Fatalf("running %s: %v", a.Name, err)
	}
	checkWants(t, fset, files, got)
}

// wantKey addresses one source line.
type wantKey struct {
	file string
	line int
}

var wantRe = regexp.MustCompile(`//\s*want\s+(.*)$`)

// parseWants extracts the expected-diagnostic regexps per line.
func parseWants(t *testing.T, fset *token.FileSet, files []*ast.File) map[wantKey][]*regexp.Regexp {
	t.Helper()
	wants := map[wantKey][]*regexp.Regexp{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				key := wantKey{pos.Filename, pos.Line}
				for _, q := range splitQuoted(m[1]) {
					pat, err := strconv.Unquote(q)
					if err != nil {
						t.Fatalf("%s: bad want pattern %s: %v", pos, q, err)
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", pos, pat, err)
					}
					wants[key] = append(wants[key], re)
				}
			}
		}
	}
	return wants
}

// splitQuoted splits `"a" "b c"` into its double-quoted segments,
// keeping the quotes so strconv.Unquote can process escapes.
func splitQuoted(s string) []string {
	var out []string
	for {
		start := strings.IndexByte(s, '"')
		if start < 0 {
			return out
		}
		end := start + 1
		for end < len(s) {
			if s[end] == '\\' {
				end += 2
				continue
			}
			if s[end] == '"' {
				break
			}
			end++
		}
		if end >= len(s) {
			return out
		}
		out = append(out, s[start:end+1])
		s = s[end+1:]
	}
}

// checkWants matches diagnostics against want comments on the same line
// and reports both unexpected and missing diagnostics.
func checkWants(t *testing.T, fset *token.FileSet, files []*ast.File, got []Diagnostic) {
	t.Helper()
	wants := parseWants(t, fset, files)
	for _, d := range got {
		key := wantKey{d.Pos.Filename, d.Pos.Line}
		matched := -1
		for i, re := range wants[key] {
			if re.MatchString(d.Message) {
				matched = i
				break
			}
		}
		if matched < 0 {
			t.Errorf("unexpected diagnostic: %s", d)
			continue
		}
		wants[key] = append(wants[key][:matched], wants[key][matched+1:]...)
		if len(wants[key]) == 0 {
			delete(wants, key)
		}
	}
	for key, res := range wants {
		for _, re := range res {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", key.file, key.line, re)
		}
	}
}
