//go:build audit

package rofl_test

import (
	"go/ast"
	"go/importer"
	"go/token"
	"go/types"
	"slices"
	"strings"
	"testing"
)

// TestWriteOnlyFields type-checks the module's non-test packages from
// source and reports every unexported struct field that no non-test code
// reads: state the program stores and never consults. Storing a field,
// keyed or positionally in a composite literal, through op-assignment,
// ++ or --, an element store x.f[i] = v, or x.f = append(x.f, ...) is
// not a read. Hashing a struct as a map key or comparing it with == or
// != reads every field. It type-checks the standard library from source
// too (seconds, not the milliseconds of the source rules), so it runs
// only under the audit tag: `make audit`.
func TestWriteOnlyFields(t *testing.T) {
	files, err := parseModule()
	if err != nil {
		t.Fatal(err)
	}
	byDir := map[string][]*ast.File{}
	for _, f := range files {
		if !f.test {
			byDir[f.dir] = append(byDir[f.dir], f.ast)
		}
	}
	std := importer.ForCompiler(sourceFset, "source", nil)
	checked := map[string]*types.Package{}
	infos := map[string]*types.Info{}
	var check func(dir string)
	imp := importerFunc(func(path string) (*types.Package, error) {
		if path == "rofl" {
			check(".")
			return checked[path], nil
		}
		if dir, ok := strings.CutPrefix(path, "rofl/"); ok {
			check(dir)
			return checked[path], nil
		}
		return std.Import(path)
	})
	check = func(dir string) {
		path := importPath(dir)
		if checked[path] != nil {
			return
		}
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		conf := types.Config{Importer: imp}
		pkg, err := conf.Check(path, sourceFset, byDir[dir], info)
		if err != nil {
			t.Fatalf("type-check %s: %v", path, err)
		}
		checked[path], infos[path] = pkg, info
	}
	for dir := range byDir {
		check(dir)
	}

	read := map[*types.Var]bool{}
	readAll := func(t types.Type) {
		if st, ok := t.Underlying().(*types.Struct); ok {
			for i := range st.NumFields() {
				read[st.Field(i).Origin()] = true
			}
		}
	}
	var fields []*types.Var
	for dir, fs := range byDir {
		info := infos[importPath(dir)]
		if info == nil {
			continue
		}
		for id, obj := range info.Defs {
			if v, ok := obj.(*types.Var); ok && v.IsField() && !v.Exported() && !v.Embedded() && id.Name != "_" {
				fields = append(fields, v)
			}
		}
		for _, f := range fs {
			var stack []ast.Node
			ast.Inspect(f, func(n ast.Node) bool {
				if n == nil {
					stack = stack[:len(stack)-1]
					return true
				}
				switch n := n.(type) {
				case *ast.SelectorExpr:
					if s := info.Selections[n]; s != nil && s.Kind() == types.FieldVal && !stored(info, n, stack) {
						read[s.Obj().(*types.Var).Origin()] = true
					}
				case *ast.BinaryExpr:
					if n.Op == token.EQL || n.Op == token.NEQ {
						readAll(info.TypeOf(n.X))
					}
				case ast.Expr:
					if t := info.TypeOf(n); t != nil {
						if m, ok := t.Underlying().(*types.Map); ok {
							readAll(m.Key())
						}
					}
				}
				stack = append(stack, n)
				return true
			})
		}
	}
	var out []string
	for _, v := range fields {
		if !read[v] {
			out = append(out, sourceFset.Position(v.Pos()).String()+": "+v.Name())
		}
	}
	slices.Sort(out)
	for _, line := range out {
		t.Errorf("%s is written and never read", line)
	}
}

// stored reports whether the field selection sel, under its ancestors
// stack (innermost last), only stores to the field.
func stored(info *types.Info, sel *ast.SelectorExpr, stack []ast.Node) bool {
	var x ast.Expr = sel
	parent := func(i int) ast.Node { return stack[len(stack)-1-i] }
	up := 0
	if ix, ok := parent(0).(*ast.IndexExpr); ok && ix.X == sel {
		x, up = ix, 1 // x.f[i] = v stores an element
	}
	switch p := parent(up).(type) {
	case *ast.AssignStmt:
		return slices.Contains(p.Lhs, x)
	case *ast.IncDecStmt:
		return true
	case *ast.CallExpr:
		// x.f = append(x.f, ...): the append's own operand.
		id, ok := p.Fun.(*ast.Ident)
		if !ok || id.Name != "append" || len(p.Args) == 0 || p.Args[0] != x || up > 0 {
			return false
		}
		as, ok := parent(1).(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 || as.Rhs[0] != p {
			return false
		}
		lhs, ok := as.Lhs[0].(*ast.SelectorExpr)
		return ok && info.Selections[lhs] != nil && info.Selections[lhs].Obj() == info.Selections[sel].Obj()
	}
	return false
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
