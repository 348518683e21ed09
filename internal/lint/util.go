package lint

import (
	"go/ast"
	"go/types"
)

// pkgFuncCall reports whether call invokes a package-level function of
// the package with the given import path, returning the function name.
// It resolves through the file's import aliases via the type checker.
func pkgFuncCall(pass *Pass, call *ast.CallExpr, pkgPath string) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", false
	}
	pn, ok := pass.ObjectOf(id).(*types.PkgName)
	if !ok || pn.Imported().Path() != pkgPath {
		return "", false
	}
	return sel.Sel.Name, true
}

// methodCall unpacks a method-call expression into its receiver
// expression and method name. Package-qualified calls (pkg.Func) are
// excluded.
func methodCall(pass *Pass, call *ast.CallExpr) (recv ast.Expr, name string, ok bool) {
	sel, selOk := call.Fun.(*ast.SelectorExpr)
	if !selOk {
		return nil, "", false
	}
	if id, isIdent := sel.X.(*ast.Ident); isIdent {
		if _, isPkg := pass.ObjectOf(id).(*types.PkgName); isPkg {
			return nil, "", false
		}
	}
	return sel.X, sel.Sel.Name, true
}

// namedType unwraps pointers and aliases down to a *types.Named, or nil.
func namedType(t types.Type) *types.Named {
	for {
		switch tt := t.(type) {
		case *types.Pointer:
			t = tt.Elem()
		case *types.Alias:
			t = types.Unalias(tt)
		case *types.Named:
			return tt
		default:
			return nil
		}
	}
}

// isIdentID reports whether t is the flat-label type ident.ID (matched
// by type and package name so analyzer test corpora can exercise the
// real type).
func isIdentID(t types.Type) bool {
	n := namedType(t)
	if n == nil || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Name() == "ID" && n.Obj().Pkg().Name() == "ident"
}

// enclosesPos reports whether node's source range contains pos.
func enclosesPos(node ast.Node, pos ast.Node) bool {
	return node.Pos() <= pos.Pos() && pos.End() <= node.End()
}
