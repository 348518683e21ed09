package lint

import (
	"go/ast"
	"go/types"
	"strings"
	"sync"
)

// This file is the conservative call-graph/reachability layer the
// whole-program analyzers (hotpath, metricname) build on.
// A Program indexes every function declared in the loaded packages and
// the module-internal functions each one references, keyed by a
// package-path-qualified name so that the same function is recognized
// whether it was type-checked from source or resolved through compiler
// export data (each package is checked independently, so *types.Func
// pointer identity does not hold across packages).
//
// Two annotations drive reachability:
//
//	//rofllint:hotpath
//	    marks a function as a hot-path root: it and everything
//	    statically reachable from it must be allocation-free.
//
//	//rofllint:coldpath <reason>
//	    prunes reachability at a callee that is only reached off the
//	    steady-state path (e.g. control-message handlers dispatched
//	    from the packet handler). The reason is mandatory.
//
// The graph is conservative by construction: an edge is added for every
// *reference* to a module function (calls, method values, functions
// passed as callbacks), not just direct call expressions. What it
// cannot see — and what the hotpath analyzer therefore flags at the
// call site instead — are dynamic dispatch targets: interface method
// calls and calls through function values.

// FuncInfo is one declared function or method in the loaded program.
type FuncInfo struct {
	Key  string        // funcKey of the declared function
	Fn   *types.Func   // the declaring package's object
	Decl *ast.FuncDecl // declaration, always with a body
	Pkg  *Package      // the package that declares it

	// Hot and Cold record the //rofllint:hotpath and
	// //rofllint:coldpath annotations on the declaration.
	Hot  bool
	Cold bool
	// ColdReason is the justification after //rofllint:coldpath;
	// BadCold marks a coldpath annotation with no reason (still pruned,
	// but reported so suppressions stay audited).
	ColdReason string
	BadCold    bool

	// Calls holds the funcKeys of every function referenced in the
	// declaration, in source order, deduplicated.
	Calls []string
}

// Program is the whole loaded module: every package plus the function
// index and call graph shared by the callgraph-aware analyzers.
type Program struct {
	Packages []*Package
	// Funcs maps funcKey to the function's declaration info.
	Funcs map[string]*FuncInfo

	byPath map[string]*Package

	hotOnce sync.Once
	hotSet  map[string]bool

	catOnce  sync.Once
	catalogs map[string]*catalogIndex
}

// NewProgram indexes pkgs into a function registry and conservative
// call graph.
func NewProgram(pkgs []*Package) *Program {
	prog := &Program{
		Packages: pkgs,
		Funcs:    make(map[string]*FuncInfo),
		byPath:   make(map[string]*Package, len(pkgs)),
	}
	for _, pkg := range pkgs {
		prog.byPath[pkg.ImportPath] = pkg
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				fi := &FuncInfo{Key: funcKey(fn), Fn: fn, Decl: fd, Pkg: pkg}
				parseFuncAnnotations(fi)
				fi.Calls = referencedFuncs(pkg.Info, fd)
				prog.Funcs[fi.Key] = fi
			}
		}
	}
	return prog
}

// PackageByPath returns the loaded package with the given import path,
// or nil if it was not part of this Program.
func (prog *Program) PackageByPath(path string) *Package { return prog.byPath[path] }

// HotSet returns the keys of every function statically reachable from a
// //rofllint:hotpath root, stopping at //rofllint:coldpath boundaries.
// Computed once per Program.
func (prog *Program) HotSet() map[string]bool {
	prog.hotOnce.Do(func() {
		prog.hotSet = make(map[string]bool)
		var queue []string
		for key, fi := range prog.Funcs {
			if fi.Hot {
				queue = append(queue, key)
			}
		}
		for len(queue) > 0 {
			key := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			if prog.hotSet[key] {
				continue
			}
			prog.hotSet[key] = true
			fi := prog.Funcs[key]
			if fi == nil {
				continue
			}
			for _, callee := range fi.Calls {
				cf := prog.Funcs[callee]
				if cf == nil || cf.Cold || prog.hotSet[callee] {
					continue
				}
				queue = append(queue, callee)
			}
		}
	})
	return prog.hotSet
}

// parseFuncAnnotations reads hotpath/coldpath directives from the
// declaration's doc comment group.
func parseFuncAnnotations(fi *FuncInfo) {
	if fi.Decl.Doc == nil {
		return
	}
	for _, c := range fi.Decl.Doc.List {
		switch {
		case c.Text == "//rofllint:hotpath":
			fi.Hot = true
		case strings.HasPrefix(c.Text, "//rofllint:coldpath"):
			fi.Cold = true
			reason := strings.TrimSpace(strings.TrimPrefix(c.Text, "//rofllint:coldpath"))
			if reason == "" {
				fi.BadCold = true
			}
			fi.ColdReason = reason
		}
	}
}

// referencedFuncs collects the funcKeys of every function object the
// declaration mentions — direct calls, method calls, and bare function
// references passed as values — deduplicated, in source order.
func referencedFuncs(info *types.Info, fd *ast.FuncDecl) []string {
	var out []string
	seen := map[string]bool{}
	ast.Inspect(fd, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		fn, ok := info.Uses[id].(*types.Func)
		if !ok {
			return true
		}
		key := funcKey(fn)
		if !seen[key] {
			seen[key] = true
			out = append(out, key)
		}
		return true
	})
	return out
}

// funcKey renders a package-path-qualified name for a function or
// method, e.g. "rofl/internal/wire.(*Packet).Marshal". The key is
// stable across independent type-checks of the same function, which is
// what lets call edges cross package boundaries.
func funcKey(fn *types.Func) string {
	var b strings.Builder
	if fn.Pkg() != nil {
		b.WriteString(fn.Pkg().Path())
		b.WriteByte('.')
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		rt := sig.Recv().Type()
		ptr := false
		if p, isPtr := rt.(*types.Pointer); isPtr {
			ptr = true
			rt = p.Elem()
		}
		name := "?"
		if n := namedType(rt); n != nil {
			name = n.Obj().Name()
		}
		if ptr {
			b.WriteString("(*")
			b.WriteString(name)
			b.WriteString(").")
		} else {
			b.WriteString(name)
			b.WriteByte('.')
		}
	}
	b.WriteString(fn.Name())
	return b.String()
}

// calleeOf resolves a call expression to the *types.Func it statically
// invokes (package function, method, or method expression), or nil for
// dynamic calls through function values.
func calleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// isInterfaceMethod reports whether fn is declared on an interface —
// i.e. a call to it dispatches dynamically.
func isInterfaceMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	rt := sig.Recv().Type()
	if p, isPtr := rt.(*types.Pointer); isPtr {
		rt = p.Elem()
	}
	_, isIface := rt.Underlying().(*types.Interface)
	return isIface
}
