package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// HotPathAnalyzer statically proves the forwarding fast path
// allocation-free. Functions annotated //rofllint:hotpath are roots;
// they and everything statically reachable from them (stopping at
// //rofllint:coldpath boundaries) must not allocate. The analyzer flags
// the allocation *sites* the Go compiler would lower to heap
// operations:
//
//   - address-of composite literals and slice/map composite literals;
//   - make, new, and append to a fresh (nil or literal) slice;
//   - string concatenation and string<->[]byte conversions;
//   - fmt calls (interface boxing plus formatting buffers);
//   - closures stored beyond the enclosing call (returned, sent on a
//     channel, or assigned to a field);
//   - go statements (a goroutine per packet is an allocation per
//     packet);
//   - calls the graph cannot follow: interface method calls, calls
//     through function values, and calls into stdlib packages outside a
//     small allocation-free allowlist. One function value is followed:
//     a non-root helper's own func-typed parameter (the accessor
//     ident.Search takes), because every hot call site must hand it a
//     literal or a declared function, scanned where it is written.
//
// Allocations performed only while constructing a returned error are
// exempt: error paths leave the steady state by definition, and the
// zero-alloc benchmarks never see them.
//
// The analyzer also pins the annotation set itself: the hot-path roots
// named in requiredHotRoots must carry //rofllint:hotpath, so deleting
// an annotation — silently shrinking the checked graph — is itself a
// finding.
var HotPathAnalyzer = &Analyzer{
	Name: "hotpath",
	Doc:  "functions reachable from //rofllint:hotpath roots must be allocation-free",
	Run:  runHotPath,
}

// requiredHotRoots pins the annotation set: per import path, the
// methods (Type.Name or (*Type).Name) that must carry the
// //rofllint:hotpath annotation. Removing an annotation from any of
// these makes the analyzer fail rather than silently shrinking the
// checked graph.
var requiredHotRoots = map[string][]string{
	"rofl/internal/overlay": {"(*Node).readLoop", "(*Node).handle"},
	"rofl/internal/proto":   {"(*Core).HandlePacket", "(*peerSet).bestProgress"},
	"rofl/internal/wire":    {"(*Packet).Marshal", "(*Packet).DecodeFromBytes"},
	"rofl/internal/vring":   {"(*PointerCache).Lookup", "(*CompactRing).HandleMsg"},
	"rofl/internal/sim": {
		"(*ShardContext).Send",
		"(*ShardedEngine).ownerOf",
		"(*msgHeap).push", "(*msgHeap).pop",
		"SplitMix64",
	},
	"rofl/internal/telemetry": {
		"(*Counter).Inc", "(*Counter).Add",
		"(*Gauge).Set", "(*Gauge).Add",
		"(*Histogram).Observe",
	},
}

// allocFreePkgs are stdlib packages whose hot-path-relevant entry
// points do not allocate: synchronization primitives, atomics, pure
// math, in-place sorting/searching, and fixed-width binary encoding.
var allocFreePkgs = map[string]bool{
	"sync":            true,
	"sync/atomic":     true,
	"math":            true,
	"math/bits":       true,
	"sort":            true,
	"encoding/binary": true,
}

// allocFreeFuncs allowlists individual stdlib functions from packages
// that are not allocation-free as a whole (bytes.Clone allocates;
// bytes.Compare does not). Keys are funcKey strings.
var allocFreeFuncs = map[string]bool{
	"bytes.Compare":     true,
	"bytes.Equal":       true,
	"bytes.IndexByte":   true,
	"strings.IndexByte": true,
}

func runHotPath(pass *Pass) error {
	if pass.Prog == nil {
		return errNoProgram
	}
	hot := pass.Prog.HotSet()

	// Annotation hygiene for this package's declarations.
	var funcs []*FuncInfo
	for _, fi := range pass.Prog.Funcs {
		if fi.Pkg.ImportPath != pass.ImportPath {
			continue
		}
		funcs = append(funcs, fi)
		if fi.BadCold {
			pass.Reportf(fi.Decl.Pos(), "coldpath annotation without a reason: say why %s is off the steady-state path", fi.Fn.Name())
		}
		if fi.Hot && fi.Cold {
			pass.Reportf(fi.Decl.Pos(), "%s is annotated both hotpath and coldpath; pick one", fi.Fn.Name())
		}
	}
	sort.Slice(funcs, func(i, j int) bool { return funcs[i].Decl.Pos() < funcs[j].Decl.Pos() })

	// The pinned roots must still be annotated.
	prefix := pass.ImportPath + "."
	for _, name := range requiredHotRoots[pass.ImportPath] {
		fi := pass.Prog.Funcs[prefix+name]
		switch {
		case fi == nil:
			if len(pass.Files) > 0 {
				pass.Reportf(pass.Files[0].Name.Pos(), "required hot-path root %s.%s not found; update requiredHotRoots if it was renamed", pass.ImportPath, name)
			}
		case !fi.Hot:
			pass.Reportf(fi.Decl.Pos(), "%s is a required hot-path root and must carry //rofllint:hotpath", name)
		}
	}

	for _, fi := range funcs {
		if hot[fi.Key] {
			scanHotFunc(pass, fi)
		}
	}
	return nil
}

// scanHotFunc flags every allocation site in one hot function's body.
func scanHotFunc(pass *Pass, fi *FuncInfo) {
	body := fi.Decl.Body
	var exempt []ast.Node
	if sig, ok := fi.Fn.Type().(*types.Signature); ok {
		errorReturnRanges(pass, body, sig, &exempt)
	}
	inExempt := func(n ast.Node) bool {
		for _, r := range exempt {
			if enclosesPos(r, n) {
				return true
			}
		}
		return false
	}
	escaping := escapingFuncLits(body)
	local := localFuncLits(pass, body)
	if !fi.Hot {
		// Not a root, so every hot caller is in the graph and checkFuncArgs
		// vouches for the function values it passes.
		for _, field := range fi.Decl.Type.Params.List {
			for _, name := range field.Names {
				if obj := pass.Info.Defs[name]; obj != nil && isFuncType(obj.Type()) {
					local[obj] = true
				}
			}
		}
	}
	reported := map[ast.Node]bool{}

	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		if inExempt(n) {
			// Allocations while constructing a returned error are off
			// the steady-state path; skip the whole return statement.
			return false
		}
		switch nn := n.(type) {
		case *ast.UnaryExpr:
			if lit, ok := nn.X.(*ast.CompositeLit); ok && nn.Op == token.AND {
				pass.Reportf(nn.Pos(), "address of composite literal escapes to the heap in hot function %s", fi.Fn.Name())
				reported[lit] = true
			}
		case *ast.CompositeLit:
			if reported[nn] {
				return true
			}
			switch pass.TypeOf(nn).Underlying().(type) {
			case *types.Slice:
				pass.Reportf(nn.Pos(), "slice literal allocates a new backing array in hot function %s", fi.Fn.Name())
			case *types.Map:
				pass.Reportf(nn.Pos(), "map literal allocates in hot function %s", fi.Fn.Name())
			}
		case *ast.CallExpr:
			checkHotCall(pass, fi, nn, local)
		case *ast.BinaryExpr:
			if nn.Op == token.ADD && isStringType(pass.TypeOf(nn)) {
				pass.Reportf(nn.Pos(), "string concatenation allocates in hot function %s", fi.Fn.Name())
			}
		case *ast.GoStmt:
			pass.Reportf(nn.Pos(), "go statement in hot function %s allocates a goroutine per call", fi.Fn.Name())
		case *ast.FuncLit:
			if escaping[nn] {
				pass.Reportf(nn.Pos(), "closure stored beyond the call allocates in hot function %s", fi.Fn.Name())
			}
		}
		return true
	})
}

// checkHotCall classifies one call expression inside a hot function.
// local holds variables bound to function literals inside the same body
// (covered by the enclosing scan) and, in non-root functions, func-typed
// parameters (covered at the call sites by checkFuncArgs).
func checkHotCall(pass *Pass, fi *FuncInfo, call *ast.CallExpr, local map[types.Object]bool) {
	// Type conversions: only string<->[]byte/[]rune copy.
	if tv, ok := pass.Info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 && allocatingConversion(pass.TypeOf(call.Args[0]), pass.TypeOf(call)) {
			pass.Reportf(call.Pos(), "conversion between string and byte slice copies and allocates in hot function %s", fi.Fn.Name())
		}
		return
	}
	// Builtins.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := pass.Info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				pass.Reportf(call.Pos(), "make allocates in hot function %s", fi.Fn.Name())
			case "new":
				pass.Reportf(call.Pos(), "new allocates in hot function %s", fi.Fn.Name())
			case "append":
				if len(call.Args) > 0 && freshSliceExpr(pass, call.Args[0]) {
					pass.Reportf(call.Pos(), "append to a fresh slice allocates a new backing array in hot function %s; reuse a buffer", fi.Fn.Name())
				}
			}
			return
		}
		// A call through a variable bound to a function literal in this
		// same body: the literal's body is inside the scan already.
		if obj := pass.Info.Uses[id]; obj != nil && local[obj] {
			return
		}
	}
	// An immediately-invoked literal's body is inside the scan already.
	if _, isLit := ast.Unparen(call.Fun).(*ast.FuncLit); isLit {
		return
	}
	callee := calleeOf(pass.Info, call)
	if callee == nil {
		pass.Reportf(call.Pos(), "dynamic call through a function value in hot function %s cannot be proven allocation-free", fi.Fn.Name())
		return
	}
	key := funcKey(callee)
	if _, inModule := pass.Prog.Funcs[key]; inModule {
		// Module function: it is in the hot set itself (and scanned in
		// its own package's pass) unless pruned by //rofllint:coldpath.
		checkFuncArgs(pass, fi, call, local)
		return
	}
	if isInterfaceMethod(callee) {
		pass.Reportf(call.Pos(), "interface method call %s in hot function %s dispatches dynamically and cannot be proven allocation-free", callee.Name(), fi.Fn.Name())
		return
	}
	pkg := callee.Pkg()
	if pkg == nil || allocFreePkgs[pkg.Path()] || allocFreeFuncs[key] {
		return
	}
	if pkg.Path() == "fmt" {
		pass.Reportf(call.Pos(), "fmt.%s formats through interfaces and allocates in hot function %s", callee.Name(), fi.Fn.Name())
		return
	}
	pass.Reportf(call.Pos(), "call into %s.%s in hot function %s is outside the allocation-free allowlist", pkg.Path(), callee.Name(), fi.Fn.Name())
}

// checkFuncArgs vouches for the function values a hot function hands to
// a module callee, which calls them as transparent parameters: each must
// be a literal (scanned in place), a declared function or method value
// (an edge in the graph), or a parameter being passed along.
func checkFuncArgs(pass *Pass, fi *FuncInfo, call *ast.CallExpr, local map[types.Object]bool) {
	for _, arg := range call.Args {
		if !isFuncType(pass.TypeOf(arg)) {
			continue
		}
		var obj types.Object
		switch a := ast.Unparen(arg).(type) {
		case *ast.FuncLit:
			continue
		case *ast.Ident:
			obj = pass.Info.Uses[a]
		case *ast.SelectorExpr:
			obj = pass.Info.Uses[a.Sel]
		}
		if _, declared := obj.(*types.Func); !declared && !local[obj] {
			pass.Reportf(arg.Pos(), "function value passed on in hot function %s is neither a literal nor a declared function; its body cannot be proven allocation-free", fi.Fn.Name())
		}
	}
}

func isFuncType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Signature)
	return ok
}

// localFuncLits collects variables defined (:=) directly as function
// literals inside body. Calls through them are covered by the body scan
// itself, so checkHotCall treats them as transparent.
func localFuncLits(pass *Pass, body *ast.BlockStmt) map[types.Object]bool {
	out := map[types.Object]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || as.Tok != token.DEFINE {
			return true
		}
		for i, rhs := range as.Rhs {
			if _, isLit := rhs.(*ast.FuncLit); !isLit || i >= len(as.Lhs) {
				continue
			}
			if id, ok := as.Lhs[i].(*ast.Ident); ok {
				if obj := pass.Info.Defs[id]; obj != nil {
					out[obj] = true
				}
			}
		}
		return true
	})
	return out
}

// errorReturnRanges collects return statements that construct a non-nil
// error, recursing into function literals with their own signatures.
func errorReturnRanges(pass *Pass, body *ast.BlockStmt, sig *types.Signature, out *[]ast.Node) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch nn := n.(type) {
		case *ast.FuncLit:
			if s, ok := pass.TypeOf(nn).(*types.Signature); ok {
				errorReturnRanges(pass, nn.Body, s, out)
			}
			return false
		case *ast.ReturnStmt:
			if returnsNonNilError(pass, nn, sig) {
				*out = append(*out, nn)
			}
		}
		return true
	})
}

// returnsNonNilError reports whether ret returns a non-nil value in an
// error-typed result position.
func returnsNonNilError(pass *Pass, ret *ast.ReturnStmt, sig *types.Signature) bool {
	if sig == nil || sig.Results() == nil || len(ret.Results) == 0 {
		return false
	}
	res := sig.Results()
	// f() returning (T, error) forwarded as a single call expression.
	if len(ret.Results) == 1 && res.Len() > 1 {
		return isErrorType(res.At(res.Len() - 1).Type())
	}
	for i, e := range ret.Results {
		if i >= res.Len() || !isErrorType(res.At(i).Type()) {
			continue
		}
		if id, ok := ast.Unparen(e).(*ast.Ident); ok && id.Name == "nil" {
			continue
		}
		return true
	}
	return false
}

// escapingFuncLits marks closures stored beyond their enclosing call:
// returned, sent on a channel, placed in a composite literal, or
// assigned through a selector/index. Closures passed as call arguments
// or bound to plain local variables are left to the callee/body scan.
func escapingFuncLits(body *ast.BlockStmt) map[*ast.FuncLit]bool {
	esc := map[*ast.FuncLit]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch nn := n.(type) {
		case *ast.ReturnStmt:
			for _, e := range nn.Results {
				if fl, ok := e.(*ast.FuncLit); ok {
					esc[fl] = true
				}
			}
		case *ast.SendStmt:
			if fl, ok := nn.Value.(*ast.FuncLit); ok {
				esc[fl] = true
			}
		case *ast.CompositeLit:
			for _, e := range nn.Elts {
				if kv, ok := e.(*ast.KeyValueExpr); ok {
					e = kv.Value
				}
				if fl, ok := e.(*ast.FuncLit); ok {
					esc[fl] = true
				}
			}
		case *ast.AssignStmt:
			for i, rhs := range nn.Rhs {
				fl, ok := rhs.(*ast.FuncLit)
				if !ok || i >= len(nn.Lhs) {
					continue
				}
				if _, plain := nn.Lhs[i].(*ast.Ident); !plain {
					esc[fl] = true
				}
			}
		}
		return true
	})
	return esc
}

// freshSliceExpr reports whether e denotes a slice with no existing
// backing array: nil, a nil conversion like []byte(nil), or a composite
// literal.
func freshSliceExpr(pass *Pass, e ast.Expr) bool {
	e = ast.Unparen(e)
	if id, ok := e.(*ast.Ident); ok && id.Name == "nil" {
		return true
	}
	if _, ok := e.(*ast.CompositeLit); ok {
		return true
	}
	if call, ok := e.(*ast.CallExpr); ok && len(call.Args) == 1 {
		if tv, ok := pass.Info.Types[call.Fun]; ok && tv.IsType() {
			return freshSliceExpr(pass, call.Args[0])
		}
	}
	return false
}

func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isErrorType(t types.Type) bool {
	return t != nil && types.Identical(t, types.Universe.Lookup("error").Type())
}

// allocatingConversion reports whether converting from into to copies
// through a fresh allocation (string <-> []byte/[]rune).
func allocatingConversion(from, to types.Type) bool {
	if from == nil || to == nil {
		return false
	}
	return (isStringType(from) && isByteOrRuneSlice(to)) || (isByteOrRuneSlice(from) && isStringType(to))
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune ||
		b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}
