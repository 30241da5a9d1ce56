package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// NoFPU forbids floating-point types, literals, conversions, arithmetic
// and calls in device-side packages. The MSP430F1611 encoder has no FPU
// — the paper defers every real-valued scale (notably the sensing
// matrix's 1/√d) to the decoder — so any float reaching the mote path is
// a porting bug. Host-side modeling code inside a device package (cycle
// accounting, decoder halves, offline training) is exempted with
// //csecg:host.
var NoFPU = &Analyzer{
	Name: "nofpu",
	Doc:  "forbid floating point in device-side (mote) packages, transitively through the call graph",
	Run:  runNoFPU,
	// The transitive half (DESIGN.md §12) walks the call graph so a
	// device function cannot smuggle floats in through a callee with a
	// clean integer signature.
	RunModule: runNoFPUTransitive,
}

const fpSuggestion = "use integer (Q15/Q31 fixed-point) arithmetic, or mark host-side modeling code //csecg:host"

// containsFloat reports whether t directly stores float32/float64 data:
// a float basic type, or a slice/array/map/chan of one. Traversal
// deliberately stops at pointers and struct types — a struct holding a
// float field is caught once, at the field's own declaration, rather
// than at every use of the containing type; and type parameters never
// count (a generic is only float-bearing at a float instantiation,
// which lives host-side).
func containsFloat(t types.Type) bool {
	return typeHasFloat(t, map[types.Type]bool{})
}

func typeHasFloat(t types.Type, seen map[types.Type]bool) bool {
	if t == nil || seen[t] {
		return false
	}
	seen[t] = true
	switch t := t.Underlying().(type) {
	case *types.Basic:
		switch t.Kind() {
		case types.Float32, types.Float64, types.Complex64, types.Complex128,
			types.UntypedFloat, types.UntypedComplex:
			return true
		}
	case *types.Slice:
		return typeHasFloat(t.Elem(), seen)
	case *types.Array:
		return typeHasFloat(t.Elem(), seen)
	case *types.Map:
		return typeHasFloat(t.Key(), seen) || typeHasFloat(t.Elem(), seen)
	case *types.Chan:
		return typeHasFloat(t.Elem(), seen)
	}
	return false
}

// signatureHasFloat reports whether any concrete parameter or result of
// sig is floating point (type parameters don't count: a generic function
// is only float-bearing at a float instantiation, which the call site's
// own types reveal).
func signatureHasFloat(sig *types.Signature) bool {
	tuples := []*types.Tuple{sig.Params(), sig.Results()}
	for _, tp := range tuples {
		for i := 0; i < tp.Len(); i++ {
			if containsFloat(tp.At(i).Type()) {
				return true
			}
		}
	}
	return false
}

func runNoFPU(pass *Pass) {
	if !pass.Config.isDevice(pass.Pkg.ImportPath) {
		return
	}
	info := pass.Pkg.Info
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			if n == nil {
				return true
			}
			if pass.Dirs.covered("host", n.Pos()) {
				// Still descend: covered() is checked per node, and an
				// exempt range covers all its children anyway — skipping
				// the subtree is just an optimization.
				return false
			}
			switch n := n.(type) {
			case *ast.Ident:
				obj := info.Defs[n]
				if obj == nil {
					return true
				}
				switch obj.(type) {
				case *types.Var, *types.Const, *types.TypeName:
					if containsFloat(obj.Type()) {
						pass.Report(n.Pos(), fmt.Sprintf("declares %q with floating-point type %s", n.Name, obj.Type()), fpSuggestion)
					}
				}
			case *ast.BasicLit:
				if tv, ok := info.Types[ast.Expr(n)]; ok && tv.Type != nil && containsFloat(tv.Type) {
					pass.Report(n.Pos(), fmt.Sprintf("floating-point constant %s", n.Value), fpSuggestion)
				}
			case *ast.CallExpr:
				tv, ok := info.Types[n.Fun]
				if !ok {
					return true
				}
				if tv.IsType() {
					if containsFloat(tv.Type) {
						pass.Report(n.Pos(), fmt.Sprintf("conversion to floating-point type %s", tv.Type), fpSuggestion)
					}
					return true
				}
				if sig, ok := tv.Type.(*types.Signature); ok && signatureHasFloat(sig) {
					pass.Report(n.Pos(), fmt.Sprintf("calls %s, whose signature uses floating point", exprString(n.Fun)), fpSuggestion)
				}
			case *ast.BinaryExpr:
				if tv, ok := info.Types[ast.Expr(n)]; ok && tv.Type != nil && containsFloat(tv.Type) {
					pass.Report(n.Pos(), "floating-point arithmetic", fpSuggestion)
				}
			case *ast.UnaryExpr:
				if tv, ok := info.Types[ast.Expr(n)]; ok && tv.Type != nil && containsFloat(tv.Type) {
					pass.Report(n.Pos(), "floating-point arithmetic", fpSuggestion)
				}
			}
			return true
		})
	}
}

// floatUseIn returns the first floating-point use in root (declaration,
// constant, conversion, call with a float-bearing signature, or float
// arithmetic), without applying any //csecg:host exemption — the
// transitive nofpu half uses it to characterize callee bodies, where
// reaching host-side float code from a device function is exactly the
// finding.
func floatUseIn(info *types.Info, root ast.Node) (token.Pos, string, bool) {
	var pos token.Pos
	var desc string
	found := false
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil || found {
			return !found
		}
		switch n := n.(type) {
		case *ast.Ident:
			obj := info.Defs[n]
			if obj == nil {
				return true
			}
			switch obj.(type) {
			case *types.Var, *types.Const, *types.TypeName:
				if containsFloat(obj.Type()) {
					pos, desc, found = n.Pos(), fmt.Sprintf("declares %q with floating-point type %s", n.Name, obj.Type()), true
				}
			}
		case *ast.BasicLit:
			if tv, ok := info.Types[ast.Expr(n)]; ok && tv.Type != nil && containsFloat(tv.Type) {
				pos, desc, found = n.Pos(), fmt.Sprintf("floating-point constant %s", n.Value), true
			}
		case *ast.CallExpr:
			tv, ok := info.Types[n.Fun]
			if !ok {
				return true
			}
			if tv.IsType() {
				if containsFloat(tv.Type) {
					pos, desc, found = n.Pos(), fmt.Sprintf("conversion to floating-point type %s", tv.Type), true
				}
				return !found
			}
			if sig, ok := tv.Type.(*types.Signature); ok && signatureHasFloat(sig) {
				pos, desc, found = n.Pos(), fmt.Sprintf("calls %s, whose signature uses floating point", exprString(n.Fun)), true
			}
		case *ast.BinaryExpr, *ast.UnaryExpr:
			if tv, ok := info.Types[n.(ast.Expr)]; ok && tv.Type != nil && containsFloat(tv.Type) {
				pos, desc, found = n.Pos(), "floating-point arithmetic", true
			}
		}
		return !found
	})
	return pos, desc, found
}

// exprString renders a (selector) expression compactly for messages.
func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.IndexExpr:
		return exprString(e.X)
	case *ast.IndexListExpr:
		return exprString(e.X)
	case *ast.ParenExpr:
		return exprString(e.X)
	default:
		return "expression"
	}
}
