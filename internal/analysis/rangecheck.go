package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
)

// RangeCheck proves the device packages' fixed-point arithmetic cannot
// silently wrap. It runs the interval engine (dataflow.go) over every
// function body in a device package and reports:
//
//   - arithmetic whose mathematical result interval escapes its signed
//     ≤ 32-bit result type — the un-widened 16×16 multiply and the
//     non-saturating Q31 accumulation the paper's MSP430 port must not
//     contain;
//   - shift counts provably ≥ the shifted operand's bit width (every
//     value bit discarded — and undefined behavior in a C port);
//   - integer→integer narrowing conversions whose source interval does
//     not fit the destination.
//
// Policy (DESIGN.md §15): unsigned results never report (unsigned Go
// arithmetic is defined modular and the tree uses it only for bit
// packing, CRCs and PRNG state); 64-bit results never report (int64 is
// the tree's infinite-precision-accumulator idiom, and a genuine int64
// overflow needs operands the interval domain would have flagged at
// their own narrowing). Saturation guards — the MaxQ15/MinQ15 clamp
// switches of the testdata/src/fixedpoint fixture — refine operand
// intervals on each branch, which is how that fixture proves clean
// with no waiver.
// Intentional wraparound is waived per statement with //csecg:rangeok.
var RangeCheck = &Analyzer{
	Name: "rangecheck",
	Doc:  "prove device-side integer arithmetic cannot overflow, via interval abstract interpretation",
	Run:  runRangeCheck,
}

const rangeSuggestion = "widen the operands (int32/int64) before the operation, clamp with a MaxQ15/MinQ15-style saturation guard, or waive intentional wraparound with //csecg:rangeok"

// rangeReportable gates findings on the result type per the analyzer
// policy: signed integers of width ≤ 32.
func rangeReportable(t types.Type) bool {
	w, signed, ok := intSpec(t)
	return ok && signed && w <= 32
}

func runRangeCheck(pass *Pass) {
	if !pass.Config.isDevice(pass.Pkg.ImportPath) {
		return
	}
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if pass.Dirs.covered("host", fd.Pos()) {
				continue
			}
			runRangeCheckBody(pass, fd.Body)
		}
	}
}

func (p *Pass) relatedOf(ops []operandRef) []Related {
	var rel []Related
	for _, op := range ops {
		rel = append(rel, Related{Pos: p.Fset.Position(op.pos), Message: op.desc})
	}
	return rel
}

// waived reports whether a finding at pos is inside a //csecg:host or
// //csecg:rangeok span.
func rangeWaived(pass *Pass, pos ast.Node) bool {
	return pass.Dirs.covered("host", pos.Pos()) || pass.Dirs.covered("rangeok", pos.Pos())
}

func runRangeCheckBody(pass *Pass, body *ast.BlockStmt) {
	hooks := flowHooks{
		overflow: func(e ast.Expr, opDesc string, math Interval, t types.Type, ops []operandRef) {
			if !rangeReportable(t) || rangeWaived(pass, e) {
				return
			}
			tr, _ := typeInterval(t)
			pass.ReportRelated(e.Pos(),
				fmt.Sprintf("%s may wrap: result interval %s exceeds %s range %s", opDesc, math.String(), typeString(t), tr.String()),
				rangeSuggestion, pass.relatedOf(ops))
		},
		truncate: func(e ast.Expr, from Interval, src, dst types.Type, ops []operandRef) {
			if !rangeReportable(dst) || rangeWaived(pass, e) {
				return
			}
			dr, _ := typeInterval(dst)
			pass.ReportRelated(e.Pos(),
				fmt.Sprintf("conversion %s→%s may truncate: source interval %s exceeds destination range %s", typeString(src), typeString(dst), from.String(), dr.String()),
				rangeSuggestion, pass.relatedOf(ops))
		},
		shiftWide: func(e ast.Expr, count Interval, width int, t types.Type) {
			if rangeWaived(pass, e) {
				return
			}
			pass.Report(e.Pos(),
				fmt.Sprintf("shift count %s is always ≥ the %d-bit width of %s: every value bit is discarded", count.String(), width, typeString(t)),
				"bound the shift count below the operand width, or waive with //csecg:rangeok")
		},
	}
	analyzeFuncBody(pass.Pkg.Info, body, hooks)
}
