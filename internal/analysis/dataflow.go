package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file is the v3 intraprocedural abstract interpreter: it walks one
// function body in execution order, carrying an interval per tracked
// local variable, and invokes analyzer-supplied hooks wherever an
// operation's mathematical result range escapes its Go result type
// (wraparound), a conversion can truncate, a shift count provably
// reaches the operand width, or a hotpath slice index cannot be proven
// in bounds. Soundness posture (DESIGN.md §15): variables whose address
// is taken or that are assigned inside a closure are never tracked
// (they stay at their type range); calls return their full result-type
// range; slice/array/map loads return the full element-type range;
// branch conditions refine intervals on both arms; loops run to a
// widened fixpoint silently and report on one final pass.

// valueFact is the abstract state of one tracked variable.
type valueFact struct {
	iv Interval
	// src is where the current bounds were established — surfaced as a
	// relatedLocation so findings carry their interval derivation.
	src token.Pos
	// ltLen records slice variables s with var < len(s) proven (set by
	// comparisons against len(s) and by range-loop keys).
	ltLen map[types.Object]bool
}

// absEnv maps tracked variables to facts; nil is the unreachable state.
// A variable missing from a reachable env is at its type range.
type absEnv map[*types.Var]valueFact

func cloneEnv(env absEnv) absEnv {
	if env == nil {
		return nil
	}
	out := make(absEnv, len(env))
	//csecg:orderok map copy, result is order-independent
	for v, f := range env {
		out[v] = f
	}
	return out
}

// joinEnv merges two branch exits: variables refined in only one arm
// fall back to their type range (dropped), intervals union, ltLen facts
// intersect.
func joinEnv(a, b absEnv) absEnv {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	out := absEnv{}
	//csecg:orderok join is a pointwise lattice op, order-independent
	for v, fa := range a {
		fb, ok := b[v]
		if !ok {
			continue
		}
		f := valueFact{iv: fa.iv.Union(fb.iv), src: fa.src}
		if len(fa.ltLen) > 0 && len(fb.ltLen) > 0 {
			//csecg:orderok set intersection, order-independent
			for o := range fa.ltLen {
				if fb.ltLen[o] {
					if f.ltLen == nil {
						f.ltLen = map[types.Object]bool{}
					}
					f.ltLen[o] = true
				}
			}
		}
		out[v] = f
	}
	return out
}

func envEqual(a, b absEnv) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	//csecg:orderok equality test, order-independent
	for v, fa := range a {
		fb, ok := b[v]
		if !ok || fa.iv != fb.iv || len(fa.ltLen) != len(fb.ltLen) {
			return false
		}
		//csecg:orderok subset test, order-independent
		for o := range fa.ltLen {
			if !fb.ltLen[o] {
				return false
			}
		}
	}
	return true
}

// operandRef is one interval-derivation site handed to report hooks.
type operandRef struct {
	pos  token.Pos
	desc string
}

// flowHooks are the analyzer callbacks. Each is optional; hooks fire
// only on the reporting pass (never while a loop fixpoint converges).
type flowHooks struct {
	// overflow: the math range of an arithmetic op escapes its result
	// type (potential wraparound).
	overflow func(e ast.Expr, opDesc string, math Interval, t types.Type, ops []operandRef)
	// truncate: an integer→integer conversion can lose value bits.
	truncate func(e ast.Expr, from Interval, src, dst types.Type, ops []operandRef)
	// shiftWide: the shift count is provably ≥ the operand bit width.
	shiftWide func(e ast.Expr, count Interval, width int, t types.Type)
	// index: a slice/array index expression; proven reports whether the
	// engine established 0 ≤ idx < len.
	index func(e *ast.IndexExpr, idx Interval, proven bool)
}

// valueFlow interprets one function body.
type valueFlow struct {
	info      *types.Info
	hooks     flowHooks
	untracked map[*types.Var]bool
	// mute > 0 suppresses hooks (loop fixpoint passes).
	mute int
	// frames is the open loop stack for break/continue env collection.
	frames []*loopFrame
	// analyzedLits dedups closure bodies across fixpoint re-execution.
	analyzedLits map[*ast.FuncLit]bool
}

type loopFrame struct {
	breakEnv    absEnv
	continueEnv absEnv
	// breakOnly marks switch/select frames: break targets them, but an
	// unlabeled continue resolves to the innermost enclosing loop.
	breakOnly bool
}

// analyzeFuncBody runs the engine over one declared function.
func analyzeFuncBody(info *types.Info, body *ast.BlockStmt, hooks flowHooks) {
	if body == nil || hasGoto(body) {
		// goto control flow is not modeled; stay silent (sound for a
		// may-wrap reporter, and the tree has none on the device path).
		return
	}
	f := &valueFlow{
		info:         info,
		hooks:        hooks,
		untracked:    computeUntracked(info, body),
		analyzedLits: map[*ast.FuncLit]bool{},
	}
	f.execStmt(body, absEnv{})
}

func hasGoto(body ast.Node) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if b, ok := n.(*ast.BranchStmt); ok && b.Tok == token.GOTO {
			found = true
		}
		return !found
	})
	return found
}

// computeUntracked collects the variables the engine must not track:
// address-taken ones and those assigned inside a nested function
// literal (whose execution order is invisible).
func computeUntracked(info *types.Info, body ast.Node) map[*types.Var]bool {
	u := map[*types.Var]bool{}
	markTargets := func(root ast.Node) {
		ast.Inspect(root, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if id, ok := unparen(lhs).(*ast.Ident); ok {
						if v, ok := objOf(info, id).(*types.Var); ok {
							u[v] = true
						}
					}
				}
			case *ast.IncDecStmt:
				if id, ok := unparen(n.X).(*ast.Ident); ok {
					if v, ok := objOf(info, id).(*types.Var); ok {
						u[v] = true
					}
				}
			case *ast.RangeStmt:
				for _, lhs := range []ast.Expr{n.Key, n.Value} {
					if id, ok := lhs.(*ast.Ident); ok && id != nil {
						if v, ok := objOf(info, id).(*types.Var); ok {
							u[v] = true
						}
					}
				}
			}
			return true
		})
	}
	var walk func(n ast.Node, inLit bool)
	walk = func(root ast.Node, inLit bool) {
		ast.Inspect(root, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					if id, ok := unparen(n.X).(*ast.Ident); ok {
						if v, ok := objOf(info, id).(*types.Var); ok {
							u[v] = true
						}
					}
				}
			case *ast.FuncLit:
				if !inLit {
					markTargets(n.Body)
					walk(n.Body, true)
					return false
				}
			}
			return true
		})
	}
	walk(body, false)
	return u
}

func objOf(info *types.Info, id *ast.Ident) types.Object {
	if o := info.Uses[id]; o != nil {
		return o
	}
	return info.Defs[id]
}

// exprInterval returns the declared range of an expression's static
// type (top for non-integers).
func (f *valueFlow) exprTypeInterval(e ast.Expr) (Interval, types.Type, bool) {
	tv, ok := f.info.Types[e]
	if !ok || tv.Type == nil {
		return topInterval, nil, false
	}
	iv, ok := typeInterval(tv.Type)
	return iv, tv.Type, ok
}

func (f *valueFlow) varFact(env absEnv, v *types.Var) valueFact {
	if fct, ok := env[v]; ok {
		return fct
	}
	iv, _ := typeInterval(v.Type())
	return valueFact{iv: iv, src: v.Pos()}
}

// derivation summarizes a binary op's operands for relatedLocations.
func (f *valueFlow) derivation(env absEnv, exprs ...ast.Expr) []operandRef {
	var refs []operandRef
	for _, e := range exprs {
		id, ok := unparen(e).(*ast.Ident)
		if !ok {
			continue
		}
		v, ok := objOf(f.info, id).(*types.Var)
		if !ok || f.untracked[v] {
			continue
		}
		fct := f.varFact(env, v)
		if !fct.src.IsValid() {
			continue
		}
		refs = append(refs, operandRef{pos: fct.src, desc: id.Name + " ∈ " + fct.iv.String() + " established here"})
	}
	return refs
}

// adjust clamps a math interval to the expression's result type: if the
// math range fits, it is kept (no wrap possible); otherwise the stored
// value may be anything representable.
func adjustToType(math Interval, t types.Type) Interval {
	tr, ok := typeInterval(t)
	if !ok {
		return topInterval
	}
	if math.ContainedIn(tr) {
		return math
	}
	return tr
}

// eval computes the interval of e under env, firing hooks as a side
// effect. Non-integer expressions evaluate to top (their sub-expressions
// are still visited so nested integer arithmetic is checked).
func (f *valueFlow) eval(env absEnv, e ast.Expr) Interval {
	if e == nil {
		return topInterval
	}
	// Compile-time constants are exact and already compiler-checked.
	if tv, ok := f.info.Types[e]; ok && tv.Value != nil {
		iv, _ := constInterval(tv.Value)
		return iv
	}
	switch e := e.(type) {
	case *ast.ParenExpr:
		return f.eval(env, e.X)
	case *ast.Ident:
		if v, ok := objOf(f.info, e).(*types.Var); ok && !f.untracked[v] {
			return f.varFact(env, v).iv
		}
		iv, _, _ := f.exprTypeInterval(e)
		return iv
	case *ast.BinaryExpr:
		return f.evalBinary(env, e)
	case *ast.UnaryExpr:
		return f.evalUnary(env, e)
	case *ast.CallExpr:
		return f.evalCall(env, e)
	case *ast.IndexExpr:
		return f.evalIndex(env, e)
	case *ast.SelectorExpr:
		f.eval(env, e.X)
		iv, _, _ := f.exprTypeInterval(e)
		return iv
	case *ast.StarExpr:
		f.eval(env, e.X)
		iv, _, _ := f.exprTypeInterval(e)
		return iv
	case *ast.SliceExpr:
		f.eval(env, e.X)
		f.eval(env, e.Low)
		f.eval(env, e.High)
		f.eval(env, e.Max)
		return topInterval
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				f.eval(env, kv.Value)
				continue
			}
			f.eval(env, el)
		}
		return topInterval
	case *ast.KeyValueExpr:
		f.eval(env, e.Value)
		return topInterval
	case *ast.TypeAssertExpr:
		f.eval(env, e.X)
		iv, _, _ := f.exprTypeInterval(e)
		return iv
	case *ast.FuncLit:
		f.analyzeLit(e)
		return topInterval
	}
	iv, _, _ := f.exprTypeInterval(e)
	return iv
}

// analyzeLit runs a nested closure body through a fresh engine (once —
// loop fixpoints would otherwise re-analyze it each pass).
func (f *valueFlow) analyzeLit(lit *ast.FuncLit) {
	if f.mute > 0 || f.analyzedLits[lit] || hasGoto(lit.Body) {
		return
	}
	f.analyzedLits[lit] = true
	inner := &valueFlow{
		info:         f.info,
		hooks:        f.hooks,
		untracked:    computeUntracked(f.info, lit.Body),
		analyzedLits: f.analyzedLits,
	}
	inner.execStmt(lit.Body, absEnv{})
}

func opDescription(op token.Token, t types.Type) string {
	name := typeString(t)
	switch op {
	case token.ADD:
		return name + " addition"
	case token.SUB:
		return name + " subtraction"
	case token.MUL:
		return name + " multiplication"
	case token.SHL:
		return name + " left shift"
	default:
		return name + " " + op.String()
	}
}

func typeString(t types.Type) string {
	if t == nil {
		return "?"
	}
	return types.TypeString(t, func(p *types.Package) string { return p.Name() })
}

func (f *valueFlow) evalBinary(env absEnv, e *ast.BinaryExpr) Interval {
	x := f.eval(env, e.X)
	y := f.eval(env, e.Y)
	switch e.Op {
	case token.LAND, token.LOR, token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ:
		return topInterval
	}
	_, t, isInt := f.exprTypeInterval(e)
	if !isInt {
		return topInterval
	}
	var math Interval
	overflowable := false
	switch e.Op {
	case token.ADD:
		math, overflowable = x.Add(y), true
	case token.SUB:
		math, overflowable = x.Sub(y), true
	case token.MUL:
		math, overflowable = x.Mul(y), true
	case token.QUO:
		math = x.Div(y)
	case token.REM:
		math = x.Mod(y)
	case token.SHL:
		f.checkShiftWidth(e, y)
		math, overflowable = x.Shl(y), true
	case token.SHR:
		f.checkShiftWidth(e, y)
		math = x.Shr(y)
	case token.AND, token.OR, token.XOR, token.AND_NOT:
		math = x.BitOp(y, e.Op.String())
	default:
		return topInterval
	}
	if overflowable {
		if tr, ok := typeInterval(t); ok && !math.ContainedIn(tr) {
			if f.mute == 0 && f.hooks.overflow != nil {
				f.hooks.overflow(e, opDescription(e.Op, t), math, t, f.derivation(env, e.X, e.Y))
			}
		}
	}
	return adjustToType(math, t)
}

// checkShiftWidth fires when the shift count is provably at least the
// shifted operand's bit width: every bit is discarded (and the same
// expression is undefined behavior in the C port).
func (f *valueFlow) checkShiftWidth(e *ast.BinaryExpr, count Interval) {
	if f.mute > 0 || f.hooks.shiftWide == nil || count.Empty() {
		return
	}
	tv, ok := f.info.Types[e.X]
	if !ok || tv.Type == nil {
		return
	}
	w, _, ok := intSpec(tv.Type)
	if !ok || count.Lo < int64(w) {
		return
	}
	f.hooks.shiftWide(e, count, w, tv.Type)
}

func (f *valueFlow) evalUnary(env absEnv, e *ast.UnaryExpr) Interval {
	x := f.eval(env, e.X)
	switch e.Op {
	case token.SUB:
		_, t, isInt := f.exprTypeInterval(e)
		if !isInt {
			return topInterval
		}
		math := x.Neg()
		if tr, ok := typeInterval(t); ok && !math.ContainedIn(tr) {
			if f.mute == 0 && f.hooks.overflow != nil {
				f.hooks.overflow(e, typeString(t)+" negation", math, t, f.derivation(env, e.X))
			}
		}
		return adjustToType(math, t)
	case token.ADD:
		return x
	case token.XOR: // ^x = −x − 1
		_, t, isInt := f.exprTypeInterval(e)
		if !isInt {
			return topInterval
		}
		return adjustToType(x.Neg().Sub(single(1)), t)
	}
	iv, _, _ := f.exprTypeInterval(e)
	return iv
}

func (f *valueFlow) evalCall(env absEnv, e *ast.CallExpr) Interval {
	// Conversion T(x)?
	if tv, ok := f.info.Types[e.Fun]; ok && tv.IsType() && len(e.Args) == 1 {
		return f.evalConversion(env, e, tv.Type)
	}
	// Builtins with known ranges.
	if id, ok := unparen(e.Fun).(*ast.Ident); ok {
		if b, ok := objOf(f.info, id).(*types.Builtin); ok {
			return f.evalBuiltin(env, e, b.Name())
		}
	}
	f.eval(env, e.Fun)
	for _, a := range e.Args {
		f.eval(env, a)
	}
	// Calls return their full result-type range — the engine is
	// intraprocedural by design.
	iv, _, _ := f.exprTypeInterval(e)
	return iv
}

func (f *valueFlow) evalBuiltin(env absEnv, e *ast.CallExpr, name string) Interval {
	var args []Interval
	for _, a := range e.Args {
		args = append(args, f.eval(env, a))
	}
	switch name {
	case "len", "cap":
		if len(e.Args) == 1 {
			if n, ok := constArrayLen(f.info, e.Args[0]); ok {
				return single(n)
			}
		}
		return Interval{0, posInf}
	case "min":
		if len(args) > 0 {
			r := args[0]
			for _, a := range args[1:] {
				r = Interval{min(r.Lo, a.Lo), min(r.Hi, a.Hi)}
			}
			return r
		}
	case "max":
		if len(args) > 0 {
			r := args[0]
			for _, a := range args[1:] {
				r = Interval{max(r.Lo, a.Lo), max(r.Hi, a.Hi)}
			}
			return r
		}
	}
	iv, _, _ := f.exprTypeInterval(e)
	return iv
}

// constArrayLen resolves the length of an array-typed expression
// (through pointers-to-array).
func constArrayLen(info *types.Info, e ast.Expr) (int64, bool) {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return 0, false
	}
	t := tv.Type.Underlying()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem().Underlying()
	}
	if a, ok := t.(*types.Array); ok {
		return a.Len(), true
	}
	return 0, false
}

func (f *valueFlow) evalConversion(env absEnv, e *ast.CallExpr, dst types.Type) Interval {
	arg := e.Args[0]
	x := f.eval(env, arg)
	dr, dstInt := typeInterval(dst)
	if !dstInt {
		return topInterval
	}
	srcTV, ok := f.info.Types[arg]
	if !ok || srcTV.Type == nil {
		return dr
	}
	if _, _, srcInt := intSpec(srcTV.Type); !srcInt {
		return dr // float→int etc.: unbounded by this domain
	}
	if !x.ContainedIn(dr) {
		if f.mute == 0 && f.hooks.truncate != nil {
			f.hooks.truncate(e, x, srcTV.Type, dst, f.derivation(env, arg))
		}
		return dr
	}
	return x
}

func (f *valueFlow) evalIndex(env absEnv, e *ast.IndexExpr) Interval {
	f.eval(env, e.X)
	idx := f.eval(env, e.Index)
	f.checkIndex(env, e, idx)
	iv, _, _ := f.exprTypeInterval(e)
	return iv
}

func (f *valueFlow) checkIndex(env absEnv, e *ast.IndexExpr, idx Interval) {
	if f.mute > 0 || f.hooks.index == nil {
		return
	}
	tv, ok := f.info.Types[e.X]
	if !ok || tv.Type == nil {
		return
	}
	base := tv.Type.Underlying()
	if p, ok := base.(*types.Pointer); ok {
		base = p.Elem().Underlying()
	}
	switch bt := base.(type) {
	case *types.Array:
		proven := !idx.Empty() && idx.Lo >= 0 && idx.Hi < bt.Len()
		f.hooks.index(e, idx, proven)
	case *types.Slice:
		proven := false
		if !idx.Empty() && idx.Lo >= 0 {
			if bid, ok := unparen(e.X).(*ast.Ident); ok {
				if bv, ok := objOf(f.info, bid).(*types.Var); ok && !f.untracked[bv] {
					if iid, ok := unparen(e.Index).(*ast.Ident); ok {
						if ivr, ok := objOf(f.info, iid).(*types.Var); ok && !f.untracked[ivr] {
							proven = f.varFact(env, ivr).ltLen[bv]
						}
					}
				}
			}
		}
		f.hooks.index(e, idx, proven)
	}
}

// setFact stores a fact for an ident target (no-op for untracked vars
// and non-ident targets); assignments to a slice variable invalidate
// every ltLen fact about it.
func (f *valueFlow) setFact(env absEnv, target ast.Expr, iv Interval, src token.Pos) {
	id, ok := unparen(target).(*ast.Ident)
	if !ok || id.Name == "_" {
		return
	}
	v, ok := objOf(f.info, id).(*types.Var)
	if !ok || f.untracked[v] {
		return
	}
	//csecg:orderok pointwise fact invalidation, order-independent
	for tv, fct := range env {
		if fct.ltLen[v] {
			nl := make(map[types.Object]bool, len(fct.ltLen))
			//csecg:orderok set filter, order-independent
			for o := range fct.ltLen {
				if o != types.Object(v) {
					nl[o] = true
				}
			}
			fct.ltLen = nl
			env[tv] = fct
		}
	}
	env[v] = valueFact{iv: adjustToType(iv, v.Type()), src: src}
}

// refine narrows env by assuming cond evaluates to sense. It returns
// nil when the assumption is contradictory (the branch is dead).
func (f *valueFlow) refine(env absEnv, cond ast.Expr, sense bool) absEnv {
	if env == nil || cond == nil {
		return env
	}
	switch c := unparen(cond).(type) {
	case *ast.UnaryExpr:
		if c.Op == token.NOT {
			return f.refine(env, c.X, !sense)
		}
	case *ast.BinaryExpr:
		switch c.Op {
		case token.LAND:
			if sense {
				return f.refine(f.refine(env, c.X, true), c.Y, true)
			}
			// !(a && b) = !a ∨ (a ∧ !b)
			left := f.refine(cloneEnv(env), c.X, false)
			right := f.refine(f.refine(cloneEnv(env), c.X, true), c.Y, false)
			return joinEnv(left, right)
		case token.LOR:
			if !sense {
				return f.refine(f.refine(env, c.X, false), c.Y, false)
			}
			left := f.refine(cloneEnv(env), c.X, true)
			right := f.refine(f.refine(cloneEnv(env), c.X, false), c.Y, true)
			return joinEnv(left, right)
		case token.LSS, token.LEQ, token.GTR, token.GEQ, token.EQL, token.NEQ:
			return f.refineCompare(env, c, sense)
		}
	}
	return env
}

// refineCompare applies one comparison to both operands.
func (f *valueFlow) refineCompare(env absEnv, c *ast.BinaryExpr, sense bool) absEnv {
	op := c.Op
	if !sense {
		op = negateCmp(op)
	}
	f.mute++
	xv := f.eval(env, c.X)
	yv := f.eval(env, c.Y)
	f.mute--

	env = f.refineOperand(env, c.X, op, yv)
	env = f.refineOperand(env, c.Y, flipCmp(op), xv)
	if env == nil {
		return nil
	}
	// i < len(s) facts for slice-index proofs.
	if op == token.LSS || op == token.LEQ {
		f.noteLtLen(env, c.X, c.Y, op)
	}
	if op == token.GTR || op == token.GEQ {
		f.noteLtLen(env, c.Y, c.X, flipCmp(op))
	}
	return env
}

func negateCmp(op token.Token) token.Token {
	switch op {
	case token.LSS:
		return token.GEQ
	case token.LEQ:
		return token.GTR
	case token.GTR:
		return token.LEQ
	case token.GEQ:
		return token.LSS
	case token.EQL:
		return token.NEQ
	default:
		return token.EQL
	}
}

func flipCmp(op token.Token) token.Token {
	switch op {
	case token.LSS:
		return token.GTR
	case token.LEQ:
		return token.GEQ
	case token.GTR:
		return token.LSS
	case token.GEQ:
		return token.LEQ
	}
	return op
}

// refineOperand intersects a tracked ident's interval with the bound
// implied by `x op [other]`.
func (f *valueFlow) refineOperand(env absEnv, x ast.Expr, op token.Token, other Interval) absEnv {
	if env == nil || other.Empty() {
		return env
	}
	id, ok := unparen(x).(*ast.Ident)
	if !ok {
		return env
	}
	v, ok := objOf(f.info, id).(*types.Var)
	if !ok || f.untracked[v] {
		return env
	}
	if _, _, isInt := intSpec(v.Type()); !isInt {
		return env
	}
	fct := f.varFact(env, v)
	cur := fct.iv
	var bound Interval
	switch op {
	case token.LSS:
		bound = Interval{negInf, addBound(other.Hi, -1)}
	case token.LEQ:
		bound = Interval{negInf, other.Hi}
	case token.GTR:
		bound = Interval{addBound(other.Lo, 1), posInf}
	case token.GEQ:
		bound = Interval{other.Lo, posInf}
	case token.EQL:
		bound = other
	case token.NEQ:
		bound = topInterval
		if other.Lo == other.Hi {
			if cur.Lo == other.Lo {
				bound.Lo = addBound(other.Lo, 1)
			}
			if cur.Hi == other.Lo {
				bound.Hi = addBound(other.Lo, -1)
			}
		}
	default:
		return env
	}
	next := cur.Intersect(bound)
	if next.Empty() {
		return nil
	}
	if next != cur {
		fct.iv = next
		fct.src = x.Pos()
		env[v] = fct
	}
	return env
}

// noteLtLen records `i < len(s)` (or `i ≤ len(s)−1`-style facts only in
// the strict form) for tracked ident i and slice ident s.
func (f *valueFlow) noteLtLen(env absEnv, x, y ast.Expr, op token.Token) {
	if op != token.LSS {
		return
	}
	call, ok := unparen(y).(*ast.CallExpr)
	if !ok || len(call.Args) != 1 {
		return
	}
	fid, ok := unparen(call.Fun).(*ast.Ident)
	if !ok {
		return
	}
	if b, ok := objOf(f.info, fid).(*types.Builtin); !ok || b.Name() != "len" {
		return
	}
	sid, ok := unparen(call.Args[0]).(*ast.Ident)
	if !ok {
		return
	}
	sv, ok := objOf(f.info, sid).(*types.Var)
	if !ok || f.untracked[sv] {
		return
	}
	iid, ok := unparen(x).(*ast.Ident)
	if !ok {
		return
	}
	ivr, ok := objOf(f.info, iid).(*types.Var)
	if !ok || f.untracked[ivr] {
		return
	}
	fct := f.varFact(env, ivr)
	nl := make(map[types.Object]bool, len(fct.ltLen)+1)
	//csecg:orderok set copy, order-independent
	for o := range fct.ltLen {
		nl[o] = true
	}
	nl[sv] = true
	fct.ltLen = nl
	env[ivr] = fct
}

// execStmt interprets one statement, returning the exit env (nil when
// control provably does not fall through).
func (f *valueFlow) execStmt(s ast.Stmt, env absEnv) absEnv {
	if env == nil || s == nil {
		return env
	}
	switch s := s.(type) {
	case *ast.BlockStmt:
		for _, st := range s.List {
			env = f.execStmt(st, env)
			if env == nil {
				break
			}
		}
		return env
	case *ast.ExprStmt:
		f.eval(env, s.X)
		if isPanicCall(f.info, s.X) {
			return nil
		}
		return env
	case *ast.AssignStmt:
		return f.execAssign(s, env)
	case *ast.IncDecStmt:
		x := f.eval(env, s.X)
		op := token.ADD
		if s.Tok == token.DEC {
			op = token.SUB
		}
		math := x.Add(single(1))
		if op == token.SUB {
			math = x.Sub(single(1))
		}
		if _, t, isInt := f.exprTypeInterval(s.X); isInt {
			if tr, ok := typeInterval(t); ok && !math.ContainedIn(tr) {
				if f.mute == 0 && f.hooks.overflow != nil {
					f.hooks.overflow(s.X, opDescription(op, t), math, t, f.derivation(env, s.X))
				}
			}
			f.setFact(env, s.X, math, s.Pos())
		}
		return env
	case *ast.DeclStmt:
		return f.execDecl(s, env)
	case *ast.IfStmt:
		return f.execIf(s, env)
	case *ast.ForStmt:
		return f.execFor(s, env)
	case *ast.RangeStmt:
		return f.execRange(s, env)
	case *ast.SwitchStmt:
		return f.execSwitch(s, env)
	case *ast.TypeSwitchStmt:
		return f.execTypeSwitch(s, env)
	case *ast.SelectStmt:
		return f.execSelect(s, env)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			f.eval(env, r)
		}
		return nil
	case *ast.BranchStmt:
		return f.execBranch(s, env)
	case *ast.LabeledStmt:
		return f.execStmt(s.Stmt, env)
	case *ast.GoStmt:
		f.eval(env, s.Call)
		return env
	case *ast.DeferStmt:
		f.eval(env, s.Call)
		return env
	case *ast.SendStmt:
		f.eval(env, s.Chan)
		f.eval(env, s.Value)
		return env
	case *ast.EmptyStmt:
		return env
	}
	return env
}

func isPanicCall(info *types.Info, e ast.Expr) bool {
	call, ok := unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := objOf(info, id).(*types.Builtin)
	return ok && b.Name() == "panic"
}

func (f *valueFlow) execAssign(s *ast.AssignStmt, env absEnv) absEnv {
	if len(s.Lhs) == len(s.Rhs) {
		vals := make([]Interval, len(s.Rhs))
		if s.Tok == token.ASSIGN || s.Tok == token.DEFINE {
			for i, r := range s.Rhs {
				vals[i] = f.eval(env, r)
			}
		} else {
			// Compound assignment x op= y evaluates like the binary op,
			// including the overflow check.
			vals[0] = f.evalCompound(env, s)
		}
		for i, lhs := range s.Lhs {
			// Non-ident targets (index/field/deref stores) still need
			// their sub-expressions checked.
			if _, ok := unparen(lhs).(*ast.Ident); !ok {
				f.eval(env, lhs)
			}
			f.setFact(env, lhs, vals[i], s.Pos())
		}
		return env
	}
	// Tuple assignment (call, comma-ok): results are unknown.
	for _, r := range s.Rhs {
		f.eval(env, r)
	}
	for _, lhs := range s.Lhs {
		if _, ok := unparen(lhs).(*ast.Ident); !ok {
			f.eval(env, lhs)
		}
		iv, _, _ := f.exprTypeInterval(lhs)
		f.setFact(env, lhs, iv, s.Pos())
	}
	return env
}

// evalCompound handles x op= y with the same math as evalBinary.
func (f *valueFlow) evalCompound(env absEnv, s *ast.AssignStmt) Interval {
	lhs, rhs := s.Lhs[0], s.Rhs[0]
	x := f.eval(env, lhs)
	y := f.eval(env, rhs)
	_, t, isInt := f.exprTypeInterval(lhs)
	if !isInt {
		return topInterval
	}
	var math Interval
	overflowable := false
	switch s.Tok {
	case token.ADD_ASSIGN:
		math, overflowable = x.Add(y), true
	case token.SUB_ASSIGN:
		math, overflowable = x.Sub(y), true
	case token.MUL_ASSIGN:
		math, overflowable = x.Mul(y), true
	case token.QUO_ASSIGN:
		math = x.Div(y)
	case token.REM_ASSIGN:
		math = x.Mod(y)
	case token.SHL_ASSIGN:
		math, overflowable = x.Shl(y), true
	case token.SHR_ASSIGN:
		math = x.Shr(y)
	case token.AND_ASSIGN:
		math = x.BitOp(y, "&")
	case token.OR_ASSIGN:
		math = x.BitOp(y, "|")
	case token.XOR_ASSIGN:
		math = x.BitOp(y, "^")
	case token.AND_NOT_ASSIGN:
		math = x.BitOp(y, "&^")
	default:
		return topInterval
	}
	if overflowable {
		if tr, ok := typeInterval(t); ok && !math.ContainedIn(tr) {
			if f.mute == 0 && f.hooks.overflow != nil {
				op := assignBaseOp(s.Tok)
				f.hooks.overflow(s.Lhs[0], opDescription(op, t), math, t, f.derivation(env, lhs, rhs))
			}
		}
	}
	return adjustToType(math, t)
}

func assignBaseOp(tok token.Token) token.Token {
	switch tok {
	case token.ADD_ASSIGN:
		return token.ADD
	case token.SUB_ASSIGN:
		return token.SUB
	case token.MUL_ASSIGN:
		return token.MUL
	case token.SHL_ASSIGN:
		return token.SHL
	}
	return tok
}

func (f *valueFlow) execDecl(s *ast.DeclStmt, env absEnv) absEnv {
	gd, ok := s.Decl.(*ast.GenDecl)
	if !ok || gd.Tok != token.VAR {
		return env
	}
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		for i, name := range vs.Names {
			var iv Interval
			if i < len(vs.Values) {
				iv = f.eval(env, vs.Values[i])
			} else {
				// Zero value.
				iv = single(0)
			}
			f.setFact(env, name, iv, name.Pos())
		}
	}
	return env
}

func (f *valueFlow) execIf(s *ast.IfStmt, env absEnv) absEnv {
	env = f.execStmt(s.Init, env)
	if env == nil {
		return nil
	}
	f.eval(env, s.Cond)
	thenEnv := f.refine(cloneEnv(env), s.Cond, true)
	elseEnv := f.refine(cloneEnv(env), s.Cond, false)
	thenEnv = f.execStmt(s.Body, thenEnv)
	if s.Else != nil {
		elseEnv = f.execStmt(s.Else, elseEnv)
	}
	return joinEnv(thenEnv, elseEnv)
}

// execLoopBody is the shared widened-fixpoint driver for for/range
// loops: body is run silently until the head env stabilizes, then once
// more with hooks live.
func (f *valueFlow) execLoopBody(
	entry absEnv,
	runOnce func(head absEnv) absEnv, // body (+post); returns fall-through env
	exitOf func(head absEnv) absEnv, // env after the loop condition fails
) absEnv {
	frame := &loopFrame{}
	f.frames = append(f.frames, frame)
	f.mute++
	cur := cloneEnv(entry)
	for iter := 0; ; iter++ {
		frame.continueEnv = nil
		out := runOnce(cloneEnv(cur))
		out = joinEnv(out, frame.continueEnv)
		next := joinEnv(cur, out)
		if iter >= 2 && next != nil {
			//csecg:orderok pointwise widening, order-independent
			for v, fct := range next {
				if prev, ok := cur[v]; ok {
					fct.iv = fct.iv.WidenFrom(prev.iv)
					next[v] = fct
				}
			}
		}
		if envEqual(next, cur) || iter > 8 {
			cur = next
			break
		}
		cur = next
	}
	f.mute--
	// Reporting pass over the stabilized head env.
	frame.continueEnv = nil
	frame.breakEnv = nil
	runOnce(cloneEnv(cur))
	exit := joinEnv(exitOf(cloneEnv(cur)), frame.breakEnv)
	f.frames = f.frames[:len(f.frames)-1]
	return exit
}

func (f *valueFlow) execFor(s *ast.ForStmt, env absEnv) absEnv {
	env = f.execStmt(s.Init, env)
	if env == nil {
		return nil
	}
	if s.Cond != nil {
		f.eval(env, s.Cond)
	}
	runOnce := func(head absEnv) absEnv {
		body := f.refine(head, s.Cond, true)
		out := f.execStmt(s.Body, body)
		// continue jumps here, before post.
		if len(f.frames) > 0 {
			fr := f.frames[len(f.frames)-1]
			out = joinEnv(out, fr.continueEnv)
			fr.continueEnv = nil
		}
		return f.execStmt(s.Post, out)
	}
	exitOf := func(head absEnv) absEnv {
		if s.Cond == nil {
			return nil // only break leaves a bare for{}
		}
		return f.refine(head, s.Cond, false)
	}
	return f.execLoopBody(env, runOnce, exitOf)
}

func (f *valueFlow) execRange(s *ast.RangeStmt, env absEnv) absEnv {
	f.eval(env, s.X)
	// Key/value facts at body entry.
	setup := func(head absEnv) absEnv {
		tv, ok := f.info.Types[s.X]
		if !ok || tv.Type == nil {
			return head
		}
		t := tv.Type.Underlying()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem().Underlying()
		}
		keyIv := Interval{0, posInf}
		var ltObj *types.Var
		switch rt := t.(type) {
		case *types.Array:
			if rt.Len() == 0 {
				return nil
			}
			keyIv = Interval{0, rt.Len() - 1}
		case *types.Slice:
			if id, ok := unparen(s.X).(*ast.Ident); ok {
				if v, ok := objOf(f.info, id).(*types.Var); ok && !f.untracked[v] {
					ltObj = v
				}
			}
		case *types.Basic:
			if rt.Info()&types.IsInteger != 0 { // range over int (go1.22)
				f.mute++
				n := f.eval(head, s.X)
				f.mute--
				keyIv = Interval{0, addBound(n.Hi, -1)}
			}
		case *types.Map, *types.Chan, *types.Signature:
			if s.Key != nil {
				kiv, _, _ := f.exprTypeInterval(s.Key)
				keyIv = kiv
			}
		}
		if s.Key != nil {
			if s.Tok == token.DEFINE || s.Tok == token.ASSIGN {
				f.setFact(head, s.Key, keyIv, s.Key.Pos())
				if ltObj != nil {
					if id, ok := unparen(s.Key).(*ast.Ident); ok {
						if kv, ok := objOf(f.info, id).(*types.Var); ok && !f.untracked[kv] {
							fct := f.varFact(head, kv)
							fct.ltLen = map[types.Object]bool{types.Object(ltObj): true}
							head[kv] = fct
						}
					}
				}
			}
		}
		if s.Value != nil {
			viv, _, _ := f.exprTypeInterval(s.Value)
			f.setFact(head, s.Value, viv, s.Value.Pos())
		}
		return head
	}
	runOnce := func(head absEnv) absEnv {
		return f.execStmt(s.Body, setup(head))
	}
	exitOf := func(head absEnv) absEnv { return head }
	return f.execLoopBody(env, runOnce, exitOf)
}

func (f *valueFlow) execBranch(s *ast.BranchStmt, env absEnv) absEnv {
	if len(f.frames) == 0 {
		return nil
	}
	switch s.Tok {
	case token.BREAK:
		// Unlabeled: innermost frame. Labeled: conservatively join into
		// every open frame (wider envs at all exits stay sound).
		if s.Label == nil {
			fr := f.frames[len(f.frames)-1]
			fr.breakEnv = joinEnv(fr.breakEnv, cloneEnv(env))
		} else {
			for _, fr := range f.frames {
				fr.breakEnv = joinEnv(fr.breakEnv, cloneEnv(env))
			}
		}
	case token.CONTINUE:
		if s.Label == nil {
			for i := len(f.frames) - 1; i >= 0; i-- {
				if fr := f.frames[i]; !fr.breakOnly {
					fr.continueEnv = joinEnv(fr.continueEnv, cloneEnv(env))
					break
				}
			}
		} else {
			for _, fr := range f.frames {
				fr.continueEnv = joinEnv(fr.continueEnv, cloneEnv(env))
			}
		}
	}
	return nil
}

// execSwitch handles expression switches. Tagless switches refine each
// case condition (the saturation-clamp idiom: when every case body
// returns, the fall-through env carries the all-conditions-false
// refinement that proves the final conversion safe).
func (f *valueFlow) execSwitch(s *ast.SwitchStmt, env absEnv) absEnv {
	env = f.execStmt(s.Init, env)
	if env == nil {
		return nil
	}
	var tagIdent ast.Expr
	if s.Tag != nil {
		f.eval(env, s.Tag)
		tagIdent = s.Tag
	}
	// switch gets an implicit breakable frame.
	frame := &loopFrame{breakOnly: true}
	f.frames = append(f.frames, frame)

	residual := cloneEnv(env)
	var exits absEnv
	hasDefault := false
	var clauses []*ast.CaseClause
	for _, c := range s.Body.List {
		if cc, ok := c.(*ast.CaseClause); ok {
			clauses = append(clauses, cc)
		}
	}
	var fallEnv absEnv
	for ci, cc := range clauses {
		var caseEnv absEnv
		if cc.List == nil {
			hasDefault = true
			caseEnv = cloneEnv(residual)
		} else {
			for _, ce := range cc.List {
				f.eval(joinEnv(cloneEnv(residual), cloneEnv(env)), ce)
				var one absEnv
				if tagIdent != nil {
					one = f.refineOperand(cloneEnv(residual), tagIdent, token.EQL, f.evalMuted(residual, ce))
					residual = f.refineOperand(residual, tagIdent, token.NEQ, f.evalMuted(residual, ce))
				} else {
					one = f.refine(cloneEnv(residual), ce, true)
					residual = f.refine(residual, ce, false)
				}
				caseEnv = joinEnv(caseEnv, one)
				if residual == nil {
					break
				}
			}
		}
		caseEnv = joinEnv(caseEnv, fallEnv)
		fallEnv = nil
		// A trailing fallthrough hands the case's env to the next case,
		// so the body runs without it (execBranch would end the flow).
		body := cc.Body
		falls := endsInFallthrough(body) && ci+1 < len(clauses)
		if falls {
			body = body[:len(body)-1]
		}
		out := caseEnv
		for _, st := range body {
			out = f.execStmt(st, out)
			if out == nil {
				break
			}
		}
		if falls {
			fallEnv = out
			continue
		}
		exits = joinEnv(exits, out)
	}
	f.frames = f.frames[:len(f.frames)-1]
	exits = joinEnv(exits, frame.breakEnv)
	if !hasDefault {
		exits = joinEnv(exits, residual)
	}
	return exits
}

func (f *valueFlow) evalMuted(env absEnv, e ast.Expr) Interval {
	f.mute++
	iv := f.eval(env, e)
	f.mute--
	return iv
}

func endsInFallthrough(body []ast.Stmt) bool {
	if len(body) == 0 {
		return false
	}
	b, ok := body[len(body)-1].(*ast.BranchStmt)
	return ok && b.Tok == token.FALLTHROUGH
}

func (f *valueFlow) execTypeSwitch(s *ast.TypeSwitchStmt, env absEnv) absEnv {
	env = f.execStmt(s.Init, env)
	if env == nil {
		return nil
	}
	frame := &loopFrame{breakOnly: true}
	f.frames = append(f.frames, frame)
	var exits absEnv
	for _, c := range s.Body.List {
		cc, ok := c.(*ast.CaseClause)
		if !ok {
			continue
		}
		out := cloneEnv(env)
		for _, st := range cc.Body {
			out = f.execStmt(st, out)
			if out == nil {
				break
			}
		}
		exits = joinEnv(exits, out)
	}
	f.frames = f.frames[:len(f.frames)-1]
	exits = joinEnv(exits, frame.breakEnv)
	// The switch may match nothing only when there is no default; either
	// way the original env is a sound fall-through over-approximation.
	return joinEnv(exits, env)
}

func (f *valueFlow) execSelect(s *ast.SelectStmt, env absEnv) absEnv {
	frame := &loopFrame{breakOnly: true}
	f.frames = append(f.frames, frame)
	var exits absEnv
	for _, c := range s.Body.List {
		cc, ok := c.(*ast.CommClause)
		if !ok {
			continue
		}
		out := cloneEnv(env)
		if cc.Comm != nil {
			out = f.execStmt(cc.Comm, out)
		}
		for _, st := range cc.Body {
			out = f.execStmt(st, out)
			if out == nil {
				break
			}
		}
		exits = joinEnv(exits, out)
	}
	f.frames = f.frames[:len(f.frames)-1]
	return joinEnv(exits, frame.breakEnv)
}
