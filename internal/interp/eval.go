package interp

import (
	"math"

	"vbuscluster/internal/f77"
)

// Lowered expression forms. Each closure evaluates one expression node
// with Fortran semantics in the type lowering chose for it: integer
// subexpressions use truncating arithmetic, LOGICAL values are bools
// (stored as 1.0/0.0 in their one-word cells).
type (
	fexpr func(*Env) float64
	iexpr func(*Env) int64
	bexpr func(*Env) bool
	// actualFn binds one CALL/FUNCTION actual in the caller's frame.
	actualFn func(*Env) []float64
)

// exprF lowers e for a REAL/DOUBLE context.
func (lw *lowerer) exprF(e f77.Expr, line int) fexpr {
	if f77.TypeOf(e) == f77.TInteger {
		ie := lw.exprI(e, line)
		return func(env *Env) float64 { return float64(ie(env)) }
	}
	switch x := e.(type) {
	case *f77.RealLit:
		v := x.Val
		return func(*Env) float64 { return v }
	case *f77.LogLit:
		v := 0.0
		if x.Val {
			v = 1
		}
		return func(*Env) float64 { return v }
	case *f77.VarExpr:
		if x.Sym.IsConst {
			v := x.Sym.Const
			return func(*Env) float64 { return v }
		}
		s := lw.slot(x.Sym)
		return func(env *Env) float64 { return env.buf(s, line)[0] }
	case *f77.ArrayExpr:
		r := lw.elem(x.Sym, x.Subs, line)
		return func(env *Env) float64 {
			b, i := r.at(env)
			return b[i]
		}
	case *f77.Un:
		v := lw.exprF(x.X, line)
		switch x.Op {
		case f77.OpNeg:
			return func(env *Env) float64 { return -v(env) }
		case f77.OpPlus:
			return v
		}
		return func(env *Env) float64 {
			env.fail(line, "logical unary in arithmetic context")
			return 0
		}
	case *f77.Bin:
		return lw.binF(x, line)
	case *f77.CallExpr:
		return lw.callF(x, line)
	}
	return func(env *Env) float64 {
		env.fail(line, "unhandled expression %T", e)
		return 0
	}
}

func (lw *lowerer) binF(x *f77.Bin, line int) fexpr {
	l := lw.exprF(x.L, line)
	if x.Op == f77.OpPow && f77.TypeOf(x.R) == f77.TInteger {
		// The integer exponent is evaluated once, as an integer.
		r := lw.exprI(x.R, line)
		return func(env *Env) float64 {
			base := l(env)
			return intPowF(base, r(env))
		}
	}
	r := lw.exprF(x.R, line)
	switch x.Op {
	case f77.OpAdd:
		return func(env *Env) float64 { return l(env) + r(env) }
	case f77.OpSub:
		return func(env *Env) float64 { return l(env) - r(env) }
	case f77.OpMul:
		return func(env *Env) float64 { return l(env) * r(env) }
	case f77.OpDiv:
		return func(env *Env) float64 { return l(env) / r(env) }
	case f77.OpPow:
		return func(env *Env) float64 {
			base := l(env)
			return math.Pow(base, r(env))
		}
	}
	return func(env *Env) float64 {
		l(env)
		r(env)
		env.fail(line, "relational operator in arithmetic context")
		return 0
	}
}

func intPowF(base float64, exp int64) float64 {
	if exp < 0 {
		return 1 / intPowF(base, -exp)
	}
	out := 1.0
	for ; exp > 0; exp >>= 1 {
		if exp&1 == 1 {
			out *= base
		}
		base *= base
	}
	return out
}

// intPowI is INTEGER ** INTEGER by repeated squaring. A negative
// exponent truncates 1/base**-exp the Fortran way: 0, except for the
// bases 1 and -1.
func (env *Env) intPowI(base, exp int64, line int) int64 {
	if exp < 0 {
		switch base {
		case 0:
			env.fail(line, "zero raised to a negative integer power")
		case 1:
			return 1
		case -1:
			if exp&1 == 0 {
				return 1
			}
			return -1
		}
		return 0
	}
	out := int64(1)
	for ; exp > 0; exp >>= 1 {
		if exp&1 == 1 {
			out *= base
		}
		base *= base
	}
	return out
}

// exprI lowers e for an INTEGER context.
func (lw *lowerer) exprI(e f77.Expr, line int) iexpr {
	switch x := e.(type) {
	case *f77.IntLit:
		v := x.Val
		return func(*Env) int64 { return v }
	case *f77.RealLit:
		v := int64(x.Val)
		return func(*Env) int64 { return v }
	case *f77.VarExpr:
		if x.Sym.IsConst {
			v := int64(x.Sym.Const)
			return func(*Env) int64 { return v }
		}
		s := lw.slot(x.Sym)
		return func(env *Env) int64 { return int64(env.buf(s, line)[0]) }
	case *f77.ArrayExpr:
		r := lw.elem(x.Sym, x.Subs, line)
		return func(env *Env) int64 {
			b, i := r.at(env)
			return int64(b[i])
		}
	case *f77.Un:
		switch x.Op {
		case f77.OpNeg:
			v := lw.exprI(x.X, line)
			return func(env *Env) int64 { return -v(env) }
		case f77.OpPlus:
			return lw.exprI(x.X, line)
		}
	case *f77.Bin:
		if fn := lw.binI(x, line); fn != nil {
			return fn
		}
	case *f77.CallExpr:
		f := lw.callF(x, line)
		return func(env *Env) int64 { return int64(f(env)) }
	}
	// Everything else goes through float evaluation (e.g. INT(REAL
	// expr)); the float lowering reports non-arithmetic nodes.
	f := lw.exprF(e, line)
	return func(env *Env) int64 { return int64(f(env)) }
}

// binI lowers integer arithmetic; nil when the node needs the float
// path (a REAL operand) or is not arithmetic.
func (lw *lowerer) binI(x *f77.Bin, line int) iexpr {
	if f77.TypeOf(x.L).IsFloat() || f77.TypeOf(x.R).IsFloat() {
		return nil
	}
	switch x.Op {
	case f77.OpAdd, f77.OpSub, f77.OpMul, f77.OpDiv, f77.OpPow:
	default:
		return nil
	}
	l, r := lw.exprI(x.L, line), lw.exprI(x.R, line)
	switch x.Op {
	case f77.OpAdd:
		return func(env *Env) int64 { return l(env) + r(env) }
	case f77.OpSub:
		return func(env *Env) int64 { return l(env) - r(env) }
	case f77.OpMul:
		return func(env *Env) int64 { return l(env) * r(env) }
	case f77.OpDiv:
		return func(env *Env) int64 {
			a, b := l(env), r(env)
			if b == 0 {
				env.fail(line, "integer division by zero")
			}
			return a / b
		}
	default:
		return func(env *Env) int64 {
			a, b := l(env), r(env)
			return env.intPowI(a, b, line)
		}
	}
}

// exprB lowers e for a LOGICAL context.
func (lw *lowerer) exprB(e f77.Expr, line int) bexpr {
	switch x := e.(type) {
	case *f77.LogLit:
		v := x.Val
		return func(*Env) bool { return v }
	case *f77.VarExpr:
		if x.Sym.Type == f77.TLogical {
			s := lw.slot(x.Sym)
			return func(env *Env) bool { return env.buf(s, line)[0] != 0 }
		}
	case *f77.ArrayExpr:
		if x.Sym.Type == f77.TLogical {
			r := lw.elem(x.Sym, x.Subs, line)
			return func(env *Env) bool {
				b, i := r.at(env)
				return b[i] != 0
			}
		}
	case *f77.Un:
		if x.Op == f77.OpNot {
			v := lw.exprB(x.X, line)
			return func(env *Env) bool { return !v(env) }
		}
	case *f77.Bin:
		switch x.Op {
		case f77.OpAnd:
			l, r := lw.exprB(x.L, line), lw.exprB(x.R, line)
			return func(env *Env) bool { return l(env) && r(env) }
		case f77.OpOr:
			l, r := lw.exprB(x.L, line), lw.exprB(x.R, line)
			return func(env *Env) bool { return l(env) || r(env) }
		case f77.OpLT, f77.OpLE, f77.OpGT, f77.OpGE, f77.OpEQ, f77.OpNE:
			if f77.TypeOf(x.L) == f77.TInteger && f77.TypeOf(x.R) == f77.TInteger {
				return relational(x.Op, lw.exprI(x.L, line), lw.exprI(x.R, line))
			}
			return relational(x.Op, lw.exprF(x.L, line), lw.exprF(x.R, line))
		}
	}
	return func(env *Env) bool {
		env.fail(line, "expression is not logical: %T", e)
		return false
	}
}

func relational[T int64 | float64](op f77.BinOp, l, r func(*Env) T) bexpr {
	switch op {
	case f77.OpLT:
		return func(env *Env) bool { return l(env) < r(env) }
	case f77.OpLE:
		return func(env *Env) bool { return l(env) <= r(env) }
	case f77.OpGT:
		return func(env *Env) bool { return l(env) > r(env) }
	case f77.OpGE:
		return func(env *Env) bool { return l(env) >= r(env) }
	case f77.OpEQ:
		return func(env *Env) bool { return l(env) == r(env) }
	default:
		return func(env *Env) bool { return l(env) != r(env) }
	}
}

// callF lowers an intrinsic or user FUNCTION reference.
func (lw *lowerer) callF(x *f77.CallExpr, line int) fexpr {
	if x.Intrinsic {
		return lw.intrinsic(x, line)
	}
	callee := lw.prog.Lookup(x.Name)
	if callee == nil || callee.Kind != f77.KFunction {
		name := x.Name
		return func(env *Env) float64 {
			env.fail(line, "call of unknown function %s", name)
			return 0
		}
	}
	uc := lw.unit(callee)
	args := lw.actuals(callee, x.Args, line)
	return func(env *Env) float64 {
		env.charge(env.cpu.CallOverhead)
		return env.call(uc, args, line)
	}
}

func (lw *lowerer) intrinsic(x *f77.CallExpr, line int) fexpr {
	name := x.Name
	args := make([]fexpr, len(x.Args))
	for i, a := range x.Args {
		args[i] = lw.exprF(a, line)
	}
	a0 := args[0]
	unary := func(f func(float64) float64) fexpr {
		return func(env *Env) float64 { return f(a0(env)) }
	}
	switch name {
	case "ABS", "IABS":
		return unary(math.Abs)
	case "SQRT":
		return unary(math.Sqrt)
	case "EXP":
		return unary(math.Exp)
	case "LOG", "ALOG":
		return unary(math.Log)
	case "SIN":
		return unary(math.Sin)
	case "COS":
		return unary(math.Cos)
	case "TAN":
		return unary(math.Tan)
	case "ATAN":
		return unary(math.Atan)
	case "ATAN2":
		a1 := args[1]
		return func(env *Env) float64 {
			y := a0(env)
			return math.Atan2(y, a1(env))
		}
	case "MOD":
		if f77.TypeOf(x.Args[0]) == f77.TInteger && f77.TypeOf(x.Args[1]) == f77.TInteger {
			n, m := lw.exprI(x.Args[0], line), lw.exprI(x.Args[1], line)
			return func(env *Env) float64 {
				d := m(env)
				if d == 0 {
					env.fail(line, "MOD by zero")
				}
				return float64(n(env) % d)
			}
		}
		fallthrough
	case "DMOD":
		a1 := args[1]
		return func(env *Env) float64 {
			v := a0(env)
			return math.Mod(v, a1(env))
		}
	case "MIN", "MIN0", "AMIN1", "MAX", "MAX0", "AMAX1":
		pick := math.Max
		if name == "MIN" || name == "MIN0" || name == "AMIN1" {
			pick = math.Min
		}
		trunc := name == "MIN0" || name == "MAX0"
		return func(env *Env) float64 {
			out := a0(env)
			for _, a := range args[1:] {
				out = pick(out, a(env))
			}
			if trunc {
				return float64(int64(out))
			}
			return out
		}
	case "INT":
		return func(env *Env) float64 { return float64(int64(a0(env))) }
	case "NINT":
		return unary(math.Round)
	case "REAL", "FLOAT", "DBLE":
		return a0
	case "SIGN":
		a1 := args[1]
		return func(env *Env) float64 {
			v, s := a0(env), a1(env)
			if s < 0 {
				return -math.Abs(v)
			}
			return math.Abs(v)
		}
	}
	return func(env *Env) float64 {
		env.fail(line, "unhandled intrinsic %s", name)
		return 0
	}
}

// elemRef is a lowered array element reference. A constant layout
// folds into per-subscript (offset, stride) terms; the common case of
// subscripts that are a variable plus a constant reads the variables'
// slots directly. Adjustable and assumed-size arrays evaluate their
// bounds in the current frame on every access.
type elemRef struct {
	kind refKind
	slot int32
	line int
	name string
	// size is the constant layout's element count (refTerm*, refConst).
	size   int64
	t0, t1 term // refTerm1, refTerm2
	// subs are the lowered subscripts of refConst and refDynamic, with
	// the constant layout's lower bounds and strides (refConst) or the
	// lowered dimensions (refDynamic).
	subs       []iexpr
	lows, mult []int64
	dims       []dimCode
}

type refKind int

const (
	refScalar  refKind = iota // no subscripts: element 0
	refTerm1                  // constant layout, one folded subscript
	refTerm2                  // constant layout, two folded subscripts
	refConst                  // constant layout, general subscripts
	refDynamic                // bounds evaluated per access
	refArity                  // more subscripts than dimensions: fails when run
)

// at resolves the element: the array's storage and the checked linear
// index into it. Storage is bound before any subscript is evaluated.
func (r *elemRef) at(env *Env) ([]float64, int64) {
	b := env.buf(r.slot, r.line)
	var i int64
	switch r.kind {
	case refScalar:
		return b, 0
	case refTerm1:
		i = r.t0.value(env, r.line)
	case refTerm2:
		// The loop nest's hot case: both subscript variables bound.
		if v0, v1 := env.slots[r.t0.slot], env.slots[r.t1.slot]; v0 != nil && v1 != nil {
			i = (int64(v0[0])+r.t0.off)*r.t0.mult + (int64(v1[0])+r.t1.off)*r.t1.mult
		} else {
			i = r.t0.value(env, r.line) + r.t1.value(env, r.line)
		}
	case refConst:
		for k, sub := range r.subs {
			i += (sub(env) - r.lows[k]) * r.mult[k]
		}
	case refDynamic:
		mult := int64(1)
		for k, d := range r.dims {
			low := int64(1)
			if d.low != nil {
				low = d.low(env)
			}
			i += (r.subs[k](env) - low) * mult
			if d.high != nil {
				mult *= d.high(env) - low + 1
			}
		}
		if i < 0 || i >= int64(len(b)) {
			env.outOfBounds(r.name, i, int64(len(b)), r.line)
		}
		return b, i
	default:
		env.fail(r.line, "%s has more subscripts than dimensions", r.name)
	}
	if i < 0 || i >= r.size || i >= int64(len(b)) {
		env.outOfBounds(r.name, i, r.size, r.line)
	}
	return b, i
}

// elem lowers a reference to sym(subs...), or to the scalar sym when
// subs is empty.
func (lw *lowerer) elem(sym *f77.Symbol, subs []f77.Expr, line int) *elemRef {
	r := &elemRef{slot: lw.slot(sym), line: line, name: sym.Name}
	if len(subs) == 0 {
		return r
	}
	// Fewer subscripts than dimensions address the array linearly from
	// the leading dimensions: an inlined 1-D dummy over a 2-D actual.
	if len(subs) > len(sym.Dims) {
		r.kind = refArity
		return r
	}
	lay := lw.plan.slots[r.slot].lay
	if lay != nil && len(subs) <= 2 {
		var terms [2]term
		simple := true
		for k, sub := range subs {
			t, ok := lw.simpleSub(sub)
			if !ok {
				simple = false
				break
			}
			t.off -= lay.Lows[k]
			t.mult = lay.Mult[k]
			terms[k] = t
		}
		if simple {
			r.kind, r.size, r.t0, r.t1 = refTerm1, lay.Size, terms[0], terms[1]
			if len(subs) == 2 {
				r.kind = refTerm2
			}
			return r
		}
	}
	for _, sub := range subs {
		r.subs = append(r.subs, lw.exprI(sub, line))
	}
	if lay != nil {
		r.kind, r.size, r.lows, r.mult = refConst, lay.Size, lay.Lows, lay.Mult
		return r
	}
	r.kind = refDynamic
	r.dims = make([]dimCode, len(subs))
	for k, d := range sym.Dims[:len(subs)] {
		if d.Low != nil {
			r.dims[k].low = lw.exprI(d.Low, line)
		}
		if d.High != nil {
			r.dims[k].high = lw.exprI(d.High, line)
		}
	}
	return r
}

// term is one folded subscript of a constant layout: it contributes
// (slot value + off) * mult to the linear index, with the dimension's
// lower bound already folded into off.
type term struct {
	slot      int32
	off, mult int64
}

func (t *term) value(env *Env, line int) int64 {
	b := env.slots[t.slot]
	if b == nil {
		b = env.bind(t.slot, line)
	}
	return (int64(b[0]) + t.off) * t.mult
}

// simpleSub recognizes a subscript that is an integer variable, or an
// integer variable plus or minus an integer constant.
func (lw *lowerer) simpleSub(e f77.Expr) (term, bool) {
	switch x := e.(type) {
	case *f77.VarExpr:
		if !x.Sym.IsConst {
			return term{slot: lw.slot(x.Sym)}, true
		}
	case *f77.Bin:
		if (x.Op != f77.OpAdd && x.Op != f77.OpSub) ||
			f77.TypeOf(x.L).IsFloat() || f77.TypeOf(x.R).IsFloat() {
			return term{}, false
		}
		v, isVar := x.L.(*f77.VarExpr)
		c, isConst := intConst(x.R)
		if isVar && !v.Sym.IsConst && isConst {
			if x.Op == f77.OpSub {
				c = -c
			}
			return term{slot: lw.slot(v.Sym), off: c}, true
		}
		v, isVar = x.R.(*f77.VarExpr)
		c, isConst = intConst(x.L)
		if x.Op == f77.OpAdd && isVar && !v.Sym.IsConst && isConst {
			return term{slot: lw.slot(v.Sym), off: c}, true
		}
	}
	return term{}, false
}

// intConst is the integer value of a literal or PARAMETER operand.
func intConst(e f77.Expr) (int64, bool) {
	switch x := e.(type) {
	case *f77.IntLit:
		return x.Val, true
	case *f77.VarExpr:
		if x.Sym.IsConst {
			return int64(x.Sym.Const), true
		}
	}
	return 0, false
}
