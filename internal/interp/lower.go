package interp

import (
	"vbuscluster/internal/analysis"
	"vbuscluster/internal/f77"
	"vbuscluster/internal/postpass"
)

// Plan is a program lowered once for execution. Lowering resolves
// everything that does not depend on run-time values:
//
//   - every symbol gets a dense slot index into Env.slots;
//   - every expression becomes a closure of its static type
//     (float64, int64 or bool), so no type is decided per evaluation;
//   - constant array layouts fold into each reference's lower bounds
//     and strides, with the bounds check kept;
//   - every statement's static CPU charge is a precomputed cost;
//   - CALL and FUNCTION targets, GOTO label tables, the Timing-mode
//     bulk-costing shape of each loop and the SPMD region list are
//     resolved up front.
//
// A Plan is read-only after lowering: every rank of a run, and every
// concurrent run of one compiled program, executes the same Plan. All
// mutable state (storage, clocks, the SPMD tax) lives in the Env.
type Plan struct {
	// spmd is the SPMD translation the plan's regions come from; nil
	// for a plan that can only run sequentially.
	spmd *postpass.Program

	slots []slotInfo
	// slotOf resolves the symbols of cold paths (windows, reductions,
	// transfer plans) that run once per region, never per statement.
	slotOf map[*f77.Symbol]int32

	// main is the main unit (nil when the program has none).
	main *unitCode
	// regions parallels spmd.Regions.
	regions []regionCode
	// hasStop reports a STOP anywhere in the main body: the master's
	// halt decision must then be shared after every sequential region.
	hasStop bool
}

// slotInfo describes one symbol's storage slot.
type slotInfo struct {
	sym *f77.Symbol
	// lay is the constant layout of an array with constant bounds
	// (nil for scalars and adjustable or assumed-size arrays).
	lay *analysis.ArrayLayout
}

// size is the slot's constant element count: 1 for scalars, the
// layout size for constant arrays, 0 when storage is only known at
// CALL binding.
func (si slotInfo) size() int64 {
	if !si.sym.IsArray() {
		return 1
	}
	if si.lay == nil {
		return 0
	}
	return si.lay.Size
}

// regionCode is one lowered SPMD region: exactly one field is set.
type regionCode struct {
	stmts *block    // sequential (master-only) region
	par   *loopCode // partitioned loop
}

// unitCode is a lowered program unit.
type unitCode struct {
	name string
	body *block
	// frame lists the slots of every symbol the unit declares; a CALL
	// saves them on entry and restores them on exit.
	frame  []int32
	params []int32
	// result is a FUNCTION's result-variable slot (-1 when absent).
	result int32
	ret    f77.Type
	locals []local
	data   []dataInit
}

// local is storage a CALL allocates for the callee: a COMMON member
// binding, a scalar, or an array sized from bounds evaluated in the
// new frame (they may read just-bound dummies).
type local struct {
	slot   int32
	common bool
	dims   []dimCode // nil for scalars
}

// dimCode is one lowered array dimension: low nil means 1, high nil
// an assumed-size dimension.
type dimCode struct{ low, high iexpr }

type dataInit struct {
	slot int32
	vals []float64
}

// lowerer carries the lowering-time memo tables. They are discarded
// once the Plan is built; nothing here is consulted at run time.
type lowerer struct {
	plan  *Plan
	prog  *f77.Program
	units map[*f77.Unit]*unitCode
	stmts map[f77.Stmt]stmtFn
	loops map[*f77.DoLoop]*loopCode
}

// Lower resolves prog for sequential execution.
func Lower(prog *f77.Program) *Plan {
	lw := newLowerer(prog)
	return lw.plan
}

// LowerSPMD resolves an SPMD translation for parallel execution (and,
// since it covers the whole main unit, for the sequential baseline of
// the same program too).
func LowerSPMD(pp *postpass.Program) *Plan {
	lw := newLowerer(pp.Source)
	p := lw.plan
	p.spmd = pp
	for _, region := range pp.Regions {
		if region.Par == nil {
			p.regions = append(p.regions, regionCode{stmts: lw.block(region.Stmts)})
			continue
		}
		p.regions = append(p.regions, regionCode{par: lw.loop(region.Par.Loop)})
		for _, red := range region.Par.Reductions {
			lw.slot(red.Sym)
		}
		for _, ops := range [][]*postpass.CommOp{region.Par.Scatters, region.Par.Collects} {
			for _, op := range ops {
				lw.slot(op.Sym)
			}
		}
	}
	for _, sym := range pp.Windows {
		lw.slot(sym)
	}
	return p
}

func newLowerer(prog *f77.Program) *lowerer {
	lw := &lowerer{
		plan:  &Plan{slotOf: map[*f77.Symbol]int32{}},
		prog:  prog,
		units: map[*f77.Unit]*unitCode{},
		stmts: map[f77.Stmt]stmtFn{},
		loops: map[*f77.DoLoop]*loopCode{},
	}
	if main := prog.Main(); main != nil {
		lw.plan.main = lw.unit(main)
		f77.WalkStmts(main.Body, func(s f77.Stmt) bool {
			if _, ok := s.(*f77.StopStmt); ok {
				lw.plan.hasStop = true
			}
			return true
		})
	}
	return lw
}

// slot returns sym's slot, assigning the next one on first sight.
func (lw *lowerer) slot(sym *f77.Symbol) int32 {
	if s, ok := lw.plan.slotOf[sym]; ok {
		return s
	}
	s := int32(len(lw.plan.slots))
	info := slotInfo{sym: sym}
	if sym.IsArray() {
		if lay, err := analysis.LayoutOf(sym); err == nil && lay.Size > 0 {
			info.lay = &lay
		}
	}
	lw.plan.slots = append(lw.plan.slots, info)
	lw.plan.slotOf[sym] = s
	return s
}

// unit lowers a program unit once. The unitCode is memoized before its
// body is lowered, so a unit that calls itself resolves to itself.
func (lw *lowerer) unit(u *f77.Unit) *unitCode {
	if uc, ok := lw.units[u]; ok {
		return uc
	}
	uc := &unitCode{name: u.Name, result: -1, ret: u.Result}
	lw.units[u] = uc
	for _, sym := range u.Syms.Order {
		uc.frame = append(uc.frame, lw.slot(sym))
	}
	for _, sym := range u.Params {
		uc.params = append(uc.params, lw.slot(sym))
	}
	if u.Kind == f77.KFunction {
		if sym := u.Syms.Lookup(u.Name); sym != nil {
			uc.result = lw.slot(sym)
		}
	}
	for _, sym := range u.Syms.Order {
		if sym.IsArg || sym.IsConst {
			continue
		}
		l := local{slot: lw.slot(sym), common: sym.Common != ""}
		if !l.common && sym.IsArray() {
			for _, d := range sym.Dims {
				var dc dimCode
				if d.Low != nil {
					dc.low = lw.exprI(d.Low, 0)
				}
				if d.High != nil {
					dc.high = lw.exprI(d.High, 0)
				}
				l.dims = append(l.dims, dc)
			}
		}
		uc.locals = append(uc.locals, l)
	}
	for _, di := range u.DataInits {
		uc.data = append(uc.data, dataInit{slot: lw.slot(di.Sym), vals: di.Vals})
	}
	uc.body = lw.block(u.Body)
	return uc
}

// block lowers a statement list with its GOTO label table.
func (lw *lowerer) block(stmts []f77.Stmt) *block {
	b := &block{stmts: make([]stmtFn, len(stmts)), labels: make([]int, len(stmts))}
	for i, s := range stmts {
		b.stmts[i] = lw.stmt(s)
		b.labels[i] = s.Label()
	}
	return b
}

// stmt lowers one statement (memoized: the SPMD regions reuse the
// main body's statements).
func (lw *lowerer) stmt(s f77.Stmt) stmtFn {
	if fn, ok := lw.stmts[s]; ok {
		return fn
	}
	fn := lw.lowerStmt(s)
	lw.stmts[s] = fn
	return fn
}

func (lw *lowerer) lowerStmt(s f77.Stmt) stmtFn {
	line := s.Line()
	switch x := s.(type) {
	case *f77.Assign:
		return lw.assign(x)
	case *f77.ContinueStmt:
		return func(*Env) (ctrl, int) { return ctrlNormal, 0 }
	case *f77.DoLoop:
		return lw.loop(x).exec
	case *f77.IfBlock:
		ifc := &ifCode{els: lw.block(x.Else)}
		for k, cond := range x.Conds {
			ifc.conds = append(ifc.conds, lw.exprB(cond, line))
			ifc.costs = append(ifc.costs, exprCost(cond))
			ifc.blocks = append(ifc.blocks, lw.block(x.Blocks[k]))
		}
		return ifc.exec
	case *f77.Goto:
		target := x.Target
		return func(env *Env) (ctrl, int) {
			env.charge(env.cpu.IntOpTime)
			return ctrlJump, target
		}
	case *f77.CallStmt:
		return lw.callStmt(x)
	case *f77.ReturnStmt:
		return func(*Env) (ctrl, int) { return ctrlReturn, 0 }
	case *f77.StopStmt:
		return func(*Env) (ctrl, int) { return ctrlStop, 0 }
	case *f77.PrintStmt:
		return lw.print(x)
	default:
		return func(env *Env) (ctrl, int) {
			env.fail(line, "unhandled statement %T", s)
			return ctrlNormal, 0
		}
	}
}

// assign lowers LHS = RHS. The target element is resolved (storage
// bound, subscripts evaluated and checked) before the right-hand side
// is evaluated, and the conversion to the target's type is chosen now.
func (lw *lowerer) assign(x *f77.Assign) stmtFn {
	line := x.Line()
	k := assignCost(x)
	sym := x.LHS.Sym
	lhs := lw.elem(sym, x.LHS.Subs, line)
	rt := f77.TypeOf(x.RHS)
	switch {
	case rt == f77.TLogical && sym.Type == f77.TLogical:
		rhs := lw.exprB(x.RHS, line)
		return func(env *Env) (ctrl, int) {
			env.charge(env.price(k))
			b, i := lhs.at(env)
			v := 0.0
			if rhs(env) {
				v = 1
			}
			b[i] = v
			return ctrlNormal, 0
		}
	case sym.Type == f77.TInteger && rt == f77.TInteger:
		rhs := lw.exprI(x.RHS, line)
		return func(env *Env) (ctrl, int) {
			env.charge(env.price(k))
			b, i := lhs.at(env)
			b[i] = float64(rhs(env))
			return ctrlNormal, 0
		}
	case sym.Type == f77.TInteger:
		rhs := lw.exprF(x.RHS, line)
		return func(env *Env) (ctrl, int) {
			env.charge(env.price(k))
			b, i := lhs.at(env)
			b[i] = float64(int64(rhs(env))) // REAL→INTEGER truncates
			return ctrlNormal, 0
		}
	default:
		rhs := lw.exprF(x.RHS, line)
		return func(env *Env) (ctrl, int) {
			env.charge(env.price(k))
			b, i := lhs.at(env)
			b[i] = rhs(env)
			return ctrlNormal, 0
		}
	}
}

// loop lowers a DO loop once (memoized: a partitioned region runs the
// same loopCode the main body holds).
func (lw *lowerer) loop(x *f77.DoLoop) *loopCode {
	if lc, ok := lw.loops[x]; ok {
		return lc
	}
	line := x.Line()
	lc := &loopCode{
		line: line,
		v:    lw.slot(x.Var),
		from: lw.exprI(x.From, line),
		to:   lw.exprI(x.To, line),
		body: lw.block(x.Body),
	}
	if x.Step != nil {
		lc.step = lw.exprI(x.Step, line)
	}
	lw.loops[x] = lc
	if isBulkable(x) {
		bc := &bulkCode{varDep: loopVarDependent(x)}
		for _, s := range x.Body {
			switch y := s.(type) {
			case *f77.Assign:
				bc.assigns = bc.assigns.plus(assignCost(y))
			case *f77.DoLoop:
				bc.nested = append(bc.nested, lw.loop(y))
			}
		}
		lc.bulk = bc
	}
	return lc
}

// callStmt lowers CALL name(args): the callee is resolved now; an
// unknown one fails only if the CALL executes.
func (lw *lowerer) callStmt(x *f77.CallStmt) stmtFn {
	line := x.Line()
	callee := lw.prog.Lookup(x.Name)
	if callee == nil || callee.Kind != f77.KSubroutine {
		name := x.Name
		return func(env *Env) (ctrl, int) {
			env.fail(line, "CALL of unknown subroutine %s", name)
			return ctrlNormal, 0
		}
	}
	uc := lw.unit(callee)
	args := lw.actuals(callee, x.Args, line)
	return func(env *Env) (ctrl, int) {
		env.charge(env.cpu.CallOverhead)
		env.call(uc, args, line)
		return ctrlNormal, 0
	}
}

// actuals lowers a call's argument bindings. Whole-variable actuals
// alias (Fortran passes by reference); array-element actuals alias the
// tail slice (sequence association); expression actuals — a named
// PARAMETER among them, which has no storage to alias — materialize
// into a one-element temporary of the dummy's type.
func (lw *lowerer) actuals(callee *f77.Unit, args []f77.Expr, line int) []actualFn {
	out := make([]actualFn, len(args))
	for i, a := range args {
		switch x := a.(type) {
		case *f77.VarExpr:
			if x.Sym.IsConst {
				out[i] = lw.temporary(callee.Params[i], a, line)
				continue
			}
			s := lw.slot(x.Sym)
			out[i] = func(env *Env) []float64 { return env.buf(s, line) }
		case *f77.ArrayExpr:
			r := lw.elem(x.Sym, x.Subs, line)
			out[i] = func(env *Env) []float64 {
				b, k := r.at(env)
				return b[k:]
			}
		default:
			out[i] = lw.temporary(callee.Params[i], a, line)
		}
	}
	return out
}

// temporary binds an expression actual: each call evaluates it into a
// fresh one-element buffer of the dummy's type.
func (lw *lowerer) temporary(dummy *f77.Symbol, a f77.Expr, line int) actualFn {
	if dummy.Type == f77.TInteger {
		e := lw.exprI(a, line)
		return func(env *Env) []float64 { return []float64{float64(e(env))} }
	}
	e := lw.exprF(a, line)
	return func(env *Env) []float64 { return []float64{e(env)} }
}

// print lowers PRINT *, args: each item formats as a string, an
// integer or a float by its static type.
func (lw *lowerer) print(x *f77.PrintStmt) stmtFn {
	items := make([]func(*Env) any, len(x.Args))
	for i, a := range x.Args {
		switch v := a.(type) {
		case *f77.StrLit:
			s := v.Val
			items[i] = func(*Env) any { return s }
		default:
			if f77.TypeOf(a) == f77.TInteger {
				e := lw.exprI(a, x.Line())
				items[i] = func(env *Env) any { return e(env) }
			} else {
				e := lw.exprF(a, x.Line())
				items[i] = func(env *Env) any { return e(env) }
			}
		}
	}
	return func(env *Env) (ctrl, int) {
		env.charge(env.cpu.CallOverhead)
		if env.mode == Full && env.out != nil {
			env.print(items)
		}
		return ctrlNormal, 0
	}
}
