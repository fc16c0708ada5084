package interp

import (
	"fmt"

	"vbuscluster/internal/f77"
	"vbuscluster/internal/sim"
)

// ctrl is the statement-level control-flow outcome.
type ctrl int

const (
	ctrlNormal ctrl = iota
	ctrlReturn
	ctrlStop
	ctrlJump
)

// stmtFn executes one lowered statement; a ctrlJump carries its GOTO
// target label.
type stmtFn func(*Env) (ctrl, int)

// block is a lowered statement list with the label of each statement.
type block struct {
	stmts  []stmtFn
	labels []int
}

// run executes the list, resolving GOTO targets within it and
// propagating unresolved jumps upward.
func (b *block) run(env *Env) (ctrl, int) {
	i := 0
	for i < len(b.stmts) {
		c, target := b.stmts[i](env)
		switch c {
		case ctrlNormal:
			i++
		case ctrlJump:
			found := -1
			for j, l := range b.labels {
				if l == target {
					found = j
					break
				}
			}
			if found < 0 {
				return ctrlJump, target
			}
			i = found
		default:
			return c, 0
		}
	}
	return ctrlNormal, 0
}

// ifCode is a lowered block IF: conds[k] (charged costs[k]) selects
// blocks[k]; els runs when none holds.
type ifCode struct {
	conds  []bexpr
	costs  []cost
	blocks []*block
	els    *block
}

func (x *ifCode) exec(env *Env) (ctrl, int) {
	for k, cond := range x.conds {
		env.charge(env.price(x.costs[k]))
		if cond(env) {
			return x.blocks[k].run(env)
		}
	}
	return x.els.run(env)
}

// loopCode is a lowered DO loop.
type loopCode struct {
	line           int
	v              int32 // loop variable slot
	from, to, step iexpr // step nil means 1
	body           *block
	// bulk is set when the loop nest can be charged in closed form
	// (Timing mode): only assignments, CONTINUEs and nested DO loops,
	// and no user function calls.
	bulk *bulkCode
}

// bulkCode is the closed-form costing shape of a bulkable loop body.
type bulkCode struct {
	// varDep reports that a nested loop's bounds read this loop's
	// variable (a triangular nest needs per-iteration costing).
	varDep bool
	// assigns is the summed static cost of the body's assignments.
	assigns cost
	// nested are the body's DO loops, in statement order.
	nested []*loopCode
}

func (l *loopCode) exec(env *Env) (ctrl, int) {
	env.charge(3 * env.cpu.IntOpTime) // bound evaluation
	if env.mode == Timing && l.bulk != nil {
		from, step, trips := l.bounds(env)
		env.charge(l.bulkCost(env, from, step, trips))
		// The loop variable's post-loop value per the Fortran standard.
		env.buf(l.v, l.line)[0] = float64(from + trips*step)
		return ctrlNormal, 0
	}
	from, step, trips := l.bounds(env)
	v := env.buf(l.v, l.line)
	x := from
	tick := env.cpu.LoopOverhead + env.spmdTax
	for k := int64(0); k < trips; k++ {
		v[0] = float64(x)
		env.charge(tick)
		c, target := l.body.run(env)
		switch c {
		case ctrlReturn, ctrlStop:
			return c, 0
		case ctrlJump:
			return ctrlJump, target // jump out of the loop
		}
		x += step
	}
	v[0] = float64(x)
	return ctrlNormal, 0
}

func (l *loopCode) bounds(env *Env) (from, step, trips int64) {
	from = l.from(env)
	to := l.to(env)
	step = 1
	if l.step != nil {
		step = l.step(env)
	}
	if step == 0 {
		env.fail(l.line, "DO step is zero")
	}
	trips = (to-from)/step + 1
	if trips < 0 {
		trips = 0
	}
	return from, step, trips
}

// bulkCost prices a bulkable loop without executing its body. Bounds
// were already evaluated by the caller.
func (l *loopCode) bulkCost(env *Env, from, step, trips int64) sim.Time {
	if trips <= 0 {
		return 0
	}
	v := env.buf(l.v, l.line)
	if !l.bulk.varDep {
		v[0] = float64(from)
		per := env.cpu.LoopOverhead + env.spmdTax + l.bodyCost(env)
		return sim.Time(trips) * per
	}
	var total sim.Time
	x := from
	for k := int64(0); k < trips; k++ {
		v[0] = float64(x)
		total += env.cpu.LoopOverhead + env.spmdTax + l.bodyCost(env)
		x += step
	}
	return total
}

// bodyCost prices one iteration of a bulkable body in the current env
// (loop variables of enclosing dry-run levels are set in storage).
func (l *loopCode) bodyCost(env *Env) sim.Time {
	total := env.price(l.bulk.assigns)
	for _, in := range l.bulk.nested {
		total += 3 * env.cpu.IntOpTime
		from, step, trips := in.bounds(env)
		total += in.bulkCost(env, from, step, trips)
		env.buf(in.v, in.line)[0] = float64(from + trips*step)
	}
	return total
}

// stopSignal unwinds the interpreter on STOP; run boundaries treat it
// as clean termination.
type stopSignal struct{}

// runBody runs a unit's statements, swallowing RETURN. STOP unwinds to
// the nearest run boundary via stopSignal.
func (env *Env) runBody(uc *unitCode) {
	c, target := uc.body.run(env)
	if c == ctrlJump {
		env.fail(0, "GOTO %d has no target in %s", target, uc.name)
	}
	if c == ctrlStop {
		panic(stopSignal{})
	}
}

// call executes a CALL or FUNCTION reference: it saves the callee's
// slots, binds the actuals (evaluated in the caller's frame first) to
// the dummies, allocates the callee's locals, runs the body and
// restores the caller's bindings. It returns a FUNCTION's result.
func (env *Env) call(uc *unitCode, args []actualFn, line int) float64 {
	saved := make([][]float64, len(uc.frame))
	for i, s := range uc.frame {
		saved[i] = env.slots[s]
	}
	defer func() {
		for i, s := range uc.frame {
			env.slots[s] = saved[i]
		}
	}()
	bind := make([][]float64, len(args))
	for i, a := range args {
		bind[i] = a(env)
	}
	for i, s := range uc.params {
		env.slots[s] = bind[i]
	}
	// Locals allocate fresh (dims may reference just-bound dummies);
	// COMMON members bind to the shared block storage instead.
	for _, l := range uc.locals {
		switch {
		case l.common:
			buf, err := env.commonSlot(l.slot)
			if err != nil {
				env.fail(line, "%v", err)
			}
			env.slots[l.slot] = buf
		case l.dims == nil:
			env.slots[l.slot] = make([]float64, 1)
		default:
			size := int64(1)
			for _, d := range l.dims {
				low := int64(1)
				if d.low != nil {
					low = d.low(env)
				}
				if d.high == nil {
					env.fail(line, "local array %s of %s has assumed size", env.plan.slots[l.slot].sym.Name, uc.name)
				}
				size *= d.high(env) - low + 1
			}
			if size < 0 {
				env.fail(line, "local array %s of %s has negative size %d", env.plan.slots[l.slot].sym.Name, uc.name, size)
			}
			env.slots[l.slot] = make([]float64, size)
		}
	}
	env.applyDataInits(uc)
	env.runBody(uc)
	if uc.result < 0 {
		return 0
	}
	result := env.buf(uc.result, line)[0]
	if uc.ret == f77.TInteger {
		result = float64(int64(result))
	}
	return result
}

func (env *Env) print(items []func(*Env) any) {
	parts := make([]any, len(items))
	for i, item := range items {
		parts[i] = item(env)
	}
	fmt.Fprintln(env.out, parts...)
}
