package interp

import (
	"vbuscluster/internal/f77"
	"vbuscluster/internal/sim"
)

// cost is a static CPU charge in machine-independent form: how many
// integer/logical operations, floating-point operations and call
// overheads one execution performs. Lowering computes it once per
// statement; a rank prices it against its cluster's CPU model. The
// terms are integers, so the sum equals, to the picosecond, the
// charge accumulated term by term.
type cost struct{ ints, flops, calls int64 }

func (k cost) plus(o cost) cost {
	return cost{k.ints + o.ints, k.flops + o.flops, k.calls + o.calls}
}

// price converts a static cost into virtual time on this rank's CPU.
func (env *Env) price(k cost) sim.Time {
	return sim.Time(k.ints)*env.cpu.IntOpTime + sim.Time(k.flops)*env.cpu.FlopTime + sim.Time(k.calls)*env.cpu.CallOverhead
}

// intrinsicWeights cost intrinsics in FlopTime units (rough 2001-era
// libm latencies relative to a multiply-add).
var intrinsicWeights = map[string]int64{
	"SQRT": 6, "EXP": 12, "LOG": 12, "ALOG": 12,
	"SIN": 15, "COS": 15, "TAN": 20, "ATAN": 20, "ATAN2": 22,
	"MOD": 3, "DMOD": 3, "SIGN": 2, "NINT": 2,
}

// opCost prices one arithmetic operation of type t.
func opCost(t f77.Type) cost {
	if t.IsFloat() {
		return cost{flops: 1}
	}
	return cost{ints: 1}
}

// exprCost statically prices one expression evaluation.
func exprCost(e f77.Expr) cost {
	switch x := e.(type) {
	case *f77.ArrayExpr:
		// Address arithmetic per subscript plus the load.
		c := cost{ints: int64(len(x.Subs)) + 1}
		for _, s := range x.Subs {
			c = c.plus(exprCost(s))
		}
		return c
	case *f77.Un:
		return exprCost(x.X).plus(opCost(f77.TypeOf(x)))
	case *f77.Bin:
		c := exprCost(x.L).plus(exprCost(x.R))
		switch x.Op {
		case f77.OpAnd, f77.OpOr, f77.OpLT, f77.OpLE, f77.OpGT, f77.OpGE, f77.OpEQ, f77.OpNE:
			return c.plus(cost{ints: 1})
		case f77.OpPow:
			return c.plus(cost{flops: 10})
		default:
			if f77.TypeOf(x.L).IsFloat() || f77.TypeOf(x.R).IsFloat() {
				return c.plus(cost{flops: 1})
			}
			return c.plus(cost{ints: 1})
		}
	case *f77.CallExpr:
		var c cost
		for _, a := range x.Args {
			c = c.plus(exprCost(a))
		}
		if x.Intrinsic {
			w := intrinsicWeights[x.Name]
			if w == 0 {
				w = 1
			}
			return c.plus(cost{flops: w})
		}
		// User functions price dynamically during execution; the call
		// site only carries the overhead here (body charges itself).
		return c.plus(cost{calls: 1})
	default:
		// Literals and scalar variables are free.
		return cost{}
	}
}

// assignCost prices one executed assignment: the right-hand side, the
// store, and the address arithmetic of each left-hand subscript.
func assignCost(a *f77.Assign) cost {
	c := exprCost(a.RHS).plus(cost{ints: 1})
	for _, s := range a.LHS.Subs {
		c = c.plus(exprCost(s)).plus(cost{ints: 1})
	}
	return c
}

// isBulkable reports whether a loop subtree can be charged in closed
// form: only assignments, CONTINUEs and nested DO loops, and no user
// function calls (whose cost is execution-dependent).
func isBulkable(loop *f77.DoLoop) bool {
	ok := true
	f77.WalkStmts([]f77.Stmt{loop}, func(s f77.Stmt) bool {
		switch s.(type) {
		case *f77.Assign, *f77.ContinueStmt, *f77.DoLoop:
		default:
			ok = false
		}
		f77.StmtExprs(s, func(e f77.Expr) {
			f77.WalkExpr(e, func(sub f77.Expr) {
				if c, isCall := sub.(*f77.CallExpr); isCall && !c.Intrinsic {
					ok = false
				}
			})
		})
		return ok
	})
	return ok
}

// loopVarDependent reports whether any nested loop's bounds reference
// this loop's variable (triangular nests need per-iteration cost).
func loopVarDependent(loop *f77.DoLoop) bool {
	dep := false
	reads := func(e f77.Expr) {
		f77.WalkExpr(e, func(sub f77.Expr) {
			if v, ok := sub.(*f77.VarExpr); ok && v.Sym == loop.Var {
				dep = true
			}
		})
	}
	f77.WalkStmts(loop.Body, func(s f77.Stmt) bool {
		if inner, ok := s.(*f77.DoLoop); ok {
			reads(inner.From)
			reads(inner.To)
			if inner.Step != nil {
				reads(inner.Step)
			}
		}
		return true
	})
	return dep
}
