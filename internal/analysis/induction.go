package analysis

import (
	"fmt"

	"vbuscluster/internal/f77"
)

// SubstituteInductions rewrites auxiliary induction variables in every
// loop of the unit (§3's induction variable substitution). The handled
// pattern is the classic one:
//
//	DO I = from, to          ! step 1
//	  ...uses of K...        ! closed form: K0 + c*(I-from)
//	  K = K + c              ! the only assignment to K in the loop
//	  ...uses of K...        ! closed form: K0 + c*(I-from+1)
//	ENDDO
//
// K's pre-loop value is captured in a compiler temporary K$0 inserted
// before the loop; every use inside becomes an affine function of the
// loop index (enabling LMAD analysis), and K is reassigned its final
// value after the loop.
func SubstituteInductions(u *f77.Unit) {
	u.Body = substituteInStmts(u, u.Body)
}

func substituteInStmts(u *f77.Unit, stmts []f77.Stmt) []f77.Stmt {
	var out []f77.Stmt
	for _, s := range stmts {
		switch x := s.(type) {
		case *f77.DoLoop:
			x.Body = substituteInStmts(u, x.Body)
			out = append(out, substituteLoop(u, x)...)
		case *f77.IfBlock:
			for i := range x.Blocks {
				x.Blocks[i] = substituteInStmts(u, x.Blocks[i])
			}
			x.Else = substituteInStmts(u, x.Else)
			out = append(out, x)
		default:
			out = append(out, s)
		}
	}
	return out
}

// substituteLoop rewrites one loop; it returns the replacement
// statement sequence (pre-assignments, the loop, post-assignments).
func substituteLoop(u *f77.Unit, loop *f77.DoLoop) []f77.Stmt {
	// Step must be +1 so (I - from) is directly the 0-based trip.
	if loop.Step != nil {
		if v, ok := f77.ConstFold(loop.Step); !ok || v != 1 {
			return []f77.Stmt{loop}
		}
	}
	ivs := findInductions(loop)
	if len(ivs) == 0 {
		return []f77.Stmt{loop}
	}
	pre := []f77.Stmt{}
	post := []f77.Stmt{}
	for _, iv := range ivs {
		k0 := freshSym(u, iv.sym.Name+"$0", iv.sym.Type)
		// K$0 = K
		pre = append(pre, &f77.Assign{
			LHS: &f77.Ref{Sym: k0},
			RHS: &f77.VarExpr{Sym: iv.sym},
		})
		// Uses before the increment see K$0 + c*(I - from);
		// uses after see K$0 + c*(I - from + 1).
		closed := func(extra int64) f77.Expr {
			// K$0 + c*(I - from + extra)
			idx := f77.Expr(&f77.Bin{Op: f77.OpSub, L: &f77.VarExpr{Sym: loop.Var}, R: f77.CloneExpr(loop.From, nil)})
			if extra != 0 {
				idx = &f77.Bin{Op: f77.OpAdd, L: idx, R: &f77.IntLit{Val: extra}}
			}
			return &f77.Bin{Op: f77.OpAdd,
				L: &f77.VarExpr{Sym: k0},
				R: &f77.Bin{Op: f77.OpMul, L: &f77.IntLit{Val: iv.c}, R: idx},
			}
		}
		replace := func(stmts []f77.Stmt, extra int64) {
			f77.RewriteAllExprs(stmts, func(e f77.Expr) f77.Expr {
				if v, ok := e.(*f77.VarExpr); ok && v.Sym == iv.sym {
					return closed(extra)
				}
				return e
			})
		}
		replace(loop.Body[:iv.pos], 0)
		rest := loop.Body[iv.pos+1:]
		replace(rest, 1)
		loop.Body = append(append([]f77.Stmt{}, loop.Body[:iv.pos]...), rest...)
		// K = K$0 + c * trips — trips folds because bounds are exprs;
		// emit K$0 + c*(to - from + 1) and let later folding handle it.
		trips := &f77.Bin{Op: f77.OpAdd,
			L: &f77.Bin{Op: f77.OpSub, L: f77.CloneExpr(loop.To, nil), R: f77.CloneExpr(loop.From, nil)},
			R: &f77.IntLit{Val: 1},
		}
		post = append(post, &f77.Assign{
			LHS: &f77.Ref{Sym: iv.sym},
			RHS: &f77.Bin{Op: f77.OpAdd,
				L: &f77.VarExpr{Sym: k0},
				R: &f77.Bin{Op: f77.OpMul, L: &f77.IntLit{Val: iv.c}, R: trips},
			},
		})
		// Positions of later inductions shift after removal.
		for _, other := range ivs {
			if other.pos > iv.pos {
				other.pos--
			}
		}
	}
	out := append(pre, f77.Stmt(loop))
	return append(out, post...)
}

type induction struct {
	sym *f77.Symbol
	c   int64
	pos int // index of the increment statement in loop.Body
}

// findInductions locates top-level `K = K + c` statements where K is an
// integer scalar with no other writes in the loop and no uses inside
// nested conditionals before the increment (which would break the
// closed form). An increment that a control transfer can skip, repeat
// or cut short (see bodyJumps) is not an induction.
func findInductions(loop *f77.DoLoop) []*induction {
	jumps := bodyJumps(loop.Body)
	writes := map[*f77.Symbol]int{}
	f77.WalkStmts(loop.Body, func(s f77.Stmt) bool {
		if a, ok := s.(*f77.Assign); ok && len(a.LHS.Subs) == 0 {
			writes[a.LHS.Sym]++
		}
		if d, ok := s.(*f77.DoLoop); ok {
			writes[d.Var]++
		}
		return true
	})
	var out []*induction
	for pos, s := range loop.Body {
		a, ok := s.(*f77.Assign)
		if !ok || len(a.LHS.Subs) != 0 {
			continue
		}
		sym := a.LHS.Sym
		if sym.Type != f77.TInteger || sym == loop.Var || writes[sym] != 1 {
			continue
		}
		c, ok := incrementOf(a)
		if !ok || jumpsAcross(jumps, pos) {
			continue
		}
		// The increment must be at the body's top level (it is: we only
		// scan loop.Body directly) and K must not feed another
		// induction's increment (keep it simple: skip if K appears in
		// any other candidate's RHS — handled by the single-write rule).
		out = append(out, &induction{sym: sym, c: c, pos: pos})
	}
	return out
}

// jump is one control transfer in a loop body, as top-level statement
// indices of the body: from holds the transfer, to holds its target,
// and to is -1 when control leaves the loop early — a GOTO to a label
// outside the body, a RETURN or a STOP.
type jump struct{ from, to int }

// bodyJumps lists the control transfers of a loop body.
func bodyJumps(body []f77.Stmt) []jump {
	home := map[int]int{} // label → top-level index of the statement holding it
	for i := range body {
		f77.WalkStmts(body[i:i+1], func(s f77.Stmt) bool {
			if l := s.Label(); l != 0 {
				home[l] = i
			}
			return true
		})
	}
	var out []jump
	for i := range body {
		f77.WalkStmts(body[i:i+1], func(s f77.Stmt) bool {
			switch x := s.(type) {
			case *f77.Goto:
				to, ok := home[x.Target]
				if !ok {
					to = -1
				}
				out = append(out, jump{i, to})
			case *f77.ReturnStmt, *f77.StopStmt:
				out = append(out, jump{i, -1})
			}
			return true
		})
	}
	return out
}

// jumpsAcross reports whether a control transfer breaks the one
// execution per trip of the increment at top-level index pos: a jump
// out of the loop skips the post-loop assignment of the final value
// (and the rest of the trip), a jump from one side of pos to the other
// skips or repeats the increment, and so does a jump to pos itself.
func jumpsAcross(jumps []jump, pos int) bool {
	for _, j := range jumps {
		if j.to < 0 || j.to == pos || (j.from < pos) != (j.to < pos) {
			return true
		}
	}
	return false
}

// incrementOf matches K = K + c / K = c + K / K = K - c.
func incrementOf(a *f77.Assign) (int64, bool) {
	bin, ok := a.RHS.(*f77.Bin)
	if !ok {
		return 0, false
	}
	isK := func(e f77.Expr) bool {
		v, ok := e.(*f77.VarExpr)
		return ok && v.Sym == a.LHS.Sym
	}
	constOf := func(e f77.Expr) (int64, bool) {
		v, ok := f77.ConstFold(e)
		if !ok || v != float64(int64(v)) {
			return 0, false
		}
		return int64(v), true
	}
	switch bin.Op {
	case f77.OpAdd:
		if isK(bin.L) {
			if c, ok := constOf(bin.R); ok {
				return c, true
			}
		}
		if isK(bin.R) {
			if c, ok := constOf(bin.L); ok {
				return c, true
			}
		}
	case f77.OpSub:
		if isK(bin.L) {
			if c, ok := constOf(bin.R); ok {
				return -c, true
			}
		}
	}
	return 0, false
}

// freshSym defines a new unit-local symbol with a unique name.
func freshSym(u *f77.Unit, base string, typ f77.Type) *f77.Symbol {
	name := base
	for i := 0; u.Syms.Lookup(name) != nil; i++ {
		name = fmt.Sprintf("%s%d", base, i)
	}
	return u.Syms.Define(&f77.Symbol{Name: name, Type: typ})
}
