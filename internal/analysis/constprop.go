package analysis

import (
	"vbuscluster/internal/f77"
)

// PropagateConstants forward-propagates integer scalar constants
// through the unit body. This is the light-weight propagation Polaris
// runs before access analysis: it turns subscripts like K$0 + 2*I
// (after induction substitution, with K = 0 before the loop) into pure
// affine forms over loop indices so the LMAD builder can handle them.
//
// The analysis is deliberately conservative:
//   - only INTEGER scalars participate;
//   - a compound statement (loop, IF) invalidates every symbol written
//     anywhere inside it, then has invariant constants substituted in;
//   - a labeled statement (potential jump target) and a GOTO clear the
//     whole environment;
//   - a user CALL or FUNCTION reference may write its whole-variable
//     actuals (Fortran passes by reference) and any COMMON member, so
//     those actuals are never substituted and the call kills them, plus
//     every COMMON member, once it has run.
func PropagateConstants(u *f77.Unit) {
	consts := map[*f77.Symbol]int64{}
	propStmts(u.Body, consts)
}

func propStmts(stmts []f77.Stmt, consts map[*f77.Symbol]int64) {
	for _, s := range stmts {
		if s.Label() != 0 {
			clear(consts)
		}
		byRef, calls := userCallActuals(s)
		subst := func(e f77.Expr) f77.Expr {
			if v, ok := e.(*f77.VarExpr); ok && !byRef[v] {
				if c, ok := consts[v.Sym]; ok {
					return &f77.IntLit{Val: c}
				}
			}
			return e
		}
		// killCalls drops what the statement's own calls may have
		// written; they run before the statement's effect lands.
		killCalls := func() {
			if calls {
				killCallEffects(consts, byRef)
			}
		}
		switch x := s.(type) {
		case *f77.Assign:
			f77.RewriteStmtExprs(x, subst)
			killCalls()
			if len(x.LHS.Subs) == 0 && x.LHS.Sym.Type == f77.TInteger {
				if v, ok := f77.ConstFold(x.RHS); ok && v == float64(int64(v)) {
					consts[x.LHS.Sym] = int64(v)
				} else {
					delete(consts, x.LHS.Sym)
				}
			} else if len(x.LHS.Subs) == 0 {
				delete(consts, x.LHS.Sym)
			}
		case *f77.DoLoop:
			// Bounds are evaluated on entry, with the incoming env.
			f77.RewriteStmtExprs(x, subst)
			killCalls()
			invalidateWrites(x.Body, consts)
			delete(consts, x.Var)
			inner := cloneConsts(consts)
			propStmts(x.Body, inner)
			// After the loop the invariant constants still hold; the
			// invalidated ones are already gone from consts.
		case *f77.IfBlock:
			f77.RewriteStmtExprs(x, subst)
			killCalls()
			for _, blk := range x.Blocks {
				invalidateWrites(blk, consts)
			}
			invalidateWrites(x.Else, consts)
			for _, blk := range x.Blocks {
				inner := cloneConsts(consts)
				propStmts(blk, inner)
			}
			inner := cloneConsts(consts)
			propStmts(x.Else, inner)
		case *f77.Goto:
			clear(consts)
		default:
			f77.RewriteStmtExprs(s, subst)
			killCalls()
		}
	}
}

func invalidateWrites(stmts []f77.Stmt, consts map[*f77.Symbol]int64) {
	f77.WalkStmts(stmts, func(s f77.Stmt) bool {
		switch x := s.(type) {
		case *f77.Assign:
			if len(x.LHS.Subs) == 0 {
				delete(consts, x.LHS.Sym)
			}
		case *f77.DoLoop:
			delete(consts, x.Var)
		}
		if byRef, calls := userCallActuals(s); calls {
			killCallEffects(consts, byRef)
		}
		return true
	})
}

// userCallActuals collects the whole-variable actuals of the user CALL
// and FUNCTION references among a statement's own expressions, and
// reports whether it makes any user call at all.
func userCallActuals(s f77.Stmt) (map[*f77.VarExpr]bool, bool) {
	var byRef map[*f77.VarExpr]bool
	calls := false
	actuals := func(args []f77.Expr) {
		calls = true
		for _, a := range args {
			if v, ok := a.(*f77.VarExpr); ok {
				if byRef == nil {
					byRef = map[*f77.VarExpr]bool{}
				}
				byRef[v] = true
			}
		}
	}
	if c, ok := s.(*f77.CallStmt); ok {
		actuals(c.Args)
	}
	f77.StmtExprs(s, func(e f77.Expr) {
		f77.WalkExpr(e, func(sub f77.Expr) {
			if c, ok := sub.(*f77.CallExpr); ok && !c.Intrinsic {
				actuals(c.Args)
			}
		})
	})
	return byRef, calls
}

// killCallEffects drops every constant a user call may have written:
// its by-reference actuals and all COMMON members.
func killCallEffects(consts map[*f77.Symbol]int64, byRef map[*f77.VarExpr]bool) {
	for v := range byRef {
		delete(consts, v.Sym)
	}
	for sym := range consts {
		if sym.Common != "" {
			delete(consts, sym)
		}
	}
}

func cloneConsts(m map[*f77.Symbol]int64) map[*f77.Symbol]int64 {
	out := make(map[*f77.Symbol]int64, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}
