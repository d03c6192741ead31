package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// obssafety enforces both sides of the obs nil-safety contract
// (PR 8's design constraint: an untraced request carries nil pointers
// end to end and pays essentially nothing):
//
//   - outside internal/obs, code must not compare *obs.Span, *obs.Trace,
//     or *obs.Tracer against nil. The API is nil-safe
//     precisely so instrumented code never branches on "is tracing on";
//     a nil check reintroduces the branch, and the next author copies
//     it into a hot path.
//   - inside internal/obs, a pointer-receiver method on one of those
//     types must guard the receiver (`if s == nil { ... }`) before
//     touching its fields. Delegating to another method on the receiver
//     is fine — the callee carries the guard.
var ObsSafety = &Analyzer{
	Name: "obssafety",
	Doc:  "obs spans are nil-safe: no nil checks outside internal/obs, receiver guards inside it",
	Run:  runObsSafety,
}

// nilSafeTypes are the obs types whose methods promise nil-safety
// (the package doc's "every method on *Span, *Trace, and *Tracer is
// nil-safe").
var nilSafeTypes = map[string]bool{
	"Span": true, "Trace": true, "Tracer": true,
}

// isObsPackage matches the real package and fixture stand-ins.
func isObsPackage(path string) bool {
	return path == "cacqr/internal/obs" || path == "obs" || strings.HasSuffix(path, "/obs")
}

// isNilSafeObsPtr reports whether t is a pointer to one of the obs
// nil-safe named types.
func isNilSafeObsPtr(t types.Type) bool {
	ptr, ok := t.Underlying().(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return isObsPackage(named.Obj().Pkg().Path()) && nilSafeTypes[named.Obj().Name()]
}

func runObsSafety(pass *Pass) error {
	if isObsPackage(pass.Pkg.Path()) {
		return runObsReceiverGuards(pass)
	}
	return runObsNilChecks(pass)
}

// runObsNilChecks flags nil comparisons of nil-safe obs pointers
// outside the obs package.
func runObsNilChecks(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			be, ok := n.(*ast.BinaryExpr)
			if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
				return true
			}
			var other ast.Expr
			switch {
			case isNilIdent(pass.TypesInfo, be.X):
				other = be.Y
			case isNilIdent(pass.TypesInfo, be.Y):
				other = be.X
			default:
				return true
			}
			if t := pass.TypesInfo.Types[other].Type; t != nil && isNilSafeObsPtr(t) {
				pass.Reportf(be.Pos(), "obs spans are nil-safe by contract; call the method unconditionally instead of branching on nil")
			}
			return true
		})
	}
	return nil
}

func isNilIdent(info *types.Info, e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	if !ok {
		return false
	}
	_, isNil := info.Uses[id].(*types.Nil)
	return isNil
}

// runObsReceiverGuards checks, inside the obs package, that pointer
// receiver methods on nil-safe types guard the receiver before any
// field access.
func runObsReceiverGuards(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || len(fd.Recv.List) == 0 || fd.Body == nil {
				continue
			}
			recvType := fd.Recv.List[0].Type
			star, ok := recvType.(*ast.StarExpr)
			if !ok {
				continue
			}
			base := star.X
			if idx, ok := base.(*ast.IndexExpr); ok { // generic receiver
				base = idx.X
			}
			id, ok := base.(*ast.Ident)
			if !ok || !nilSafeTypes[id.Name] {
				continue
			}
			if len(fd.Recv.List[0].Names) == 0 {
				continue // receiver unnamed, hence unused
			}
			recvObj := pass.TypesInfo.Defs[fd.Recv.List[0].Names[0]]
			if recvObj == nil {
				continue
			}
			if pos, bad := fieldAccessBeforeGuard(pass, fd.Body.List, recvObj); bad {
				pass.Reportf(pos, "method on nil-safe *%s touches receiver fields before the `if %s == nil` guard", id.Name, recvObj.Name())
			}
		}
	}
	return nil
}

// fieldAccessBeforeGuard scans stmts in order: a nil-receiver guard
// ends the scan clean; a receiver field access before one is reported.
func fieldAccessBeforeGuard(pass *Pass, stmts []ast.Stmt, recv types.Object) (token.Pos, bool) {
	for _, st := range stmts {
		if isNilReceiverGuard(pass, st, recv) {
			return token.NoPos, false
		}
		var badPos token.Pos
		ast.Inspect(st, func(n ast.Node) bool {
			if badPos.IsValid() {
				return false
			}
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			selInfo, ok := pass.TypesInfo.Selections[sel]
			if !ok || selInfo.Kind() != types.FieldVal {
				return true
			}
			if x, ok := sel.X.(*ast.Ident); ok && pass.TypesInfo.Uses[x] == recv {
				badPos = sel.Pos()
			}
			return true
		})
		if badPos.IsValid() {
			return badPos, true
		}
	}
	return token.NoPos, false
}

// isNilReceiverGuard matches `if recv == nil { ... }` (either operand
// order), including compound guards like `if recv == nil || other`
// where short-circuit evaluation protects the right-hand side — the
// leftmost || operand must be the nil test.
func isNilReceiverGuard(pass *Pass, st ast.Stmt, recv types.Object) bool {
	ifst, ok := st.(*ast.IfStmt)
	if !ok || ifst.Init != nil {
		return false
	}
	cond := ifst.Cond
	// Walk down the left spine of a || chain: `a == nil || b || c`
	// parses as `((a == nil || b) || c)`.
	for {
		be, ok := cond.(*ast.BinaryExpr)
		if !ok {
			return false
		}
		if be.Op == token.LOR {
			cond = be.X
			continue
		}
		break
	}
	be, ok := cond.(*ast.BinaryExpr)
	if !ok || be.Op != token.EQL {
		return false
	}
	isRecv := func(e ast.Expr) bool {
		id, ok := e.(*ast.Ident)
		return ok && pass.TypesInfo.Uses[id] == recv
	}
	return (isRecv(be.X) && isNilIdent(pass.TypesInfo, be.Y)) ||
		(isRecv(be.Y) && isNilIdent(pass.TypesInfo, be.X))
}
