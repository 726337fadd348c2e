package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Lockhold forbids blocking operations while a sync.Mutex or sync.RWMutex is
// held. The engine is a message-passing system: a goroutine that blocks on
// the network (or a channel, or a sleep) while holding a lock stalls every
// other goroutine contending for that lock, and two sites doing it to each
// other deadlock the cluster. The analyzer walks each function's statements
// between X.Lock()/X.RLock() and the matching X.Unlock()/X.RUnlock() (a
// deferred unlock holds to function end) and flags, inside that span:
//
//   - channel sends, receives, and selects without a default clause,
//   - time.Sleep,
//   - Read/Write on a net.Conn,
//   - Send/SendUnreliable on the transport layer,
//   - calls to same-package functions that transitively do any of the above
//     on their synchronous path.
//
// The analysis is intra-procedural per span plus a same-package may-block
// closure; cross-package calls are trusted (the callee's own package is
// analyzed in its own pass). Deliberate bounded exceptions — the transport
// writes frames under the peer lock with a write deadline — carry ignore
// directives explaining the bound.
var Lockhold = &Analyzer{
	Name: "lockhold",
	Doc:  "no channel ops, sleeps, or network writes while a mutex is held",
	Run:  runLockhold,
}

// lockholdPass bundles the per-package state.
type lockholdPass struct {
	pass     *Pass
	info     *types.Info
	netConn  *types.Interface     // net.Conn, when the package can see it
	mayBlock map[*types.Func]bool // same-package transitive closure
	bodies   map[*types.Func]*ast.BlockStmt
}

func runLockhold(pass *Pass) {
	lp := &lockholdPass{
		pass:     pass,
		info:     pass.Info(),
		netConn:  lookupNetConn(pass.Pkg.Types),
		mayBlock: map[*types.Func]bool{},
		bodies:   map[*types.Func]*ast.BlockStmt{},
	}
	// Collect same-package function bodies for the may-block closure.
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				if obj, ok := lp.info.Defs[fd.Name].(*types.Func); ok {
					lp.bodies[obj] = fd.Body
				}
			}
		}
	}
	// Fixpoint: a function may block if its synchronous path contains a
	// direct blocking op or a call to a same-package may-block function.
	for changed := true; changed; {
		changed = false
		for fn, body := range lp.bodies {
			if lp.mayBlock[fn] {
				continue
			}
			if lp.blocksDirectlyOrViaLocal(body) {
				lp.mayBlock[fn] = true
				changed = true
			}
		}
	}
	// Scan every function body (and every function literal as its own
	// scope) for lock spans.
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					lp.checkScope(n.Body)
				}
			case *ast.FuncLit:
				lp.checkScope(n.Body)
			}
			return true
		})
	}
}

// lookupNetConn finds the net.Conn interface through the package's imports.
func lookupNetConn(pkg *types.Package) *types.Interface {
	netPkg := findImport(pkg, "net")
	if netPkg == nil {
		return nil
	}
	tn, _ := namedObj(netPkg, "Conn").(*types.TypeName)
	if tn == nil {
		return nil
	}
	iface, _ := tn.Type().Underlying().(*types.Interface)
	return iface
}

// checkScope runs the lock-span walk over one function scope. Nested
// function literals are separate scopes: their bodies do not run under the
// enclosing span (they are visited separately by runLockhold).
func (lp *lockholdPass) checkScope(body *ast.BlockStmt) {
	lp.walkStmts(body.List, map[string]token.Pos{})
}

// walkStmts scans a statement list in order, tracking the held-lock set
// (lock-expression text -> Lock() position).
func (lp *lockholdPass) walkStmts(stmts []ast.Stmt, held map[string]token.Pos) {
	for _, s := range stmts {
		lp.walkStmt(s, held)
	}
}

// copyHeld clones the held set for a branch.
func copyHeld(held map[string]token.Pos) map[string]token.Pos {
	out := make(map[string]token.Pos, len(held))
	for k, v := range held {
		out[k] = v
	}
	return out
}

func (lp *lockholdPass) walkStmt(s ast.Stmt, held map[string]token.Pos) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if key, op, ok := lp.lockOp(s.X); ok {
			if op == "lock" {
				held[key] = s.Pos()
			} else {
				delete(held, key)
			}
			return
		}
		lp.flagBlocking(s.X, held)
	case *ast.DeferStmt:
		if _, op, ok := lp.lockOp(s.Call); ok && op == "unlock" {
			// Deferred unlock: the lock stays held to scope end; the span
			// check continues across the remaining statements, which is
			// exactly what we want.
			return
		}
		// A deferred call runs at return, usually still inside deferred-
		// unlock spans; treat its synchronous blocking ops as in-span.
		lp.flagBlocking(s.Call, held)
	case *ast.GoStmt:
		// The spawned body runs elsewhere; the spawn itself never blocks.
		// Arguments are evaluated synchronously though.
		for _, arg := range s.Call.Args {
			lp.flagBlocking(arg, held)
		}
	case *ast.BlockStmt:
		lp.walkStmts(s.List, held)
	case *ast.IfStmt:
		if s.Init != nil {
			lp.walkStmt(s.Init, held)
		}
		lp.flagBlocking(s.Cond, held)
		lp.walkStmts(s.Body.List, copyHeld(held))
		if s.Else != nil {
			lp.walkStmt(s.Else, copyHeld(held))
		}
	case *ast.ForStmt:
		if s.Init != nil {
			lp.walkStmt(s.Init, held)
		}
		if s.Cond != nil {
			lp.flagBlocking(s.Cond, held)
		}
		lp.walkStmts(s.Body.List, copyHeld(held))
	case *ast.RangeStmt:
		if held2 := held; len(held2) > 0 {
			if _, ok := typeOf(lp.info, s.X).(*types.Chan); ok {
				lp.report(s.Pos(), "range over a channel", held)
			}
		}
		lp.flagBlocking(s.X, held)
		lp.walkStmts(s.Body.List, copyHeld(held))
	case *ast.SwitchStmt:
		if s.Init != nil {
			lp.walkStmt(s.Init, held)
		}
		if s.Tag != nil {
			lp.flagBlocking(s.Tag, held)
		}
		for _, cc := range s.Body.List {
			lp.walkStmts(cc.(*ast.CaseClause).Body, copyHeld(held))
		}
	case *ast.TypeSwitchStmt:
		for _, cc := range s.Body.List {
			lp.walkStmts(cc.(*ast.CaseClause).Body, copyHeld(held))
		}
	case *ast.SelectStmt:
		if len(held) > 0 && !selectHasDefault(s) {
			lp.report(s.Pos(), "blocking select", held)
		}
		for _, cc := range s.Body.List {
			lp.walkStmts(cc.(*ast.CommClause).Body, copyHeld(held))
		}
	case *ast.SendStmt:
		if len(held) > 0 {
			lp.report(s.Pos(), "channel send", held)
		}
	case *ast.AssignStmt:
		for _, rhs := range s.Rhs {
			lp.flagBlocking(rhs, held)
		}
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			lp.flagBlocking(r, held)
		}
	case *ast.LabeledStmt:
		lp.walkStmt(s.Stmt, held)
	}
}

// selectHasDefault reports whether a select has a default clause (making it
// non-blocking).
func selectHasDefault(s *ast.SelectStmt) bool {
	for _, cc := range s.Body.List {
		if cc.(*ast.CommClause).Comm == nil {
			return true
		}
	}
	return false
}

// lockOp classifies expr as a Lock/RLock ("lock") or Unlock/RUnlock
// ("unlock") call on a sync.Mutex or sync.RWMutex, returning the lock's
// receiver expression text as span key.
func (lp *lockholdPass) lockOp(expr ast.Expr) (key, op string, ok bool) {
	call, isCall := ast.Unparen(expr).(*ast.CallExpr)
	if !isCall {
		return "", "", false
	}
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	fn := calleeFunc(lp.info, call)
	if fn == nil {
		return "", "", false
	}
	recv := funcRecvNamed(fn)
	if !isFrom(recv, "sync", "Mutex") && !isFrom(recv, "sync", "RWMutex") {
		return "", "", false
	}
	switch fn.Name() {
	case "Lock", "RLock":
		return types.ExprString(sel.X), "lock", true
	case "Unlock", "RUnlock":
		return types.ExprString(sel.X), "unlock", true
	}
	return "", "", false
}

// flagBlocking reports blocking operations on the synchronous path of an
// expression evaluated while locks are held. Function literals inside the
// expression are skipped (they only block whoever eventually calls them).
func (lp *lockholdPass) flagBlocking(e ast.Expr, held map[string]token.Pos) {
	if e == nil || len(held) == 0 {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				lp.report(n.Pos(), "channel receive", held)
			}
		case *ast.CallExpr:
			if what, ok := lp.blockingCall(n); ok {
				lp.report(n.Pos(), what, held)
			}
		}
		return true
	})
}

// blockingCall classifies a call as directly blocking or may-block local.
func (lp *lockholdPass) blockingCall(call *ast.CallExpr) (string, bool) {
	fn := calleeFunc(lp.info, call)
	if fn == nil {
		return "", false
	}
	if fn.Pkg() != nil && fn.Pkg().Path() == "time" && fn.Name() == "Sleep" {
		return "time.Sleep", true
	}
	recv := funcRecvNamed(fn)
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		rt := sig.Recv().Type()
		// Read/Write on anything satisfying net.Conn (or on net.Conn itself).
		if lp.netConn != nil && (fn.Name() == "Read" || fn.Name() == "Write") {
			if types.Implements(rt, lp.netConn) ||
				(recv != nil && isFrom(recv, "net", "Conn")) {
				return "net.Conn." + fn.Name(), true
			}
		}
		// Transport sends: Send/SendUnreliable may write to the wire.
		if fn.Name() == "Send" || fn.Name() == "SendUnreliable" {
			if recv != nil && recv.Obj().Pkg() != nil && recv.Obj().Pkg().Path() == "hyperfile/internal/transport" {
				return recv.Obj().Name() + "." + fn.Name(), true
			}
		}
	}
	// Same-package call whose synchronous path blocks.
	if fn.Pkg() != nil && fn.Pkg() == lp.pass.Pkg.Types && lp.mayBlock[fn] {
		return fn.Name() + " (may block)", true
	}
	return "", false
}

// blocksDirectlyOrViaLocal reports whether a function body's synchronous
// path contains a blocking op. Used to build the may-block closure; nested
// function literals and go statements are excluded.
func (lp *lockholdPass) blocksDirectlyOrViaLocal(body *ast.BlockStmt) bool {
	blocks := false
	ast.Inspect(body, func(n ast.Node) bool {
		if blocks {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.GoStmt:
			return false
		case *ast.SendStmt:
			blocks = true
			return false
		case *ast.SelectStmt:
			if !selectHasDefault(n) {
				blocks = true
				return false
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				blocks = true
				return false
			}
		case *ast.RangeStmt:
			if _, ok := typeOf(lp.info, n.X).(*types.Chan); ok {
				blocks = true
				return false
			}
		case *ast.CallExpr:
			if _, ok := lp.blockingCall(n); ok {
				blocks = true
				return false
			}
		}
		return true
	})
	return blocks
}

// report emits one diagnostic naming the operation and the held locks.
func (lp *lockholdPass) report(pos token.Pos, what string, held map[string]token.Pos) {
	if len(held) == 0 {
		return
	}
	var locks []string
	for k := range held {
		locks = append(locks, k)
	}
	sortStrings(locks)
	lp.pass.Reportf(pos, "%s while %s is held; release the lock before blocking", what, joinAnd(locks))
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func joinAnd(s []string) string {
	switch len(s) {
	case 0:
		return ""
	case 1:
		return s[0]
	}
	out := s[0]
	for _, x := range s[1:] {
		out += ", " + x
	}
	return out
}
