package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Lockorder builds the module-wide lock-acquisition graph and requires it to
// be acyclic. A node is a lock identity — the named type and field that own a
// sync.Mutex/RWMutex (site.Site.mu, engine.Engine.mu, transport peer locks)
// or a package-level mutex variable. An edge A → B is recorded whenever B is
// acquired (directly, or transitively through a statically resolved call)
// while A is held. Two functions establishing opposite orders deadlock the
// moment they run concurrently, even when each is individually correct.
//
// The analysis is type-level: all instances of a type share one lock node,
// so holding siteA.mu while locking siteB.mu still records site.mu →
// site.mu. That is deliberate — instance-disambiguated ordering is exactly
// the kind of reasoning this linter exists to forbid. Function-local mutexes
// and calls through interfaces are outside the graph (an interface callee is
// not statically known); test files are excluded entirely, since tests
// routinely poke lock-protected state to stage scenarios.
var Lockorder = &Analyzer{
	Name:      "lockorder",
	Doc:       "cross-package lock acquisition order must be acyclic",
	RunModule: runLockorder,
}

// lockEdge is one observed ordering: to was acquired while from was held.
type lockEdge struct {
	from, to string
	pos      token.Pos
	via      string // "" for a direct Lock call, else the callee name
}

type lockorderPass struct {
	pass *Pass
	// info maps each analyzed file back to its package's type info.
	infos map[*ast.File]*types.Info
	// bodies, acquires, calls are keyed by stable function keys (funcKey) so
	// facts survive the pure/augmented package-view split.
	bodies   map[string]*ast.FuncDecl
	acquires map[string]map[string]token.Pos // funcKey -> lockID -> pos
	calls    map[string]map[string]bool      // funcKey -> callee funcKeys
	transAcq map[string]map[string]token.Pos // transitive closure of acquires
	edges    []lockEdge
	edgeSeen map[[2]string]bool
}

func runLockorder(pass *Pass) {
	lp := &lockorderPass{
		pass:     pass,
		infos:    map[*ast.File]*types.Info{},
		bodies:   map[string]*ast.FuncDecl{},
		acquires: map[string]map[string]token.Pos{},
		calls:    map[string]map[string]bool{},
		edgeSeen: map[[2]string]bool{},
	}
	// Phase 1: collect per-function facts across the whole module.
	for _, pkg := range pass.Mod.Pkgs {
		for _, f := range pkg.Files {
			if isTestFile(pass.Fset, f.Pos()) {
				continue
			}
			lp.infos[f] = pkg.Info
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				key := funcKey(obj)
				lp.bodies[key] = fd
				lp.collectFacts(key, fd.Body, pkg.Info)
			}
		}
	}
	lp.close()
	// Phase 2: ordered walk of every function, recording edges.
	for _, fd := range lp.bodies {
		info := lp.infoFor(fd)
		if info == nil {
			continue
		}
		lp.walkStmts(fd.Body.List, map[string]token.Pos{}, info)
	}
	lp.reportCycles()
}

func (lp *lockorderPass) infoFor(fd *ast.FuncDecl) *types.Info {
	for f, info := range lp.infos {
		if f.Pos() <= fd.Pos() && fd.Pos() <= f.End() {
			return info
		}
	}
	return nil
}

// funcKey is a cross-view-stable identity for a function or method.
func funcKey(f *types.Func) string {
	if f == nil || f.Pkg() == nil {
		return ""
	}
	if recv := funcRecvNamed(f); recv != nil {
		return f.Pkg().Path() + "|" + recv.Obj().Name() + "." + f.Name()
	}
	return f.Pkg().Path() + "|" + f.Name()
}

// collectFacts records body's direct lock acquisitions and static callees on
// the synchronous path (function literals and go-spawned bodies excluded).
func (lp *lockorderPass) collectFacts(key string, body *ast.BlockStmt, info *types.Info) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.GoStmt:
			return false
		case *ast.CallExpr:
			if id, op, ok := lockOpID(info, n); ok {
				if op == "lock" && id != "" {
					if lp.acquires[key] == nil {
						lp.acquires[key] = map[string]token.Pos{}
					}
					if _, dup := lp.acquires[key][id]; !dup {
						lp.acquires[key][id] = n.Pos()
					}
				}
				return true
			}
			if ck := funcKey(calleeFunc(info, n)); ck != "" {
				if lp.calls[key] == nil {
					lp.calls[key] = map[string]bool{}
				}
				lp.calls[key][ck] = true
			}
		}
		return true
	})
}

// close computes the transitive acquire sets by fixpoint over the static call
// graph. Only module functions with known bodies propagate; calls into the
// standard library or through interfaces contribute nothing.
func (lp *lockorderPass) close() {
	lp.transAcq = map[string]map[string]token.Pos{}
	for key, acq := range lp.acquires {
		m := map[string]token.Pos{}
		for id, pos := range acq {
			m[id] = pos
		}
		lp.transAcq[key] = m
	}
	for changed := true; changed; {
		changed = false
		for key := range lp.bodies {
			for callee := range lp.calls[key] {
				for id, pos := range lp.transAcq[callee] {
					if lp.transAcq[key] == nil {
						lp.transAcq[key] = map[string]token.Pos{}
					}
					if _, ok := lp.transAcq[key][id]; !ok {
						lp.transAcq[key][id] = pos
						changed = true
					}
				}
			}
		}
	}
}

// walkStmts is the ordered span walk: held maps lock identity -> acquisition
// position, branches get copies (a lock released in one branch is still held
// in the other).
func (lp *lockorderPass) walkStmts(stmts []ast.Stmt, held map[string]token.Pos, info *types.Info) {
	for _, s := range stmts {
		lp.walkStmt(s, held, info)
	}
}

func (lp *lockorderPass) walkStmt(s ast.Stmt, held map[string]token.Pos, info *types.Info) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok {
			if id, op, ok := lockOpID(info, call); ok {
				switch op {
				case "lock":
					if id != "" {
						lp.acquire(id, call.Pos(), held)
						held[id] = call.Pos()
					}
				case "unlock":
					delete(held, id)
				}
				return
			}
		}
		lp.scanCalls(s.X, held, info)
	case *ast.DeferStmt:
		if _, op, ok := lockOpID(info, s.Call); ok && op == "unlock" {
			return // deferred unlock: held to scope end
		}
		lp.scanCalls(s.Call, held, info)
	case *ast.GoStmt:
		for _, arg := range s.Call.Args {
			lp.scanCalls(arg, held, info)
		}
	case *ast.BlockStmt:
		lp.walkStmts(s.List, held, info)
	case *ast.IfStmt:
		if s.Init != nil {
			lp.walkStmt(s.Init, held, info)
		}
		lp.scanCalls(s.Cond, held, info)
		lp.walkStmts(s.Body.List, copyHeld(held), info)
		if s.Else != nil {
			lp.walkStmt(s.Else, copyHeld(held), info)
		}
	case *ast.ForStmt:
		if s.Init != nil {
			lp.walkStmt(s.Init, held, info)
		}
		lp.scanCalls(s.Cond, held, info)
		lp.walkStmts(s.Body.List, copyHeld(held), info)
	case *ast.RangeStmt:
		lp.scanCalls(s.X, held, info)
		lp.walkStmts(s.Body.List, copyHeld(held), info)
	case *ast.SwitchStmt:
		if s.Init != nil {
			lp.walkStmt(s.Init, held, info)
		}
		lp.scanCalls(s.Tag, held, info)
		for _, cc := range s.Body.List {
			lp.walkStmts(cc.(*ast.CaseClause).Body, copyHeld(held), info)
		}
	case *ast.TypeSwitchStmt:
		for _, cc := range s.Body.List {
			lp.walkStmts(cc.(*ast.CaseClause).Body, copyHeld(held), info)
		}
	case *ast.SelectStmt:
		for _, cc := range s.Body.List {
			lp.walkStmts(cc.(*ast.CommClause).Body, copyHeld(held), info)
		}
	case *ast.AssignStmt:
		for _, rhs := range s.Rhs {
			lp.scanCalls(rhs, held, info)
		}
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			lp.scanCalls(r, held, info)
		}
	case *ast.LabeledStmt:
		lp.walkStmt(s.Stmt, held, info)
	}
}

// scanCalls inspects an expression's synchronous path: direct lock calls add
// edges and join the held set for the rest of the statement; other calls
// contribute their transitive acquire facts.
func (lp *lockorderPass) scanCalls(e ast.Expr, held map[string]token.Pos, info *types.Info) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, op, isLock := lockOpID(info, call); isLock {
			if op == "lock" && id != "" {
				lp.acquire(id, call.Pos(), held)
				held[id] = call.Pos()
			} else if op == "unlock" {
				delete(held, id)
			}
			return true
		}
		if len(held) == 0 {
			return true
		}
		key := funcKey(calleeFunc(info, call))
		if key == "" {
			return true
		}
		for id := range lp.transAcq[key] {
			lp.addEdges(held, id, call.Pos(), callName(call))
		}
		return true
	})
}

// acquire records edges from every held lock to the newly acquired one.
func (lp *lockorderPass) acquire(id string, pos token.Pos, held map[string]token.Pos) {
	lp.addEdges(held, id, pos, "")
}

func (lp *lockorderPass) addEdges(held map[string]token.Pos, to string, pos token.Pos, via string) {
	for from := range held {
		k := [2]string{from, to}
		if lp.edgeSeen[k] {
			continue
		}
		lp.edgeSeen[k] = true
		lp.edges = append(lp.edges, lockEdge{from: from, to: to, pos: pos, via: via})
	}
}

// reportCycles flags every edge that participates in a cycle of the
// type-level lock graph, including self-edges (re-acquiring a lock already
// held on the path).
func (lp *lockorderPass) reportCycles() {
	succ := map[string][]string{}
	for _, e := range lp.edges {
		succ[e.from] = append(succ[e.from], e.to)
	}
	reaches := func(from, target string) bool {
		seen := map[string]bool{from: true}
		stack := []string{from}
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, next := range succ[n] {
				if next == target {
					return true
				}
				if !seen[next] {
					seen[next] = true
					stack = append(stack, next)
				}
			}
		}
		return false
	}
	edges := append([]lockEdge(nil), lp.edges...)
	sort.Slice(edges, func(i, j int) bool { return edges[i].pos < edges[j].pos })
	for _, e := range edges {
		how := "acquired here"
		if e.via != "" {
			how = "acquired inside " + e.via
		}
		if e.from == e.to {
			lp.pass.Reportf(e.pos, "lock %s %s while an instance of it is already held: type-level self-deadlock", e.to, how)
			continue
		}
		if reaches(e.to, e.from) {
			lp.pass.Reportf(e.pos, "lock order %s -> %s (%s) conflicts with an existing path %s -> %s: cyclic lock order", e.from, e.to, how, e.to, e.from)
		}
	}
}

// callName renders a short name for the callee of a call expression.
func callName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return "call"
}

// lockOpID classifies a call as Lock/RLock ("lock") or Unlock/RUnlock
// ("unlock") on a sync mutex and resolves the lock's module-wide identity:
// "pkgpath.Type.field" for a mutex field, "pkgpath.var" for a package-level
// mutex, "" for locals (tracked as no-ops).
func lockOpID(info *types.Info, call *ast.CallExpr) (id, op string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	fn := calleeFunc(info, call)
	if fn == nil {
		return "", "", false
	}
	recv := funcRecvNamed(fn)
	if !isFrom(recv, "sync", "Mutex") && !isFrom(recv, "sync", "RWMutex") {
		return "", "", false
	}
	switch fn.Name() {
	case "Lock", "RLock":
		op = "lock"
	case "Unlock", "RUnlock":
		op = "unlock"
	default:
		return "", "", false
	}
	return lockIdentity(info, sel.X), op, true
}

// lockIdentity names the lock expression at type level.
func lockIdentity(info *types.Info, e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		// s.mu / s.inner.mu: the owning named type plus the field name.
		fieldObj, _ := info.Uses[e.Sel].(*types.Var)
		if fieldObj == nil || !fieldObj.IsField() {
			return ""
		}
		t := exprType(info, e.X)
		if t == nil {
			return ""
		}
		if p, isPtr := t.(*types.Pointer); isPtr {
			t = p.Elem()
		}
		if named, isNamed := types.Unalias(t).(*types.Named); isNamed && named.Obj().Pkg() != nil {
			return named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + e.Sel.Name
		}
		return ""
	case *ast.Ident:
		v, _ := info.Uses[e].(*types.Var)
		if v == nil || v.Pkg() == nil {
			return ""
		}
		// Package-level mutex variable.
		if v.Parent() == v.Pkg().Scope() {
			return v.Pkg().Path() + "." + v.Name()
		}
		return ""
	case *ast.IndexExpr:
		// locks[i].Lock(): identity of the slice/map-owning expression.
		return lockIdentity(info, e.X)
	}
	return ""
}

// exprType is info.TypeOf with a nil guard for expressions outside the info.
func exprType(info *types.Info, e ast.Expr) types.Type {
	if info == nil {
		return nil
	}
	return info.TypeOf(e)
}
