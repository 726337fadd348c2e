package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Pairwise enforces the tree's paired-resource disciplines:
//
//   - "finished = true" transitions for any one type must funnel through a
//     single function (finishCtx), so the release of admission slots, fair
//     buckets, and latency accounting can never be half-applied;
//   - pooled storage obeys the same discipline at two scopes. Package scope:
//     any package calling sync.Pool.Get, wire.GetBuf, or wire.ReadBuf.Retain
//     outside tests must call the matching Put / PutBuf / Release somewhere
//     outside tests. Function scope: a local bound to sync.Pool.Get or
//     wire.GetBuf must, on every path, be handed to the matching
//     Put/PutBuf, returned to the caller, or stored into a field whose
//     owner releases it later — a dropped binding leaks pooled storage and
//     silently degrades the pool back to plain allocation.
var Pairwise = &Analyzer{
	Name: "pairwise",
	Doc:  "paired resources (finished transitions, pooled buffers) acquire and release in matched pairs",
	Run:  runPairwise,
}

// poolPairs lists the pooled-storage acquire/release pairs: a method pair
// when typ is set, a package-level function pair when typ is empty. These
// get the package-presence rule (and Get/GetBuf additionally the all-paths
// binding rule below), with a leak message naming what actually goes wrong.
var poolPairs = []struct {
	pkg, typ, acquire, release, leak string
}{
	{"sync", "Pool", "Get", "Put", "pooled storage is acquired but can never be recycled"},
	{"hyperfile/internal/wire", "ReadBuf", "Retain", "Release", "the reference can never drop and the buffer never returns to its pool"},
	{"hyperfile/internal/wire", "", "GetBuf", "PutBuf", "the scratch buffer can never return to its pool"},
}

// poolPairMatches reports whether fn is pair (pkg, typ, name): a method on
// pkg.typ, or — with empty typ — a plain function pkg.name.
func poolPairMatches(fn *types.Func, pkg, typ, name string) bool {
	if fn == nil || fn.Name() != name {
		return false
	}
	if typ == "" {
		return funcRecvNamed(fn) == nil && fn.Pkg() != nil && fn.Pkg().Path() == pkg
	}
	return isFrom(funcRecvNamed(fn), pkg, typ)
}

func runPairwise(pass *Pass) {
	info := pass.Info()
	// poolAcquires[i] collects non-test calls of pool pair i's acquire;
	// poolReleaseSeen[i] whether its release is called anywhere non-test.
	poolAcquires := make([][]token.Pos, len(poolPairs))
	poolReleaseSeen := make([]bool, len(poolPairs))
	finishedSets := map[*types.Named]map[string][]token.Pos{} // type -> func -> positions
	for _, f := range pass.Pkg.Files {
		if isTestFile(pass.Fset, f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					fn := calleeFunc(info, n)
					if fn == nil {
						return true
					}
					for i, p := range poolPairs {
						if poolPairMatches(fn, p.pkg, p.typ, p.acquire) {
							poolAcquires[i] = append(poolAcquires[i], n.Pos())
						}
						if poolPairMatches(fn, p.pkg, p.typ, p.release) {
							poolReleaseSeen[i] = true
						}
					}
				case *ast.AssignStmt:
					recordFinishedSets(info, n, fd.Name.Name, finishedSets)
				}
				return true
			})
			checkPoolPaths(pass, info, fd)
		}
	}
	for i, p := range poolPairs {
		if len(poolAcquires[i]) == 0 || poolReleaseSeen[i] {
			continue
		}
		acq, rel := p.acquire, p.release
		if p.typ != "" {
			acq, rel = p.typ+"."+p.acquire, p.typ+"."+p.release
		}
		for _, pos := range poolAcquires[i] {
			pass.Reportf(pos, "%s is called in this package but %s never is; %s", acq, rel, p.leak)
		}
	}
	reportFinishedFunnels(pass, finishedSets)
}

// ---- all-paths obligation walker ----
//
// obligWalker is the all-paths engine behind the pooled-storage rule: named
// obligations accumulate in a pending map, control flow forks the map per
// branch and unions the survivors (an obligation leaks if ANY path drops it),
// and a return statement first prunes the names it escorts out, then
// flushes whatever is left.

type obligWalker struct {
	pass     *Pass
	info     *types.Info
	reported map[token.Pos]bool
}

// escortReturnedIdents discharges every name mentioned in the return values:
// the caller inherits the obligation along with the value.
func escortReturnedIdents(s *ast.ReturnStmt, pending map[string]token.Pos) {
	for _, r := range s.Results {
		ast.Inspect(r, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				delete(pending, id.Name)
			}
			return true
		})
	}
}

func (w *obligWalker) flush(pending map[string]token.Pos) {
	for base, pos := range pending {
		if !w.reported[pos] {
			w.reported[pos] = true
			w.pass.Reportf(pos, "pooled storage bound to %s here is neither returned to its pool, returned to the caller, nor stored on some path; it can never be recycled", base)
		}
	}
}

func copyPending(p map[string]token.Pos) map[string]token.Pos {
	out := make(map[string]token.Pos, len(p))
	for k, v := range p {
		out[k] = v
	}
	return out
}

func (w *obligWalker) walkStmts(stmts []ast.Stmt, pending map[string]token.Pos) (map[string]token.Pos, bool) {
	for _, s := range stmts {
		var term bool
		pending, term = w.walkStmt(s, pending)
		if term {
			return pending, true
		}
	}
	return pending, false
}

func (w *obligWalker) walkStmt(s ast.Stmt, pending map[string]token.Pos) (map[string]token.Pos, bool) {
	switch s := s.(type) {
	case *ast.ReturnStmt:
		escortReturnedIdents(s, pending)
		w.flush(pending)
		return pending, true
	case *ast.BlockStmt:
		return w.walkStmts(s.List, pending)
	case *ast.IfStmt:
		if s.Init != nil {
			pending, _ = w.walkStmt(s.Init, pending)
		}
		p1, t1 := w.walkStmts(s.Body.List, copyPending(pending))
		p2, t2 := copyPending(pending), false
		if s.Else != nil {
			p2, t2 = w.walkStmt(s.Else, p2)
		}
		switch {
		case t1 && t2:
			return pending, true
		case t1:
			return p2, false
		case t2:
			return p1, false
		default:
			return unionPending(p1, p2), false
		}
	case *ast.ForStmt:
		p, _ := w.walkStmts(s.Body.List, copyPending(pending))
		return unionPending(pending, p), false
	case *ast.RangeStmt:
		p, _ := w.walkStmts(s.Body.List, copyPending(pending))
		return unionPending(pending, p), false
	case *ast.SwitchStmt:
		out := copyPending(pending)
		for _, cc := range s.Body.List {
			p, t := w.walkStmts(cc.(*ast.CaseClause).Body, copyPending(pending))
			if !t {
				out = unionPending(out, p)
			}
		}
		return out, false
	case *ast.TypeSwitchStmt:
		out := copyPending(pending)
		for _, cc := range s.Body.List {
			p, t := w.walkStmts(cc.(*ast.CaseClause).Body, copyPending(pending))
			if !t {
				out = unionPending(out, p)
			}
		}
		return out, false
	case *ast.SelectStmt:
		out := copyPending(pending)
		for _, cc := range s.Body.List {
			p, t := w.walkStmts(cc.(*ast.CommClause).Body, copyPending(pending))
			if !t {
				out = unionPending(out, p)
			}
		}
		return out, false
	case *ast.LabeledStmt:
		return w.walkStmt(s.Stmt, pending)
	default:
		poolStmt(w.info, s, pending)
	}
	return pending, false
}

func unionPending(a, b map[string]token.Pos) map[string]token.Pos {
	out := copyPending(a)
	for k, v := range b {
		if _, ok := out[k]; !ok {
			out[k] = v
		}
	}
	return out
}

// ---- rule: pooled storage bound to a local is discharged on all paths ----

// checkPoolPaths runs the obligation walk for pooled storage: binding a
// local to sync.Pool.Get or wire.GetBuf creates an obligation discharged by
// handing the local to the matching Put/PutBuf (directly, deferred, or
// inside a spawned closure), returning it to the caller, or storing it into
// a field whose owner releases it later. A path that merely drops the local
// leaks the storage and degrades the pool back to plain allocation. A Get
// whose result goes straight into a field or return creates no obligation —
// ownership transferred at the acquire.
func checkPoolPaths(pass *Pass, info *types.Info, fd *ast.FuncDecl) {
	w := &obligWalker{pass: pass, info: info, reported: map[token.Pos]bool{}}
	pending, term := w.walkStmts(fd.Body.List, map[string]token.Pos{})
	if !term {
		w.flush(pending)
	}
}

// poolStmt deletes obligations the statement discharges, then records the
// ones it creates (discharge first, so `b = pool.Get()` rebinding an
// undischarged b does not accidentally clear the old obligation).
func poolStmt(info *types.Info, s ast.Stmt, pending map[string]token.Pos) {
	ast.Inspect(s, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if !isPoolReleaseCall(info, n) {
				return true
			}
			for _, arg := range n.Args {
				for base := range pending {
					if exprMentions(arg, base) {
						delete(pending, base)
					}
				}
			}
		case *ast.AssignStmt:
			// Field store: the local survives in a struct the owner
			// releases later (acquireScratch's e.workptr shape).
			for i, lhs := range n.Lhs {
				if _, isSel := lhs.(*ast.SelectorExpr); !isSel || i >= len(n.Rhs) {
					continue
				}
				for base := range pending {
					if exprMentions(n.Rhs[i], base) {
						delete(pending, base)
					}
				}
			}
		}
		return true
	})
	as, ok := s.(*ast.AssignStmt)
	if !ok || len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, rhs := range as.Rhs {
		e := ast.Unparen(rhs)
		if ta, ok := e.(*ast.TypeAssertExpr); ok {
			e = ast.Unparen(ta.X)
		}
		call, ok := e.(*ast.CallExpr)
		if !ok || !isPoolAcquireCall(info, call) {
			continue
		}
		if id, ok := as.Lhs[i].(*ast.Ident); ok {
			pending[id.Name] = call.Pos()
		}
	}
}

// isPoolAcquireCall matches the binding-rule acquires: sync.Pool.Get and
// wire.GetBuf (Retain is presence-only — it returns nothing to bind).
func isPoolAcquireCall(info *types.Info, call *ast.CallExpr) bool {
	fn := calleeFunc(info, call)
	return poolPairMatches(fn, "sync", "Pool", "Get") ||
		poolPairMatches(fn, "hyperfile/internal/wire", "", "GetBuf")
}

func isPoolReleaseCall(info *types.Info, call *ast.CallExpr) bool {
	fn := calleeFunc(info, call)
	return poolPairMatches(fn, "sync", "Pool", "Put") ||
		poolPairMatches(fn, "hyperfile/internal/wire", "", "PutBuf")
}

// exprMentions reports whether e references an identifier named base.
func exprMentions(e ast.Expr, base string) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == base {
			found = true
		}
		return !found
	})
	return found
}

// ---- rule: finished = true funnels through one function ----

func recordFinishedSets(info *types.Info, assign *ast.AssignStmt, fname string, sets map[*types.Named]map[string][]token.Pos) {
	for i, lhs := range assign.Lhs {
		sel, ok := lhs.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "finished" || i >= len(assign.Rhs) {
			continue
		}
		rhs, ok := ast.Unparen(assign.Rhs[i]).(*ast.Ident)
		if !ok || rhs.Name != "true" {
			continue
		}
		t := info.TypeOf(sel.X)
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		named, _ := types.Unalias(t).(*types.Named)
		if named == nil {
			continue
		}
		if sets[named] == nil {
			sets[named] = map[string][]token.Pos{}
		}
		sets[named][fname] = append(sets[named][fname], assign.Pos())
	}
}

func reportFinishedFunnels(pass *Pass, sets map[*types.Named]map[string][]token.Pos) {
	for named, byFunc := range sets {
		if len(byFunc) < 2 {
			continue
		}
		var funcs []string
		for f := range byFunc {
			funcs = append(funcs, f)
		}
		sort.Strings(funcs)
		for _, f := range funcs {
			for _, pos := range byFunc[f] {
				pass.Reportf(pos, "%s.finished is set to true in %d functions; funnel every transition through one", named.Obj().Name(), len(funcs))
			}
		}
	}
}
