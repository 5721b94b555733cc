package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// LockDisc enforces the repo's lock discipline over the CFG dataflow
// engine. Three invariants, checked per package:
//
//  1. Release on all paths: a lock acquired inside a function must be
//     released (or defer-released) on every path out of it. A function
//     that deliberately returns holding a lock is a bug factory in this
//     codebase — every mutex window here is local.
//  2. No reentrant acquisition: acquiring a lock that a must-analysis
//     proves is already held — directly, or by calling a package
//     function whose summary says it acquires the same lock —
//     self-deadlocks (sync.Mutex) or self-aborts forever
//     (sim.Semaphore).
//  3. Acquisition-order consistency: if one path acquires B while
//     holding A, no other path in the package may acquire A while
//     holding B (deadlock cycle). On top of the observed-pair check, a
//     declared rank table pins the documented orders — the
//     bus.Hierarchy frame-busy → link → segment-semaphore order and
//     serve's Server.mu → job.mu order — so a violation is caught even
//     before the reverse pair is written.
//
// Covered locks: sync.Mutex / sync.RWMutex Lock/RLock/Unlock/RUnlock,
// sim.Semaphore Acquire/Release, and the bus directory's per-frame
// busy bit (dirEntry.busy = true/false), which is the hierarchy's
// frame lock in flag clothing.
var LockDisc = &Analyzer{
	Name: "lockdisc",
	Doc: "enforce release-on-all-paths, no reentrant acquisition, and acquisition-order " +
		"consistency (observed pairs + the declared frame→link→segment and Server.mu→job.mu ranks)",
	Run: runLockDisc,
}

// lockRank is the declared acquisition order: a lock may only be
// acquired while holding locks of strictly lower rank values. Keys are
// "<pkgname>.<Type>.<field>" as produced by lockKey; TestLockTablesResolve
// keeps every key naming a real field, since a stale key silently
// switches its rank off.
var lockRank = map[string]int{
	"bus.dirEntry.busy":  0,
	"bus.Hierarchy.link": 1,
	"bus.Bus.sem":        2,

	"serve.Server.mu": 0,
	"serve.job.mu":    1,

	// Fixture coverage for the rank check (testdata/src/lockdisc).
	"lockdisc.rankLow.mu":  0,
	"lockdisc.rankHigh.mu": 1,
}

// flagLock is a boolean struct field used as a lock: assigning true
// acquires, assigning false releases.
type flagLock struct{ typeName, field string }

var flagLocks = []flagLock{
	{"dirEntry", "busy"}, // bus.Hierarchy per-frame busy bit
}

// lockOp is one acquire or release discovered in a statement.
type lockOp struct {
	key      string
	acquire  bool
	deferred bool
	pos      token.Pos
}

// lockKey names a lock from the receiver expression of a Lock/Acquire
// call (or the X of a flag-lock assignment): "<pkg>.<Type>.<field>"
// when the lock is a struct field, "<func-local>:<expr>" otherwise, so
// distinct locals stay distinct and field locks unify across methods.
func lockKey(info *types.Info, recv ast.Expr, suffix string) string {
	if sel, ok := unparen(recv).(*ast.SelectorExpr); ok {
		if tv, ok := info.Types[sel.X]; ok {
			if n := namedType(tv.Type); n != nil && n.Obj().Pkg() != nil {
				return n.Obj().Pkg().Name() + "." + n.Obj().Name() + "." + sel.Sel.Name + suffix
			}
		}
	}
	return "local:" + types.ExprString(unparen(recv)) + suffix
}

// stmtLockOps extracts the lock operations of one lowered statement in
// evaluation order: mutex/semaphore calls (stmtCalls order) and
// flag-lock assignments.
func stmtLockOps(info *types.Info, s ast.Stmt) []lockOp {
	var ops []lockOp
	stmtCalls(s, func(call *ast.CallExpr, inDefer bool) {
		sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return
		}
		tv, ok := info.Types[sel.X]
		if !ok {
			return
		}
		var acquire bool
		var suffix string
		switch {
		case isNamed(tv.Type, "sync", "Mutex") && sel.Sel.Name == "Lock",
			isNamed(tv.Type, "sync", "RWMutex") && sel.Sel.Name == "Lock",
			isNamed(tv.Type, "vmp/internal/sim", "Semaphore") && sel.Sel.Name == "Acquire":
			acquire = true
		case isNamed(tv.Type, "sync", "RWMutex") && sel.Sel.Name == "RLock":
			acquire, suffix = true, ":r"
		case isNamed(tv.Type, "sync", "Mutex") && sel.Sel.Name == "Unlock",
			isNamed(tv.Type, "sync", "RWMutex") && sel.Sel.Name == "Unlock",
			isNamed(tv.Type, "vmp/internal/sim", "Semaphore") && sel.Sel.Name == "Release":
		case isNamed(tv.Type, "sync", "RWMutex") && sel.Sel.Name == "RUnlock":
			suffix = ":r"
		default:
			return
		}
		ops = append(ops, lockOp{
			key:      lockKey(info, sel.X, suffix),
			acquire:  acquire,
			deferred: inDefer,
			pos:      call.Pos(),
		})
	})
	// Flag-lock assignments: x.busy = true / false.
	ast.Inspect(s, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return true
		}
		sel, ok := unparen(as.Lhs[0]).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		val, ok := unparen(as.Rhs[0]).(*ast.Ident)
		if !ok || (val.Name != "true" && val.Name != "false") {
			return true
		}
		tv, ok := info.Types[sel.X]
		if !ok {
			return true
		}
		n2 := namedType(tv.Type)
		if n2 == nil {
			return true
		}
		for _, fl := range flagLocks {
			if n2.Obj().Name() == fl.typeName && sel.Sel.Name == fl.field {
				ops = append(ops, lockOp{
					key:     lockKey(info, as.Lhs[0], ""),
					acquire: val.Name == "true",
					pos:     as.Pos(),
				})
			}
		}
		return true
	})
	return ops
}

// orderEdge records "acquired `to` while holding `from`" at pos.
type orderEdge struct {
	from, to string
	pos      token.Pos
}

func runLockDisc(pass *Pass) {
	funcs := packageFuncs(pass.Files)

	// Package-local call resolution: *types.Func -> declaration.
	decls := make(map[*types.Func]*ast.FuncDecl)
	for _, fd := range funcs {
		if obj, ok := pass.Info.Defs[fd.Name].(*types.Func); ok {
			decls[obj] = fd
		}
	}

	// Summaries: the set of lock keys a function acquires anywhere
	// inside it, transitively through package-local calls. Fixed point
	// over the (small) package call graph.
	summary := make(map[*ast.FuncDecl]factSet)
	for _, fd := range funcs {
		summary[fd] = make(factSet)
	}
	for changed := true; changed; {
		changed = false
		for _, fd := range funcs {
			sum := summary[fd]
			before := len(sum)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if _, ok := n.(*ast.FuncLit); ok {
					return false
				}
				if s, ok := n.(ast.Stmt); ok {
					for _, op := range stmtLockOps(pass.Info, s) {
						if op.acquire {
							sum[op.key] = true
						}
					}
					if call, ok := stmtDirectCall(s); ok {
						if callee := calleeFunc(pass.Info, call); callee != nil {
							if cd, ok := decls[callee]; ok {
								for k := range summary[cd] {
									sum[k] = true
								}
							}
						}
					}
				}
				return true
			})
			if len(sum) != before {
				changed = true
			}
		}
	}

	var edges []orderEdge
	for _, fd := range funcs {
		edges = append(edges, lockDiscFunc(pass, fd, decls, summary)...)
	}

	// Order-consistency across the package: report every observed edge
	// that participates in a cycle (A held while acquiring B on one
	// path, B held while acquiring A on another).
	reportCycles(pass, edges)
}

// stmtDirectCall returns the single top-level call of an expression or
// assignment statement, if any — the package-local call sites the
// summary propagation follows.
func stmtDirectCall(s ast.Stmt) (*ast.CallExpr, bool) {
	switch st := s.(type) {
	case *ast.ExprStmt:
		if c, ok := unparen(st.X).(*ast.CallExpr); ok {
			return c, true
		}
	case *ast.AssignStmt:
		if len(st.Rhs) == 1 {
			if c, ok := unparen(st.Rhs[0]).(*ast.CallExpr); ok {
				return c, true
			}
		}
	}
	return nil, false
}

// lockDiscFunc runs the must-held analysis over one function and
// reports its local violations, returning the order edges observed.
func lockDiscFunc(pass *Pass, fd *ast.FuncDecl, decls map[*types.Func]*ast.FuncDecl, summary map[*ast.FuncDecl]factSet) []orderEdge {
	g := buildCFG(fd.Body)

	// Deferred releases apply at every exit; collect them up front
	// (function-level: defer is dynamic, but in this codebase every
	// `defer mu.Unlock()` directly follows its Lock).
	deferred := make(factSet)
	firstAcquire := make(map[string]token.Pos)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if s, ok := n.(ast.Stmt); ok {
			for _, op := range stmtLockOps(pass.Info, s) {
				if op.deferred && !op.acquire {
					deferred[op.key] = true
				}
				if op.acquire {
					if _, ok := firstAcquire[op.key]; !ok {
						firstAcquire[op.key] = op.pos
					}
				}
			}
		}
		return true
	})

	transfer := func(b *cfgBlock, in factSet) factSet {
		out := in.clone()
		for _, s := range b.stmts {
			for _, op := range stmtLockOps(pass.Info, s) {
				if op.deferred {
					continue // applies at exit
				}
				if op.acquire {
					out[op.key] = true
				} else {
					delete(out, op.key)
				}
			}
		}
		return out
	}
	ins := mustForward(g, transfer)

	// Reporting pass over the stable solution.
	var edges []orderEdge
	reported := make(map[string]bool) // dedupe per (kind,key) within the function
	reportOnce := func(kind, key string, pos token.Pos, format string, args ...any) {
		id := kind + "\x00" + key
		if reported[id] {
			return
		}
		reported[id] = true
		pass.Reportf(pos, format, args...)
	}

	for _, b := range g.blocks {
		held := ins[b].clone()
		for _, s := range b.stmts {
			// Package-local calls while holding locks: consult summaries.
			if len(held) > 0 {
				if call, ok := stmtDirectCall(s); ok {
					if callee := calleeFunc(pass.Info, call); callee != nil {
						if cd, ok := decls[callee]; ok && cd != fd {
							for _, k := range sortedFacts(summary[cd]) {
								if held[k] {
									reportOnce("reentrant-call", k, call.Pos(),
										"calls %s, which acquires %s, while %s is already held (reentrant acquisition deadlocks)",
										callee.Name(), k, k)
									continue
								}
								for _, h := range sortedFacts(held) {
									edges = append(edges, orderEdge{from: h, to: k, pos: call.Pos()})
								}
								checkRank(pass, reportOnce, held, k, call.Pos())
							}
						}
					}
				}
			}
			for _, op := range stmtLockOps(pass.Info, s) {
				if op.deferred {
					continue
				}
				if op.acquire {
					if held[op.key] {
						reportOnce("reentrant", op.key, op.pos,
							"%s acquired while already held on every path here (reentrant acquisition deadlocks)", op.key)
					}
					for _, h := range sortedFacts(held) {
						edges = append(edges, orderEdge{from: h, to: op.key, pos: op.pos})
					}
					checkRank(pass, reportOnce, held, op.key, op.pos)
					held[op.key] = true
				} else {
					delete(held, op.key)
				}
			}
		}
		if b.exit {
			for _, k := range sortedFacts(held) {
				if deferred[k] {
					continue
				}
				pos := firstAcquire[k]
				if pos == token.NoPos {
					pos = fd.Pos()
				}
				reportOnce("leak", k, pos,
					"%s is not released on every path out of %s (add the missing release or defer it)",
					k, fd.Name.Name)
			}
		}
	}
	return edges
}

// checkRank reports declared-order violations: acquiring `key` while
// holding any lock of equal or higher declared rank.
func checkRank(pass *Pass, reportOnce func(kind, key string, pos token.Pos, format string, args ...any), held factSet, key string, pos token.Pos) {
	kr, ok := lockRank[key]
	if !ok {
		return
	}
	for _, h := range sortedFacts(held) {
		hr, ok := lockRank[h]
		if !ok {
			continue
		}
		if kr < hr {
			reportOnce("rank", h+"->"+key, pos,
				"acquiring %s while holding %s violates the declared lock order (%s must be taken first)",
				key, h, key)
		}
	}
}

// reportCycles finds acquisition-order cycles in the observed edge set
// and reports every edge on a cycle.
func reportCycles(pass *Pass, edges []orderEdge) {
	adj := make(map[string]map[string]bool)
	for _, e := range edges {
		if adj[e.from] == nil {
			adj[e.from] = make(map[string]bool)
		}
		adj[e.from][e.to] = true
	}
	reaches := func(from, to string) bool {
		seen := map[string]bool{from: true}
		stack := []string{from}
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, m := range sortedFacts(adj[n]) {
				if m == to {
					return true
				}
				if !seen[m] {
					seen[m] = true
					stack = append(stack, m)
				}
			}
		}
		return false
	}
	seenEdge := make(map[string]bool)
	sort.Slice(edges, func(i, j int) bool { return edges[i].pos < edges[j].pos })
	for _, e := range edges {
		id := e.from + "\x00" + e.to
		if seenEdge[id] || e.from == e.to {
			continue
		}
		seenEdge[id] = true
		if reaches(e.to, e.from) {
			pass.Reportf(e.pos,
				"lock order cycle: %s is acquired while holding %s here, but the package also orders %s before %s",
				e.to, e.from, e.to, e.from)
		}
	}
}
