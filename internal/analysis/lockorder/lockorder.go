// Package lockorder checks mutex acquisitions against the package's
// documented lock hierarchy. The hierarchy is declared once, in a
// machine-readable doc comment anywhere in the package:
//
//	ptlint:lock-order Server.reloadMu > online.mu > Server.durMu > Server.srcMu
//
// Each entry names a sync.Mutex/RWMutex either as Type.field (a mutex
// field of a named struct type) or as a bare package-level variable name.
// "A > B" means A is the outer lock: a goroutine holding B must not
// acquire A. Packages without a directive are skipped.
//
// The check is intentionally linear and conservative — a lint, not a model
// checker. Within each function, acquisitions are scanned in source order
// against the set of locks still held (an explicit Unlock releases;
// a deferred Unlock holds to the end). Two findings result:
//
//   - acquiring a lock that ranks above (outer than) one already held —
//     the inversion that deadlocks against a goroutine locking in the
//     documented order;
//   - acquiring a lock while it is already held (self-deadlock on a
//     non-reentrant sync.Mutex).
//
// One level of the intra-package call graph is folded in: calling a
// function that itself acquires an outer or held lock, while holding one,
// is flagged at the call site.
package lockorder

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// Analyzer is the lockorder check. It runs on every package and activates
// wherever a ptlint:lock-order directive is present.
var Analyzer = &analysis.Analyzer{
	Name: "lockorder",
	Doc:  "flags mutex acquisitions that invert the package's documented ptlint:lock-order hierarchy",
	Run:  run,
}

const directive = "ptlint:lock-order"

// hierarchy is the parsed directive: lock key -> rank (0 = outermost).
type hierarchy struct {
	rank  map[string]int
	order []string // display order, for messages
	spec  string
}

func run(pass *analysis.Pass) error {
	h := parseHierarchy(pass)
	if h == nil {
		return nil
	}

	// First pass: every function's directly-acquired lock set, for the
	// one-level call-graph check.
	locksets := map[*types.Func]map[string]bool{}
	forEachFunc(pass, func(fn *types.Func, decl *ast.FuncDecl) {
		set := map[string]bool{}
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			if key, op, ok := lockCall(pass, n); ok && isAcquire(op) {
				if _, known := h.rank[key]; known {
					set[key] = true
				}
			}
			return true
		})
		if len(set) > 0 {
			locksets[fn] = set
		}
	})

	// Second pass: source-order held-set simulation per function.
	forEachFunc(pass, func(fn *types.Func, decl *ast.FuncDecl) {
		var held []string // lock keys in acquisition order
		release := func(key string) {
			for i := len(held) - 1; i >= 0; i-- {
				if held[i] == key {
					held = append(held[:i], held[i+1:]...)
					return
				}
			}
		}
		inDefer := map[ast.Node]bool{}
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			if d, ok := n.(*ast.DeferStmt); ok {
				inDefer[d.Call] = true
			}
			key, op, ok := lockCall(pass, n)
			if ok {
				rank, known := h.rank[key]
				if !known {
					return true
				}
				switch {
				case isAcquire(op):
					for _, hk := range held {
						hr := h.rank[hk]
						if hk == key {
							pass.Reportf(n.Pos(),
								"%s is acquired while already held (self-deadlock on a non-reentrant mutex)", key)
						} else if hr > rank {
							pass.Reportf(n.Pos(),
								"lock order inverted: acquiring %s while holding %s (documented order: %s)",
								key, hk, h.spec)
						}
					}
					held = append(held, key)
				default: // Unlock/RUnlock
					if call, isCall := n.(*ast.CallExpr); !isCall || !inDefer[call] {
						release(key)
					}
					// A deferred unlock releases at return; the lock stays
					// held for the rest of the source-order scan.
				}
				return true
			}
			// One level of the call graph: a call made while holding locks
			// is checked against the callee's direct acquisitions.
			if call, isCall := n.(*ast.CallExpr); isCall && len(held) > 0 {
				callee := calleeFunc(pass, call)
				if callee == nil || callee == fn {
					return true
				}
				for key := range locksets[callee] {
					rank := h.rank[key]
					for _, hk := range held {
						hr := h.rank[hk]
						if hk == key {
							pass.Reportf(call.Pos(),
								"calls %s, which acquires %s, while %s is held (self-deadlock)",
								callee.Name(), key, key)
						} else if hr > rank {
							pass.Reportf(call.Pos(),
								"lock order inverted: calls %s, which acquires %s, while holding %s (documented order: %s)",
								callee.Name(), key, hk, h.spec)
						}
					}
				}
			}
			return true
		})
	})
	return nil
}

// parseHierarchy finds and parses the package's ptlint:lock-order
// directive. Like all Go directives it must be written exactly
// //ptlint:lock-order (no space after //) — prose that merely mentions the
// marker is not a directive. Malformed or duplicates are reported.
func parseHierarchy(pass *analysis.Pass) *hierarchy {
	var h *hierarchy
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, "//"+directive) {
					continue
				}
				spec := strings.TrimSpace(c.Text[len("//"+directive):])
				if h != nil {
					pass.Reportf(c.Pos(), "duplicate %s directive (the package hierarchy must be declared exactly once)", directive)
					continue
				}
				parsed, err := parseSpec(spec)
				if err != nil {
					pass.Reportf(c.Pos(), "malformed %s directive: %v", directive, err)
					continue
				}
				h = parsed
			}
		}
	}
	return h
}

// parseSpec parses "A > B > C" into ranks.
func parseSpec(spec string) (*hierarchy, error) {
	parts := strings.Split(spec, ">")
	if len(parts) < 2 {
		return nil, fmt.Errorf("want at least two locks separated by '>', got %q", spec)
	}
	h := &hierarchy{rank: map[string]int{}, spec: spec}
	for i, p := range parts {
		name := strings.TrimSpace(p)
		if name == "" || strings.ContainsAny(name, " \t") || strings.Count(name, ".") > 1 {
			return nil, fmt.Errorf("entry %q: want Type.field or a package-level variable name", p)
		}
		if _, dup := h.rank[name]; dup {
			return nil, fmt.Errorf("entry %q appears twice", name)
		}
		h.rank[name] = i
		h.order = append(h.order, name)
	}
	h.spec = strings.Join(h.order, " > ")
	return h, nil
}

// lockCall matches expr.Lock()/RLock()/Unlock()/RUnlock()/TryLock() where
// expr is a sync.Mutex or sync.RWMutex addressed by the hierarchy's naming
// scheme, returning the lock's key and the method name.
func lockCall(pass *analysis.Pass, n ast.Node) (key, op string, ok bool) {
	call, isCall := n.(*ast.CallExpr)
	if !isCall {
		return "", "", false
	}
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	op = sel.Sel.Name
	switch op {
	case "Lock", "RLock", "TryLock", "TryRLock", "Unlock", "RUnlock":
	default:
		return "", "", false
	}
	if !isSyncMutex(pass.Info.Types[sel.X].Type) {
		return "", "", false
	}
	switch x := sel.X.(type) {
	case *ast.SelectorExpr:
		// owner.field — key is OwnerType.field.
		s := pass.Info.Selections[x]
		if s == nil {
			return "", "", false
		}
		recv := s.Recv()
		for {
			if p, isPtr := recv.(*types.Pointer); isPtr {
				recv = p.Elem()
				continue
			}
			break
		}
		named, isNamed := recv.(*types.Named)
		if !isNamed {
			return "", "", false
		}
		return named.Obj().Name() + "." + x.Sel.Name, op, true
	case *ast.Ident:
		// Bare name — key only if it is a package-level variable.
		obj, isVar := pass.Info.Uses[x].(*types.Var)
		if !isVar || obj.Parent() != pass.Pkg.Scope() {
			return "", "", false
		}
		return x.Name, op, true
	}
	return "", "", false
}

func isAcquire(op string) bool {
	return op == "Lock" || op == "RLock" || op == "TryLock" || op == "TryRLock"
}

func isSyncMutex(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
	}
	named, isNamed := t.(*types.Named)
	if !isNamed {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" &&
		(obj.Name() == "Mutex" || obj.Name() == "RWMutex")
}

// calleeFunc resolves a call to a function or method declared in this
// package.
func calleeFunc(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		obj = pass.Info.Uses[fun]
	case *ast.SelectorExpr:
		obj = pass.Info.Uses[fun.Sel]
	default:
		return nil
	}
	fn, isFn := obj.(*types.Func)
	if !isFn || fn.Pkg() == nil || fn.Pkg() != pass.Pkg {
		return nil
	}
	return fn
}

// forEachFunc visits every function declaration with a body.
func forEachFunc(pass *analysis.Pass, visit func(*types.Func, *ast.FuncDecl)) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, isFunc := decl.(*ast.FuncDecl)
			if !isFunc || fd.Body == nil {
				continue
			}
			fn, isFn := pass.Info.Defs[fd.Name].(*types.Func)
			if !isFn {
				continue
			}
			visit(fn, fd)
		}
	}
}
