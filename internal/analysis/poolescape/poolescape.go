// Package poolescape enforces the pooled devirt router ownership
// contract: nothing reachable from a *devirt.Router — the router
// itself, the Configs() slice, the configs inside it — may be used
// after Release returns the router to its shape pool, or escape a
// function that releases it. Release resets the router and hands it
// to the next decode; a retained alias silently reads (or worse,
// writes) another task's routing state.
//
// The analysis is function-local and lexical:
//
//   - a use of the router, or of a reference derived from it, after a
//     Release statement in the same block is a violation;
//   - with a deferred Release, returning the router or a derived
//     reference is a violation (the caller receives memory the defer
//     is about to recycle);
//   - storing a derived reference into a field, map or slice element
//     of anything else while the function releases the router is a
//     violation (the reference outlives the frame).
//
// "Derived" follows reference-typed values only: cfgs := rt.Configs()
// and cfg := cfgs[i] alias pooled memory; n := cfg.N copies a scalar
// and is always safe. Copying values out before Release — what
// core.VBS.DecodeEntryInto does with MergeMember — is the sanctioned
// pattern and does not trip the analyzer.
package poolescape

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer is the poolescape analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "poolescape",
	Doc:  "memory reachable from a pooled devirt router retained past Release (Configs ownership contract)",
	Run:  run,
}

const devirtPath = "repro/internal/devirt"

func run(pass *analysis.Pass) (any, error) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					checkFunc(pass, fn.Body)
				}
				return false // checkFunc covers nested literals lexically
			case *ast.FuncLit:
				checkFunc(pass, fn.Body)
				return false
			}
			return true
		})
	}
	return nil, nil
}

// checkFunc analyzes one function body (nested function literals
// included: their execution may outlive a Release just the same).
func checkFunc(pass *analysis.Pass, body *ast.BlockStmt) {
	routers := map[types.Object]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if obj := objectOf(pass, id); obj != nil && isRouterPtr(obj.Type()) {
			routers[obj] = true
		}
		return true
	})
	if len(routers) == 0 {
		return
	}

	// derived maps reference-typed locals to the router they alias.
	// Two passes reach derived-of-derived chains regardless of walk
	// order quirks.
	derived := map[types.Object]types.Object{}
	for i := 0; i < 2; i++ {
		ast.Inspect(body, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.AssignStmt:
				if len(s.Lhs) != len(s.Rhs) {
					return true
				}
				for j, rhs := range s.Rhs {
					root := aliasRoot(pass, routers, derived, rhs)
					if root == nil {
						continue
					}
					if id, ok := s.Lhs[j].(*ast.Ident); ok {
						if obj := objectOf(pass, id); obj != nil && !routers[obj] {
							derived[obj] = root
						}
					}
				}
			case *ast.RangeStmt:
				// for _, cfg := range rt.Configs(): the value variable
				// aliases pooled element storage when it is a reference.
				root := aliasRoot(pass, routers, derived, s.X)
				if root == nil {
					return true
				}
				if id, ok := s.Value.(*ast.Ident); ok && id.Name != "_" {
					if obj := objectOf(pass, id); obj != nil && !routers[obj] && isRefType(obj.Type()) {
						derived[obj] = root
					}
				}
			}
			return true
		})
	}

	aliases := func(e ast.Expr) types.Object { return aliasRoot(pass, routers, derived, e) }

	// Release sites: plain statements bound their block tail; deferred
	// ones cover every return.
	type release struct {
		root     types.Object
		stmtEnd  token.Pos
		blockEnd token.Pos
	}
	var plain []release
	deferred := map[types.Object]bool{}
	var walkBlocks func(n ast.Node)
	walkBlocks = func(n ast.Node) {
		ast.Inspect(n, func(m ast.Node) bool {
			switch s := m.(type) {
			case *ast.BlockStmt:
				for _, st := range s.List {
					es, ok := st.(*ast.ExprStmt)
					if !ok {
						continue
					}
					if root := releaseTarget(pass, aliases, es.X); root != nil {
						plain = append(plain, release{root: root, stmtEnd: st.End(), blockEnd: s.End()})
					}
				}
			case *ast.DeferStmt:
				if root := releaseTarget(pass, aliases, s.Call); root != nil {
					deferred[root] = true
				}
			}
			return true
		})
	}
	walkBlocks(body)

	reportUse := func(id *ast.Ident, obj types.Object) {
		pass.Reportf(id.Pos(),
			"%s is reachable from pooled router %s, already Released; copy what you need before Release (Configs ownership contract)",
			id.Name, rootName(routers, derived, obj))
	}

	// Rule 1: use after a plain Release, within its block's remainder.
	for _, rel := range plain {
		ast.Inspect(body, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj := objectOf(pass, id)
			if obj == nil {
				return true
			}
			if obj != rel.root && derived[obj] != rel.root {
				return true
			}
			if id.Pos() > rel.stmtEnd && id.Pos() < rel.blockEnd {
				reportUse(id, obj)
			}
			return true
		})
	}

	// Rule 2: returning pooled memory while a deferred Release is
	// armed hands the caller a router the defer immediately resets.
	if len(deferred) > 0 {
		ast.Inspect(body, func(n ast.Node) bool {
			ret, ok := n.(*ast.ReturnStmt)
			if !ok {
				return true
			}
			for _, res := range ret.Results {
				ast.Inspect(res, func(m ast.Node) bool {
					id, ok := m.(*ast.Ident)
					if !ok {
						return true
					}
					obj := objectOf(pass, id)
					if obj == nil {
						return true
					}
					root := obj
					if r, ok := derived[obj]; ok {
						root = r
					}
					if deferred[root] && (routers[obj] || derived[obj] != nil) {
						pass.Reportf(id.Pos(),
							"return of %s leaks memory reachable from pooled router %s past its deferred Release; copy it first (Configs ownership contract)",
							id.Name, rootName(routers, derived, obj))
					}
					return true
				})
			}
			return true
		})
	}

	// Rule 3: storing a derived reference into a field, element or
	// dereference lets it outlive the frame of a function that
	// releases the router.
	released := map[types.Object]bool{}
	for _, rel := range plain {
		released[rel.root] = true
	}
	for r := range deferred {
		released[r] = true
	}
	if len(released) > 0 {
		ast.Inspect(body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || as.Tok != token.ASSIGN || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for j, lhs := range as.Lhs {
				switch lhs.(type) {
				case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
				default:
					continue
				}
				if root := aliases(as.Rhs[j]); root != nil && released[root] {
					pass.Reportf(as.Rhs[j].Pos(),
						"stores memory reachable from pooled router %s, which this function Releases; store a copy instead (Configs ownership contract)",
						root.Name())
				}
			}
			return true
		})
	}
}

// releaseTarget returns the router object a rt.Release() call
// releases, or nil if the expression is not one.
func releaseTarget(pass *analysis.Pass, aliases func(ast.Expr) types.Object, e ast.Expr) types.Object {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return nil
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Release" {
		return nil
	}
	selection := pass.TypesInfo.Selections[sel]
	if selection == nil || selection.Kind() != types.MethodVal || !isRouterPtr(selection.Recv()) {
		return nil
	}
	if id, ok := sel.X.(*ast.Ident); ok {
		return objectOf(pass, id)
	}
	return aliases(sel.X)
}

// aliasRoot reports which router (if any) the expression aliases,
// following only reference-typed results: scalar copies are safe.
func aliasRoot(pass *analysis.Pass, routers map[types.Object]bool, derived map[types.Object]types.Object, e ast.Expr) types.Object {
	switch x := e.(type) {
	case *ast.ParenExpr:
		return aliasRoot(pass, routers, derived, x.X)
	case *ast.Ident:
		obj := objectOf(pass, x)
		if obj == nil {
			return nil
		}
		if routers[obj] {
			return obj
		}
		return derived[obj]
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			return aliasRoot(pass, routers, derived, x.X)
		}
	case *ast.IndexExpr:
		if !isRefType(pass.TypeOf(x)) {
			return nil
		}
		return aliasRoot(pass, routers, derived, x.X)
	case *ast.SelectorExpr:
		if !isRefType(pass.TypeOf(x)) {
			return nil
		}
		return aliasRoot(pass, routers, derived, x.X)
	case *ast.CallExpr:
		// rt.Configs() (or any method on the router returning a
		// reference) aliases the router's pooled storage.
		sel, ok := x.Fun.(*ast.SelectorExpr)
		if !ok {
			return nil
		}
		selection := pass.TypesInfo.Selections[sel]
		if selection == nil || selection.Kind() != types.MethodVal || !isRouterPtr(selection.Recv()) {
			return nil
		}
		if !isRefType(pass.TypeOf(x)) {
			return nil
		}
		return aliasRoot(pass, routers, derived, sel.X)
	}
	return nil
}

// rootName names the router a use traces back to, for diagnostics.
func rootName(routers map[types.Object]bool, derived map[types.Object]types.Object, obj types.Object) string {
	if routers[obj] {
		return obj.Name()
	}
	if r, ok := derived[obj]; ok && r != nil {
		return r.Name()
	}
	return obj.Name()
}

// objectOf resolves an identifier to its object (use or definition).
func objectOf(pass *analysis.Pass, id *ast.Ident) types.Object {
	if obj := pass.TypesInfo.Uses[id]; obj != nil {
		return obj
	}
	return pass.TypesInfo.Defs[id]
}

// isRouterPtr reports whether t is *devirt.Router.
func isRouterPtr(t types.Type) bool {
	p, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	n, ok := p.Elem().(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Pkg().Path() == devirtPath && n.Obj().Name() == "Router"
}

// isRefType reports whether values of t alias underlying storage
// (pointers, slices, maps, channels, interfaces, functions).
func isRefType(t types.Type) bool {
	if t == nil {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan, *types.Interface, *types.Signature:
		return true
	}
	return false
}
