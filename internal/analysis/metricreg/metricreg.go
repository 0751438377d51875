// Package metricreg flags metric registration outside init-time code
// paths.
//
// Registering the same name on a metrics.Registry twice panics by
// design — a duplicate is a wiring bug — which makes *where* the
// registration happens load-bearing: a CounterFunc/GaugeVec/Histogram call
// on a request or job path works exactly once and panics the process
// on the second request. The invariant: registration methods run only
// from init functions or from constructor-shaped functions (New*/new*,
// Register*/register*), where they execute once per registry by
// construction. Handlers observe pre-registered collectors; they never
// mint them.
package metricreg

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// registration lists the metrics.Registry methods that create or hook
// collectors (and so panic on a duplicate).
var registration = map[string]bool{
	"CounterFunc":  true,
	"GaugeFunc":    true,
	"GaugeVec":     true,
	"Histogram":    true,
	"HistogramVec": true,
	"OnCollect":    true,
}

// Analyzer is the metricreg analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "metricreg",
	Doc:  "metric registration outside init or a New*/Register* constructor; a duplicate registration panics, so collectors are minted once at wiring time and only observed afterwards",
	Run:  run,
}

func run(pass *analysis.Pass) (any, error) {
	for _, f := range pass.Files {
		// Tests build throwaway registries inline; the invariant guards
		// production wiring.
		if strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || allowed(fd.Name.Name) {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				selection := pass.TypesInfo.Selections[sel]
				if selection == nil || selection.Kind() != types.MethodVal {
					return true
				}
				named := namedRecv(selection.Recv())
				if named == nil || named.Obj().Pkg() == nil ||
					named.Obj().Pkg().Path() != "repro/internal/metrics" || named.Obj().Name() != "Registry" {
					return true
				}
				m := selection.Obj().Name()
				if !registration[m] {
					return true
				}
				pass.Reportf(call.Pos(),
					"metrics.Registry.%s called in %s: registration panics on duplicates, so it belongs in init or a New*/Register* constructor",
					m, fd.Name.Name)
				return true
			})
		}
	}
	return nil, nil
}

// allowed reports whether a function name is an init-time wiring shape.
func allowed(name string) bool {
	return name == "init" ||
		strings.HasPrefix(name, "New") || strings.HasPrefix(name, "new") ||
		strings.HasPrefix(name, "Register") || strings.HasPrefix(name, "register")
}

// namedRecv unwraps a method receiver type to its named type.
func namedRecv(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}
