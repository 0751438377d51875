// Package analysis is the vocabulary of vbslint, the repository's
// static-analysis suite: Analyzer, Pass and Diagnostic, mirroring the
// golang.org/x/tools/go/analysis API closely enough that an analyzer
// written here ports to the upstream framework (or an upstream
// analyzer ports here) mechanically. The repository vendors no
// third-party modules, so the framework itself — this package plus
// the loader in internal/analysis/driver and the golden-file harness
// in internal/analysis/analysistest — is implemented on the standard
// library's go/ast, go/types and go/importer alone.
//
// Each analyzer encodes one invariant this codebase has shipped a bug
// against, or documents only in prose:
//
//   - errwrap: an error formatted into fmt.Errorf with %v/%s/%q hides
//     it from errors.Is/errors.As (the store.ErrDisk %v-wrap bug).
//   - poolescape: memory reachable from a pooled devirt router must
//     not be retained past Release (the Configs ownership contract).
//   - lockio: a mutex held across an HTTP or disk call serializes the
//     fleet behind one slow peer.
//   - atomicfaults: a sync/atomic-typed field read or written without
//     its atomic methods (e.g. the repo.Faults arming pointer) races.
//   - metricreg: metrics.Registry registration panics on duplicate
//     names by design, so it must run from init or a New*/Register*
//     constructor — never on a request or job path.
//
// See cmd/vbslint for the multichecker that runs the suite, and
// docs/ARCHITECTURE.md ("Static analysis") for the invariant table
// and how to add an analyzer.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// An Analyzer describes one analysis function and its properties.
type Analyzer struct {
	// Name identifies the analyzer in findings, ignore directives
	// (//vbslint:ignore <name>) and documentation. By convention it is
	// the package name.
	Name string

	// Doc is the one-paragraph description printed by vbslint -help,
	// stating the invariant the analyzer enforces.
	Doc string

	// Run applies the analyzer to a single type-checked package,
	// reporting findings through pass.Report. The returned value is
	// unused today; it keeps the upstream signature so analyzers port
	// without edits.
	Run func(*Pass) (any, error)
}

// A Pass provides one analyzer run with a single type-checked package
// and a sink for its diagnostics.
type Pass struct {
	// Analyzer is the analyzer being run.
	Analyzer *Analyzer

	// Fset maps token positions to file locations for every file in
	// the package (and every imported package).
	Fset *token.FileSet

	// Files are the package's parsed syntax trees, comments included.
	Files []*ast.File

	// Pkg is the type-checked package.
	Pkg *types.Package

	// TypesInfo holds type information for the package's syntax: at
	// least Types, Defs, Uses, Selections and Implicits are populated.
	TypesInfo *types.Info

	// Report delivers one diagnostic. The driver attaches the analyzer
	// name and applies //vbslint:ignore suppression.
	Report func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// TypeOf returns the type of expression e, or nil if not found.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	if t, ok := p.TypesInfo.Types[e]; ok {
		return t.Type
	}
	if id, ok := e.(*ast.Ident); ok {
		if obj := p.TypesInfo.ObjectOf(id); obj != nil {
			return obj.Type()
		}
	}
	return nil
}

// A Diagnostic is one finding: a position inside the package under
// analysis and a message stating the violated invariant.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}
