// Package suite enumerates the vbslint analyzers. cmd/vbslint and the
// smoke tests import it so the invariant set is defined exactly once,
// in-repo, under version control.
package suite

import (
	"repro/internal/analysis"
	"repro/internal/analysis/atomicfaults"
	"repro/internal/analysis/errwrap"
	"repro/internal/analysis/lockio"
	"repro/internal/analysis/metricreg"
	"repro/internal/analysis/poolescape"
)

// All returns every vbslint analyzer, in reporting order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		atomicfaults.Analyzer,
		errwrap.Analyzer,
		lockio.Analyzer,
		metricreg.Analyzer,
		poolescape.Analyzer,
	}
}
