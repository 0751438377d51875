// Fixture for the metricreg analyzer: metric registration is legal in
// init and New*/new*/Register*/register* functions (where it runs once
// per registry) and flagged everywhere else (where a second execution
// panics on the duplicate name).
package metricreg

import "repro/internal/metrics"

type subsystem struct {
	reg  *metrics.Registry
	hits *metrics.GaugeVec
}

var pkgReg = metrics.NewRegistry()

// Package-level var initializers run at init time and stay legal.
var bootGauge = pkgReg.GaugeVec("vbs_fixture_boot", "init-time", "phase")

func init() {
	pkgReg.GaugeFunc("vbs_fixture_up", "init-time", func() float64 { return 1 })
}

func New() *subsystem {
	s := &subsystem{reg: metrics.NewRegistry()}
	s.hits = s.reg.GaugeVec("vbs_fixture_hits", "constructor-time", "op")
	s.reg.OnCollect(func() {})
	return s
}

func newQuiet(reg *metrics.Registry) {
	reg.CounterFunc("vbs_fixture_ops_total", "constructor-time", func() float64 { return 0 })
}

func RegisterExtra(reg *metrics.Registry) {
	reg.HistogramVec("vbs_fixture_lat_seconds", "constructor-time", nil, "op")
}

func (s *subsystem) handleRequest() {
	s.hits.With("get").Set(1)                                       // observing is fine anywhere
	s.reg.CounterFunc("vbs_fixture_lazy_total", "per-request", nil) // want `metrics\.Registry\.CounterFunc called in handleRequest`
	s.reg.GaugeFunc("vbs_fixture_lazy", "per-request", nil)         // want `metrics\.Registry\.GaugeFunc called in handleRequest`
	s.reg.Histogram("vbs_fixture_lazy_seconds", "per-request", nil) // want `metrics\.Registry\.Histogram called in handleRequest`
	s.reg.OnCollect(func() {})                                      // want `metrics\.Registry\.OnCollect called in handleRequest`
}

func sweep(reg *metrics.Registry) {
	func() {
		reg.GaugeVec("vbs_fixture_closure", "closures inherit the enclosing decl") // want `metrics\.Registry\.GaugeVec called in sweep`
	}()
}
