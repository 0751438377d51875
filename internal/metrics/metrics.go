// Package metrics is a small, dependency-free Prometheus registry:
// counters, gauges and fixed-bucket histograms rendered in the
// Prometheus text exposition format, exposed as GET /metrics on vbsd
// and vbsgw.
//
// Metric names follow the repository convention
// vbs_<subsystem>_<name>_<unit> (unit suffixes: _seconds, _bytes,
// _bits, _total for monotonic counters). Every value the endpoint
// exports is either cumulative-monotonic (counters: rate() works) or
// an instantaneous level (gauges); nothing is reset on read.
//
// Registration is construction: Registry.CounterFunc / GaugeFunc /
// GaugeVec / Histogram / HistogramVec panic on a duplicate name, so all
// registration must happen exactly once — in package init or in a
// constructor (the vbslint `metricreg` analyzer enforces this).
// Observation paths (Set, Observe) are lock-free atomics and safe for
// any concurrency.
package metrics

import (
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind is a metric family's Prometheus type.
type Kind string

const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// DefLatencyBuckets are the default latency histogram bounds, in
// seconds: 10µs to 10s, roughly logarithmic. Cold loads pay a decode
// (milliseconds) while warm loads and cache-hit gets take tens of
// microseconds, so the range must resolve both.
var DefLatencyBuckets = []float64{
	.00001, .000025, .00005, .0001, .00025,
	.0005, .001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10,
}

// Registry holds metric families and renders them in the text
// exposition format. The zero value is not usable; call NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	names    []string // registration order
	collects []func()
}

// family is one named metric with its help text, type, and children
// (one child per label-value combination; unlabeled metrics have a
// single child under the empty key).
type family struct {
	name   string
	help   string
	kind   Kind
	labels []string

	mu   sync.Mutex
	kids map[string]child
	keys []string // registration order of children
}

// child is one rendered series (or histogram series group).
type child interface {
	// write appends the child's sample lines. labelStr is the
	// pre-rendered {k="v",...} fragment (empty for unlabeled).
	write(b *strings.Builder, name, labelStr string)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// OnCollect registers a hook run at the start of every render — the
// place to refresh gauges from live state (job tables, ring views,
// cache stats) without instrumenting every mutation site.
func (r *Registry) OnCollect(fn func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.collects = append(r.collects, fn)
}

// register adds a family or panics on a duplicate or invalid name —
// a duplicate registration is a programming error (two subsystems
// claiming one name), not a runtime condition.
func (r *Registry) register(f *family) {
	if !validName(f.name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", f.name))
	}
	for _, l := range f.labels {
		if !validName(l) {
			panic(fmt.Sprintf("metrics: invalid label name %q on %s", l, f.name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.families[f.name]; dup {
		panic(fmt.Sprintf("metrics: duplicate registration of %q", f.name))
	}
	r.families[f.name] = f
	r.names = append(r.names, f.name)
}

func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// ── counters ───────────────────────────────────────────────────────

// funcMetric renders a value read from a callback at collect time —
// the bridge for pre-existing atomic counters and computed levels.
type funcMetric struct{ fn func() float64 }

func (m funcMetric) write(b *strings.Builder, name, labelStr string) {
	b.WriteString(name)
	b.WriteString(labelStr)
	b.WriteByte(' ')
	b.WriteString(formatFloat(m.fn()))
	b.WriteByte('\n')
}

// CounterFunc registers a counter whose value is read from fn at
// scrape time. fn must be monotonic (it typically loads an existing
// atomic counter).
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	f := newFamily(name, help, KindCounter, nil)
	r.register(f)
	f.kids[""] = funcMetric{fn: fn}
	f.keys = append(f.keys, "")
}

// ── gauges ─────────────────────────────────────────────────────────

// Gauge is an instantaneous level that can go up and down.
type Gauge struct{ bits atomic.Uint64 }

// Set stores the gauge's value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

func (g *Gauge) write(b *strings.Builder, name, labelStr string) {
	b.WriteString(name)
	b.WriteString(labelStr)
	b.WriteByte(' ')
	b.WriteString(formatFloat(g.Value()))
	b.WriteByte('\n')
}

// GaugeFunc registers a gauge whose value is read from fn at scrape
// time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := newFamily(name, help, KindGauge, nil)
	r.register(f)
	f.kids[""] = funcMetric{fn: fn}
	f.keys = append(f.keys, "")
}

// GaugeVec is a gauge family with label names.
type GaugeVec struct{ f *family }

// GaugeVec registers a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	f := newFamily(name, help, KindGauge, labels)
	r.register(f)
	return &GaugeVec{f: f}
}

// With returns the gauge for the given label values, creating it on
// first use.
func (v *GaugeVec) With(values ...string) *Gauge {
	return v.f.childFor(values, func() child { return &Gauge{} }).(*Gauge)
}

// Reset drops every child series — for OnCollect hooks that rebuild a
// family from live state whose members come and go (per-kind job
// gauges, per-node levels).
func (v *GaugeVec) Reset() {
	v.f.mu.Lock()
	defer v.f.mu.Unlock()
	v.f.kids = make(map[string]child)
	v.f.keys = nil
}

// ── histograms ─────────────────────────────────────────────────────

// Histogram counts observations into fixed buckets, Prometheus
// histogram semantics: le-labeled cumulative bucket counts plus _sum
// and _count. Observe is lock-free.
type Histogram struct {
	upper  []float64 // sorted upper bounds, +Inf excluded
	counts []atomic.Uint64
	inf    atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
	count  atomic.Uint64
}

func newHistogram(buckets []float64) *Histogram {
	if len(buckets) == 0 {
		buckets = DefLatencyBuckets
	}
	upper := make([]float64, len(buckets))
	copy(upper, buckets)
	sort.Float64s(upper)
	for i := 1; i < len(upper); i++ {
		if upper[i] == upper[i-1] {
			panic(fmt.Sprintf("metrics: duplicate histogram bucket %v", upper[i]))
		}
	}
	if math.IsInf(upper[len(upper)-1], +1) {
		upper = upper[:len(upper)-1] // +Inf is implicit
	}
	return &Histogram{upper: upper, counts: make([]atomic.Uint64, len(upper))}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// First bucket whose upper bound admits v (le semantics).
	i := sort.SearchFloat64s(h.upper, v)
	if i < len(h.upper) {
		h.counts[i].Add(1)
	} else {
		h.inf.Add(1)
	}
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Bucket is one cumulative histogram bucket in a snapshot.
type Bucket struct {
	// Upper is the bucket's inclusive upper bound; math.Inf(1) for the
	// +Inf bucket.
	Upper float64
	// Count is the cumulative observation count at this bound.
	Count uint64
}

// HistogramSnapshot is a point-in-time view of a histogram.
type HistogramSnapshot struct {
	Buckets []Bucket // cumulative, ending with the +Inf bucket
	Sum     float64
	Count   uint64
}

// Snapshot returns the histogram's cumulative buckets, sum and count.
func (h *Histogram) Snapshot() HistogramSnapshot {
	out := HistogramSnapshot{Buckets: make([]Bucket, 0, len(h.upper)+1)}
	var cum uint64
	for i, ub := range h.upper {
		cum += h.counts[i].Load()
		out.Buckets = append(out.Buckets, Bucket{Upper: ub, Count: cum})
	}
	cum += h.inf.Load()
	out.Buckets = append(out.Buckets, Bucket{Upper: math.Inf(1), Count: cum})
	out.Sum = math.Float64frombits(h.sum.Load())
	out.Count = h.count.Load()
	return out
}

func (h *Histogram) write(b *strings.Builder, name, labelStr string) {
	snap := h.Snapshot()
	for _, bk := range snap.Buckets {
		le := "+Inf"
		if !math.IsInf(bk.Upper, +1) {
			le = formatFloat(bk.Upper)
		}
		b.WriteString(name)
		b.WriteString("_bucket")
		b.WriteString(mergeLabel(labelStr, "le", le))
		b.WriteByte(' ')
		b.WriteString(strconv.FormatUint(bk.Count, 10))
		b.WriteByte('\n')
	}
	b.WriteString(name)
	b.WriteString("_sum")
	b.WriteString(labelStr)
	b.WriteByte(' ')
	b.WriteString(formatFloat(snap.Sum))
	b.WriteByte('\n')
	b.WriteString(name)
	b.WriteString("_count")
	b.WriteString(labelStr)
	b.WriteByte(' ')
	b.WriteString(strconv.FormatUint(snap.Count, 10))
	b.WriteByte('\n')
}

// Histogram registers an unlabeled histogram with the given bucket
// upper bounds (nil selects DefLatencyBuckets; +Inf is implicit).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	f := newFamily(name, help, KindHistogram, nil)
	r.register(f)
	h := newHistogram(buckets)
	f.kids[""] = h
	f.keys = append(f.keys, "")
	return h
}

// HistogramVec is a histogram family with label names; every child
// shares the same buckets.
type HistogramVec struct {
	f       *family
	buckets []float64
}

// HistogramVec registers a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	f := newFamily(name, help, KindHistogram, labels)
	r.register(f)
	return &HistogramVec{f: f, buckets: buckets}
}

// With returns the histogram for the given label values, creating it
// on first use.
func (v *HistogramVec) With(values ...string) *Histogram {
	return v.f.childFor(values, func() child { return newHistogram(v.buckets) }).(*Histogram)
}

// ── family internals ───────────────────────────────────────────────

func newFamily(name, help string, kind Kind, labels []string) *family {
	return &family{
		name:   name,
		help:   help,
		kind:   kind,
		labels: append([]string(nil), labels...),
		kids:   make(map[string]child),
	}
}

// childFor returns (creating if needed) the child for a label-value
// tuple. The key joins escaped values, so values containing the
// separator cannot collide.
func (f *family) childFor(values []string, mk func() child) child {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("metrics: %s wants %d label value(s), got %d",
			f.name, len(f.labels), len(values)))
	}
	key := labelString(f.labels, values)
	f.mu.Lock()
	defer f.mu.Unlock()
	c, ok := f.kids[key]
	if !ok {
		c = mk()
		f.kids[key] = c
		f.keys = append(f.keys, key)
	}
	return c
}

// labelString renders {k="v",...}; empty for no labels.
func labelString(names, values []string) string {
	if len(names) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(values[i]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// mergeLabel appends one extra label pair to a pre-rendered label
// fragment — how the histogram `le` label joins the family's labels.
func mergeLabel(labelStr, name, value string) string {
	pair := name + `="` + escapeLabelValue(value) + `"`
	if labelStr == "" {
		return "{" + pair + "}"
	}
	return labelStr[:len(labelStr)-1] + "," + pair + "}"
}

func escapeLabelValue(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	// Byte-wise: the escaped characters are ASCII, and any other byte
	// (invalid UTF-8 included) must pass through untouched.
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(c)
		}
	}
	return b.String()
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// formatFloat renders a float the way Prometheus expects: shortest
// representation, integers without an exponent.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, +1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// ── rendering ──────────────────────────────────────────────────────

// Render returns the registry in the Prometheus text exposition
// format, families in registration order, children in first-use
// order.
func (r *Registry) Render() string {
	r.mu.Lock()
	collects := append([]func(){}, r.collects...)
	names := append([]string{}, r.names...)
	fams := make([]*family, 0, len(names))
	for _, n := range names {
		fams = append(fams, r.families[n])
	}
	r.mu.Unlock()
	for _, fn := range collects {
		fn()
	}
	var b strings.Builder
	for _, f := range fams {
		f.mu.Lock()
		keys := append([]string{}, f.keys...)
		kids := make([]child, 0, len(keys))
		for _, k := range keys {
			kids = append(kids, f.kids[k])
		}
		f.mu.Unlock()
		if len(kids) == 0 {
			continue
		}
		b.WriteString("# HELP ")
		b.WriteString(f.name)
		b.WriteByte(' ')
		b.WriteString(escapeHelp(f.help))
		b.WriteByte('\n')
		b.WriteString("# TYPE ")
		b.WriteString(f.name)
		b.WriteByte(' ')
		b.WriteString(string(f.kind))
		b.WriteByte('\n')
		for i, c := range kids {
			c.write(&b, f.name, keys[i])
		}
	}
	return b.String()
}

// ServeHTTP renders the registry — mount it at GET /metrics.
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write([]byte(r.Render()))
}
