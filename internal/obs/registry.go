// Package obs is a dependency-free observability kit: a metrics
// registry (atomic counters, gauges, and fixed-log-bucket histograms)
// with Prometheus text-format exposition, and a lightweight span
// tracer for request pipelines.
//
// Every instrument is safe for lock-free hot-path use: counters and
// gauges are single atomics, histogram observation is one atomic add
// per bucket plus a CAS loop for the float sum. Registration takes a
// mutex but is expected at wiring time, not per request; label lookup
// on a Vec takes an RWMutex read lock and callers on genuinely hot
// paths should resolve children once with With and hold the pointer.
//
// All instruments and the registry itself are nil-safe: methods on a
// nil *Registry return nil instruments, and methods on nil instruments
// are no-ops. Instrumented code can therefore thread a possibly-nil
// registry without guarding every call site, which keeps the
// "observability off" configuration a true zero-cost path.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// MetricType enumerates the exposition families obs can emit.
type MetricType string

const (
	TypeCounter   MetricType = "counter"
	TypeGauge     MetricType = "gauge"
	TypeHistogram MetricType = "histogram"
)

// Registry holds named metric families and renders them in Prometheus
// text exposition format. The zero value is not usable; call
// NewRegistry. A nil *Registry is a valid "observability off" registry
// whose constructors return nil instruments.
type Registry struct {
	mu    sync.RWMutex
	fams  map[string]*family
	order []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// family is one exposition family: a name, type, help string, label
// schema, and a set of children keyed by their label values.
type family struct {
	name   string
	help   string
	typ    MetricType
	labels []string  // label names, fixed at first registration
	bounds []float64 // histogram upper bounds (exclusive of +Inf)

	mu     sync.RWMutex
	kids   map[string]any // joined label values -> *Counter/*Gauge/*Histogram
	korder []string
	funcs  []funcSample
}

// funcSample is a callback-backed sample: its value is read at
// exposition time from live program state (queue depths, lag, log
// length) instead of being pushed on every change.
type funcSample struct {
	values []string
	fn     func() float64
}

// Counter is a monotonically increasing uint64.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 that can go up and down.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add increments by d via a CAS loop.
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket histogram. Buckets are chosen at
// registration (see DurationBuckets) and never change, so observation
// is lock-free: one atomic add on the bucket, one on the count, and a
// CAS loop folding the value into the sum.
type Histogram struct {
	bounds  []float64 // ascending upper bounds; +Inf implicit
	counts  []atomic.Uint64
	sumBits atomic.Uint64
	count   atomic.Uint64
}

// Observe records v.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Count returns the total number of observations (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Quantile estimates the q-th quantile (0..1) from the bucket counts
// by linear interpolation within the winning bucket. Estimates are as
// coarse as the bucket layout; use for dashboards, not SLO math.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var seen float64
	for i := range h.counts {
		c := float64(h.counts[i].Load())
		if seen+c >= rank {
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			if i == len(h.bounds) { // +Inf bucket: report its lower bound
				return lo
			}
			hi := h.bounds[i]
			if c == 0 {
				return hi
			}
			return lo + (hi-lo)*(rank-seen)/c
		}
		seen += c
	}
	return h.bounds[len(h.bounds)-1]
}

// CounterVec is a counter family with labels.
type CounterVec struct{ f *family }

// GaugeVec is a gauge family with labels.
type GaugeVec struct{ f *family }

// HistogramVec is a histogram family with labels.
type HistogramVec struct{ f *family }

// DurationBuckets returns the standard log-spaced latency layout:
// factor-2 upper bounds from 100µs to ~210s (22 buckets + +Inf),
// expressed in seconds.
func DurationBuckets() []float64 {
	b := make([]float64, 22)
	v := 1e-4
	for i := range b {
		b[i] = v
		v *= 2
	}
	return b
}

// registerFamily returns the family for name, creating it if needed,
// and panics on a type/label-schema conflict — re-registering the
// same name with a different shape is a programming error.
func (r *Registry) registerFamily(name, help string, typ MetricType, labels []string, bounds []float64) *family {
	if !validName(name) {
		panic("obs: invalid metric name " + strconv.Quote(name))
	}
	for _, l := range labels {
		if !validName(l) {
			panic("obs: invalid label name " + strconv.Quote(l))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.fams[name]; ok {
		if f.typ != typ || !equalStrings(f.labels, labels) {
			panic(fmt.Sprintf("obs: conflicting registration for %s (%s%v vs %s%v)",
				name, f.typ, f.labels, typ, labels))
		}
		return f
	}
	f := &family{
		name:   name,
		help:   help,
		typ:    typ,
		labels: append([]string(nil), labels...),
		bounds: bounds,
		kids:   make(map[string]any),
	}
	r.fams[name] = f
	r.order = append(r.order, name)
	return f
}

// Counter registers (or finds) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	f := r.registerFamily(name, help, TypeCounter, nil, nil)
	return f.counterChild(nil)
}

// CounterVec registers a counter family with the given label names.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	if r == nil {
		return nil
	}
	return &CounterVec{f: r.registerFamily(name, help, TypeCounter, labels, nil)}
}

// With resolves the child for the given label values, creating it on
// first use. Hot paths should call once and keep the pointer.
func (v *CounterVec) With(values ...string) *Counter {
	if v == nil {
		return nil
	}
	return v.f.counterChild(values)
}

// Each visits every materialized child with its label values.
func (v *CounterVec) Each(fn func(values []string, count uint64)) {
	if v == nil {
		return
	}
	v.f.mu.RLock()
	defer v.f.mu.RUnlock()
	for _, k := range v.f.korder {
		c := v.f.kids[k].(*Counter)
		fn(splitKey(k), c.Value())
	}
}

// Gauge registers (or finds) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	f := r.registerFamily(name, help, TypeGauge, nil, nil)
	return f.gaugeChild(nil)
}

// GaugeVec registers a gauge family with the given label names.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	if r == nil {
		return nil
	}
	return &GaugeVec{f: r.registerFamily(name, help, TypeGauge, labels, nil)}
}

// With resolves the gauge child for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	if v == nil {
		return nil
	}
	return v.f.gaugeChild(values)
}

// GaugeFunc registers a callback-backed gauge sample. labelPairs
// alternates name, value (e.g. "role", "follower"); all registrations
// under one name must use the same label names in the same order. The
// callback runs at exposition time and must be safe to call
// concurrently with the rest of the program.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labelPairs ...string) {
	if r == nil {
		return
	}
	r.addFunc(name, help, TypeGauge, fn, labelPairs)
}

// CounterFunc is GaugeFunc for values that are cumulative counts kept
// elsewhere (existing atomics): the family is exposed as a counter but
// read through the callback at scrape time.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labelPairs ...string) {
	if r == nil {
		return
	}
	r.addFunc(name, help, TypeCounter, fn, labelPairs)
}

func (r *Registry) addFunc(name, help string, typ MetricType, fn func() float64, labelPairs []string) {
	if len(labelPairs)%2 != 0 {
		panic("obs: labelPairs must alternate name, value")
	}
	names := make([]string, 0, len(labelPairs)/2)
	values := make([]string, 0, len(labelPairs)/2)
	for i := 0; i < len(labelPairs); i += 2 {
		names = append(names, labelPairs[i])
		values = append(values, labelPairs[i+1])
	}
	f := r.registerFamily(name, help, typ, names, nil)
	f.mu.Lock()
	defer f.mu.Unlock()
	f.funcs = append(f.funcs, funcSample{values: values, fn: fn})
}

// Histogram registers (or finds) an unlabeled histogram with the
// given ascending bucket upper bounds (nil takes DurationBuckets).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	if bounds == nil {
		bounds = DurationBuckets()
	}
	f := r.registerFamily(name, help, TypeHistogram, nil, bounds)
	return f.histogramChild(nil)
}

// HistogramVec registers a histogram family with labels.
func (r *Registry) HistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	if r == nil {
		return nil
	}
	if bounds == nil {
		bounds = DurationBuckets()
	}
	return &HistogramVec{f: r.registerFamily(name, help, TypeHistogram, labels, bounds)}
}

// With resolves the histogram child for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	if v == nil {
		return nil
	}
	return v.f.histogramChild(values)
}

// --- family child management -------------------------------------------

const keySep = "\x1f"

func joinKey(values []string) string { return strings.Join(values, keySep) }
func splitKey(k string) []string {
	if k == "" {
		return nil
	}
	return strings.Split(k, keySep)
}

func (f *family) checkValues(values []string) {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: %s expects %d label values, got %d", f.name, len(f.labels), len(values)))
	}
}

func (f *family) child(values []string, mk func() any) any {
	f.checkValues(values)
	k := joinKey(values)
	f.mu.RLock()
	c, ok := f.kids[k]
	f.mu.RUnlock()
	if ok {
		return c
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.kids[k]; ok {
		return c
	}
	c = mk()
	f.kids[k] = c
	f.korder = append(f.korder, k)
	return c
}

func (f *family) counterChild(values []string) *Counter {
	return f.child(values, func() any { return new(Counter) }).(*Counter)
}

func (f *family) gaugeChild(values []string) *Gauge {
	return f.child(values, func() any { return new(Gauge) }).(*Gauge)
}

func (f *family) histogramChild(values []string) *Histogram {
	return f.child(values, func() any {
		return &Histogram{bounds: f.bounds, counts: make([]atomic.Uint64, len(f.bounds)+1)}
	}).(*Histogram)
}

// --- exposition ---------------------------------------------------------

// WritePrometheus renders every family in Prometheus text exposition
// format (version 0.0.4), in registration order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	fams := make([]*family, 0, len(r.order))
	for _, name := range r.order {
		fams = append(fams, r.fams[name])
	}
	r.mu.RUnlock()

	var b strings.Builder
	for _, f := range fams {
		f.write(&b)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func (f *family) write(b *strings.Builder) {
	b.WriteString("# HELP ")
	b.WriteString(f.name)
	b.WriteByte(' ')
	b.WriteString(escapeHelp(f.help))
	b.WriteByte('\n')
	b.WriteString("# TYPE ")
	b.WriteString(f.name)
	b.WriteByte(' ')
	b.WriteString(string(f.typ))
	b.WriteByte('\n')

	f.mu.RLock()
	defer f.mu.RUnlock()
	for _, k := range f.korder {
		values := splitKey(k)
		switch c := f.kids[k].(type) {
		case *Counter:
			writeSample(b, f.name, f.labels, values, "", "", formatUint(c.Value()))
		case *Gauge:
			writeSample(b, f.name, f.labels, values, "", "", formatFloat(c.Value()))
		case *Histogram:
			writeHistogram(b, f.name, f.labels, values, c)
		}
	}
	for _, fs := range f.funcs {
		writeSample(b, f.name, f.labels, fs.values, "", "", formatFloat(fs.fn()))
	}
}

func writeHistogram(b *strings.Builder, name string, labels, values []string, h *Histogram) {
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		le := "+Inf"
		if i < len(h.bounds) {
			le = formatFloat(h.bounds[i])
		}
		writeSample(b, name+"_bucket", labels, values, "le", le, formatUint(cum))
	}
	writeSample(b, name+"_sum", labels, values, "", "", formatFloat(h.Sum()))
	// _count repeats the +Inf bucket rather than reading h.count again:
	// an Observe between the two reads would make the scrape report
	// more observations than its buckets hold.
	writeSample(b, name+"_count", labels, values, "", "", formatUint(cum))
}

// writeSample emits one exposition line. extraK/extraV append one
// trailing label (the histogram "le") after the family labels.
func writeSample(b *strings.Builder, name string, labels, values []string, extraK, extraV, val string) {
	b.WriteString(name)
	if len(labels) > 0 || extraK != "" {
		b.WriteByte('{')
		for i, l := range labels {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(l)
			b.WriteString(`="`)
			b.WriteString(escapeLabel(values[i]))
			b.WriteByte('"')
		}
		if extraK != "" {
			if len(labels) > 0 {
				b.WriteByte(',')
			}
			b.WriteString(extraK)
			b.WriteString(`="`)
			b.WriteString(escapeLabel(extraV))
			b.WriteByte('"')
		}
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(val)
	b.WriteByte('\n')
}

func formatUint(v uint64) string { return strconv.FormatUint(v, 10) }

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
