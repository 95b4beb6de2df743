package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestConcurrentRecording hammers every instrument kind from many
// goroutines; run under -race this is the lock-freedom proof, and the
// final values prove no increment was lost.
func TestConcurrentRecording(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_ops_total", "ops")
	g := r.Gauge("test_depth", "depth")
	h := r.Histogram("test_latency_seconds", "latency", nil)
	cv := r.CounterVec("test_by_kind_total", "by kind", "kind")
	hv := r.HistogramVec("test_lat_by_route_seconds", "by route", nil, "route")

	const workers, perWorker = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			kind := []string{"a", "b"}[w%2]
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i%100) / 1000)
				cv.With(kind).Inc()
				hv.With("discover").Observe(0.001)
			}
		}(w)
	}
	wg.Wait()

	if got := c.Value(); got != workers*perWorker {
		t.Errorf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := g.Value(); got != workers*perWorker {
		t.Errorf("gauge = %v, want %d", got, workers*perWorker)
	}
	if got := h.Count(); got != workers*perWorker {
		t.Errorf("histogram count = %d, want %d", got, workers*perWorker)
	}
	var byKind uint64
	cv.Each(func(values []string, n uint64) { byKind += n })
	if byKind != workers*perWorker {
		t.Errorf("counter vec total = %d, want %d", byKind, workers*perWorker)
	}
	// The histogram sum is accumulated by CAS; it must equal the exact
	// per-worker arithmetic series sum.
	want := float64(workers) * func() float64 {
		s := 0.0
		for i := 0; i < perWorker; i++ {
			s += float64(i%100) / 1000
		}
		return s
	}()
	if got := h.Sum(); math.Abs(got-want) > 1e-6 {
		t.Errorf("histogram sum = %v, want %v", got, want)
	}
}

// TestExpositionDuringObservation scrapes a histogram while goroutines
// observe it: every scrape must parse, so its _count must equal the
// +Inf bucket it reports alongside.
func TestExpositionDuringObservation(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("obs_latency_seconds", "latency", nil)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					h.Observe(0.001)
				}
			}
		}()
	}
	defer func() { close(stop); wg.Wait() }()
	for i := 0; i < 2000; i++ {
		var b strings.Builder
		if err := r.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		if _, err := ParseExposition(strings.NewReader(b.String())); err != nil {
			t.Fatalf("scrape %d: %v", i, err)
		}
	}
}

// TestExpositionRoundTrip renders a registry exercising every
// instrument kind and label shape, then re-parses it with the strict
// parser: every family must be declared, well-formed, and carry the
// values that were recorded.
func TestExpositionRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("rt_ops_total", "total ops").Add(7)
	r.Gauge("rt_log_len", "resident log length").Set(42.5)
	h := r.Histogram("rt_apply_seconds", "apply latency", nil)
	for _, v := range []float64{0.0001, 0.002, 0.03, 1.5, 500} {
		h.Observe(v)
	}
	cv := r.CounterVec("rt_requests_total", "requests", "route", "code")
	cv.With("discover", "200").Add(3)
	cv.With(`we"ird\route`, "500").Inc() // label escaping must survive the round trip
	hv := r.HistogramVec("rt_route_seconds", "per-route latency", nil, "route")
	hv.With("discover").Observe(0.004)
	r.GaugeFunc("rt_lag_epochs", "lag", func() float64 { return 12 }, "role", "follower")
	r.CounterFunc("rt_repairs_total", "repairs", func() float64 { return 9 }, "kind", "insert")

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	fams, err := ParseExposition(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("parse back own exposition: %v\n%s", err, b.String())
	}
	byName := map[string]Family{}
	for _, f := range fams {
		byName[f.Name] = f
	}
	wantType := map[string]MetricType{
		"rt_ops_total":      TypeCounter,
		"rt_log_len":        TypeGauge,
		"rt_apply_seconds":  TypeHistogram,
		"rt_requests_total": TypeCounter,
		"rt_route_seconds":  TypeHistogram,
		"rt_lag_epochs":     TypeGauge,
		"rt_repairs_total":  TypeCounter,
	}
	for name, typ := range wantType {
		f, ok := byName[name]
		if !ok {
			t.Fatalf("family %s missing from exposition", name)
		}
		if f.Type != typ {
			t.Errorf("family %s type = %s, want %s", name, f.Type, typ)
		}
		if len(f.Samples) == 0 {
			t.Errorf("family %s has no samples", name)
		}
	}
	// Spot-check values and labels surviving the round trip.
	for _, s := range byName["rt_requests_total"].Samples {
		if s.Labels["route"] == `we"ird\route` && s.Value != 1 {
			t.Errorf("escaped-label counter = %v, want 1", s.Value)
		}
	}
	for _, s := range byName["rt_lag_epochs"].Samples {
		if s.Labels["role"] != "follower" || s.Value != 12 {
			t.Errorf("gauge func sample = %+v", s)
		}
	}
	found := false
	for _, s := range byName["rt_apply_seconds"].Samples {
		if s.Name == "rt_apply_seconds_count" {
			found = true
			if s.Value != 5 {
				t.Errorf("apply count = %v, want 5", s.Value)
			}
		}
	}
	if !found {
		t.Error("rt_apply_seconds_count missing")
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	bad := []string{
		"orphan_metric 1\n",                // sample with no TYPE
		"# TYPE x counter\nx -1\n",         // negative counter
		"# TYPE h histogram\nh_bucket 1\n", // bucket without le
		"# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\n", // non-cumulative
		"# TYPE h histogram\nh_bucket{le=\"1\"} 5\n",                          // missing +Inf
		"# TYPE x counter\nx{a=b} 1\n",                                        // unquoted label
		"# TYPE x wat\nx 1\n",                                                 // unknown type
	}
	for _, in := range bad {
		if _, err := ParseExposition(strings.NewReader(in)); err == nil {
			t.Errorf("ParseExposition accepted malformed input %q", in)
		}
	}
}

func TestHistogramQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("q_seconds", "q", []float64{0.001, 0.01, 0.1, 1})
	for i := 0; i < 90; i++ {
		h.Observe(0.005) // lands in (0.001, 0.01]
	}
	for i := 0; i < 10; i++ {
		h.Observe(0.5) // lands in (0.1, 1]
	}
	if p50 := h.Quantile(0.5); p50 < 0.001 || p50 > 0.01 {
		t.Errorf("p50 = %v, want within (0.001, 0.01]", p50)
	}
	if p99 := h.Quantile(0.99); p99 < 0.1 || p99 > 1 {
		t.Errorf("p99 = %v, want within (0.1, 1]", p99)
	}
}

// TestNilSafety: a nil registry and nil instruments must be silent
// no-ops — this is the contract that makes "observability off" free.
func TestNilSafety(t *testing.T) {
	var r *Registry
	r.Counter("x_total", "x").Inc()
	r.Gauge("x", "x").Set(1)
	r.Histogram("x_seconds", "x", nil).Observe(1)
	r.CounterVec("xv_total", "x", "l").With("a").Add(2)
	r.GaugeVec("xg", "x", "l").With("a").Add(1)
	r.HistogramVec("xh_seconds", "x", nil, "l").With("a").Observe(1)
	r.GaugeFunc("xf", "x", func() float64 { return 1 })
	r.CounterFunc("xcf_total", "x", func() float64 { return 1 })
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	var tr *Trace
	tr.Lap("resolve")
	if tr.Spans() != nil || tr.Header() != "" || tr.Total() != 0 {
		t.Error("nil trace must record nothing")
	}
}

func TestTracePartition(t *testing.T) {
	tr := NewTrace()
	time.Sleep(2 * time.Millisecond)
	tr.Lap("resolve")
	time.Sleep(1 * time.Millisecond)
	tr.Lap("search")
	spans := tr.Spans()
	if len(spans) != 2 || spans[0].Stage != "resolve" || spans[1].Stage != "search" {
		t.Fatalf("spans = %+v", spans)
	}
	var sum time.Duration
	for _, s := range spans {
		if s.Dur <= 0 {
			t.Errorf("span %s has non-positive duration %v", s.Stage, s.Dur)
		}
		sum += s.Dur
	}
	if sum != tr.Total() {
		t.Errorf("span sum %v != total %v — laps must partition the trace", sum, tr.Total())
	}
	if h := tr.Header(); !strings.Contains(h, "resolve=") || !strings.Contains(h, "search=") {
		t.Errorf("header = %q", h)
	}
}

func TestConflictingRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "c")
	defer func() {
		if recover() == nil {
			t.Error("re-registering c_total as a gauge should panic")
		}
	}()
	r.Gauge("c_total", "c")
}
