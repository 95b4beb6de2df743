package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// tailLadder is the set of percentiles a tail may be reported at. The
// tail is the highest rung with at least tailBeyond samples beyond it:
// p90 for the discover workloads (hundreds to a few thousand samples a
// run) and p99.99 for ingest's writes (hundreds of thousands, so a
// stall that catches the writer once per fold reaches the tail). The
// rungs are a decade or more apart so that no plausible change in
// throughput between two commits moves a workload to another rung,
// which would change what the metric measures.
var tailLadder = []float64{90, 99.9, 99.99}

// tailBeyond is how many samples must lie beyond the reported tail.
const tailBeyond = 10

// samples is one latency distribution, in milliseconds.
type samples []float64

func (s *samples) add(d time.Duration) { *s = append(*s, ms(d)) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// sorted returns an ascending copy.
func (s samples) sorted() []float64 {
	out := append([]float64(nil), s...)
	sort.Float64s(out)
	return out
}

// rank is the 1-based nearest rank of the q-quantile of n samples. The
// tolerance keeps products like 0.999 × 10000 from rounding up a rank.
func rank(q float64, n int) int {
	return int(math.Ceil(q*float64(n) - 1e-9))
}

// quantile is the nearest-rank q-quantile (q in [0,1]) of an ascending
// slice, 0 when it is empty. Nearest rank, unlike the interpolation of
// internal/stats.Percentile, returns a sample, so the tail rule can
// count the samples beyond it.
func quantile(asc []float64, q float64) float64 {
	if len(asc) == 0 {
		return 0
	}
	return asc[min(max(rank(q, len(asc))-1, 0), len(asc)-1)]
}

func (s samples) p50() float64 { return quantile(s.sorted(), 0.5) }

// tailPct returns the highest ladder percentile with at least
// tailBeyond of n samples strictly beyond its rank, or 0 when n is too
// small for any rung.
func tailPct(n int) float64 {
	best := 0.0
	for _, p := range tailLadder {
		if n-rank(p/100, n) >= tailBeyond {
			best = p
		}
	}
	return best
}

// summary is a latency distribution reduced to what the report prints:
// the median and the tail with its percentile and sample count.
type summary struct {
	N       int
	P50     float64
	TailPct float64
	Tail    float64
}

func (s samples) summary() summary {
	asc := s.sorted()
	out := summary{N: len(asc), P50: quantile(asc, 0.5), TailPct: tailPct(len(asc))}
	if out.TailPct > 0 {
		out.Tail = quantile(asc, out.TailPct/100)
	} else {
		out.Tail = quantile(asc, 1)
	}
	return out
}

// tailLabel names the tail's percentile and the sample count.
func (m summary) tailLabel() string {
	if m.TailPct == 0 {
		return fmt.Sprintf("max, n=%d: too few samples for p%g", m.N, tailLadder[0])
	}
	return fmt.Sprintf("p%g, n=%d", m.TailPct, m.N)
}

func (m summary) String() string {
	return fmt.Sprintf("p50 %.3f ms, tail %.3f ms (%s)", m.P50, m.Tail, m.tailLabel())
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// median returns the median of xs (the mean of the two middle values
// for an even count), 0 when xs is empty.
func median(xs []float64) float64 {
	asc := append([]float64(nil), xs...)
	sort.Float64s(asc)
	n := len(asc)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return asc[n/2]
	default:
		return (asc[n/2-1] + asc[n/2]) / 2
	}
}

// rate is n completions per second over d.
func rate(n int, d time.Duration) float64 { return ratio(float64(n), d.Seconds()) }
