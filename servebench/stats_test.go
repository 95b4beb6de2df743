package main

import (
	"testing"
	"time"
)

func TestTailPercentileRule(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0},
		{99, 0},    // p90 would leave 9 beyond
		{100, 90},  // exactly 10 beyond p90
		{999, 90},  // p99 is not a rung
		{9999, 90}, // p99.9 would leave 9 beyond
		{10000, 99.9},
		{99999, 99.9}, // p99.99 would leave 9 beyond
		{100000, 99.99},
		{400000, 99.99}, // the ladder tops out
	} {
		if got := tailPct(tc.n); got != tc.want {
			t.Errorf("tailPct(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}

	// 1..1000 ms: p90 is the 900th value, with 100 beyond it.
	var s samples
	for i := 1; i <= 1000; i++ {
		s = append(s, float64(i))
	}
	m := s.summary()
	if m.N != 1000 || m.P50 != 500 || m.TailPct != 90 || m.Tail != 900 {
		t.Errorf("summary of 1..1000 = %+v, want p50 500, p90 900", m)
	}
	// Too few samples for any rung: the tail is the maximum.
	m = samples{3, 1, 2}.summary()
	if m.TailPct != 0 || m.Tail != 3 || m.P50 != 2 {
		t.Errorf("summary of {3,1,2} = %+v, want p50 2, max 3", m)
	}
	// The reported value must have at least tailBeyond samples beyond it.
	for _, n := range []int{100, 101, 555, 9999, 10000, 12345, 100000, 123457} {
		var s samples
		for i := 0; i < n; i++ {
			s = append(s, float64(i))
		}
		m := s.summary()
		beyond := 0
		for _, v := range s {
			if v > m.Tail {
				beyond++
			}
		}
		if beyond < tailBeyond {
			t.Errorf("n=%d: p%g leaves %d samples beyond it", n, m.TailPct, beyond)
		}
	}
}

func TestRate(t *testing.T) {
	if got := rate(250, 2500*time.Millisecond); got != 100 {
		t.Errorf("250 in 2.5 s reads %v/s", got)
	}
	if got := rate(0, 0); got != 0 {
		t.Errorf("an empty phase reads %v/s", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 1..4 = %v", got)
	}
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median of {5,1,3} = %v", got)
	}
}
