package main

import (
	"testing"
	"time"
)

func TestRankOf(t *testing.T) {
	cases := []struct{ p, n, want int }{
		{50000, 1, 0},
		{50000, 2, 0},
		{50000, 3, 1},
		{50000, 100, 49},
		{99000, 100, 98},
		{99000, 1000, 989},
		{99900, 1000, 998},
		{99999, 10, 9},
	}
	for _, c := range cases {
		if got := rankOf(c.p, c.n); got != c.want {
			t.Errorf("rankOf(%d, %d) = %d, want %d", c.p, c.n, got, c.want)
		}
	}
}

func TestTailPercentile(t *testing.T) {
	cases := []struct {
		n     int
		want  string
		valid bool
	}{
		{19, "", false},   // the median leaves 9 beyond it
		{20, "p50", true}, // the median leaves 10
		{99, "p50", true}, // p90 leaves 9
		{100, "p90", true},
		{999, "p90", true}, // p99 leaves 9
		{1000, "p99", true},
		{10000, "p99.9", true},
		{100000, "p99.99", true},
		{1000000, "p99.999", true},
	}
	for _, c := range cases {
		p, ok := tailPercentile(c.n)
		if ok != c.valid || (ok && percentileLabel(p) != c.want) {
			t.Errorf("tailPercentile(%d) = %s,%v; want %s,%v", c.n, percentileLabel(p), ok, c.want, c.valid)
		}
	}
}

func TestSummarize(t *testing.T) {
	// 1000 samples of 1..1000 µs, shuffled order.
	var s []time.Duration
	for i := 1000; i >= 1; i-- {
		s = append(s, time.Duration(i)*time.Microsecond)
	}
	got := summarize(s)
	if got.N != 1000 || got.P50 != 500 || got.P90 != 900 || got.P99 != 990 {
		t.Fatalf("summarize = %+v, want n=1000 p50=500 p90=900 p99=990", got)
	}
	if got.TailLabel != "p99" || got.Tail != 990 {
		t.Fatalf("tail = %s %v, want p99 990", got.TailLabel, got.Tail)
	}
	if e := summarize(nil); e.N != 0 || e.TailLabel != "" {
		t.Fatalf("summarize(nil) = %+v", e)
	}
}

func TestMedianAndRatio(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median = %v", m)
	}
	if r := ratio(1, 0); r != 0 {
		t.Errorf("ratio(1,0) = %v", r)
	}
	if r := ratio(3, 4); r != 0.75 {
		t.Errorf("ratio(3,4) = %v", r)
	}
}

func TestCalmMedian(t *testing.T) {
	vals := []float64{10, 11, 50, 12, 40, 13}
	steals := []float64{1, 2, 30, 2, 20, 9}
	// The 2nd calmest of six samples has steal 2: the samples at 1, 2
	// and 2 are the calm ones.
	if m := calmMedian(vals, steals); m != 11 {
		t.Errorf("calmMedian = %v, want 11", m)
	}
	// With no steal at all every sample counts.
	if m := calmMedian(vals, make([]float64, len(vals))); m != 12.5 {
		t.Errorf("calmMedian without steal = %v, want 12.5", m)
	}
	// Three samples: only the calmest.
	if m := calmMedian([]float64{5, 7, 6}, []float64{4, 0, 3}); m != 7 {
		t.Errorf("calmMedian of three = %v, want 7", m)
	}
}
