package main

import (
	"fmt"
	"sort"
	"time"
)

// tailPercentiles are the percentiles, in units of 0.001%, a timing's
// tail is reported at: the highest one with at least minBeyond samples
// above it is chosen.
var tailPercentiles = []int{50000, 90000, 99000, 99900, 99990, 99999}

// minBeyond is how many samples must lie above a reported percentile
// for it to count as measured rather than as one unlucky sample.
const minBeyond = 10

// timing is the summary of one operation's round-trip samples.
type timing struct {
	N int `json:"n"`
	// P50, P90 and P99 are nearest-rank percentiles, in microseconds.
	P50 float64 `json:"p50_us"`
	P90 float64 `json:"p90_us"`
	P99 float64 `json:"p99_us"`
	// Tail is the highest percentile with at least minBeyond samples
	// beyond it (TailLabel names it, e.g. "p99.9"); empty below 20
	// samples.
	TailLabel string  `json:"tail_label,omitempty"`
	Tail      float64 `json:"tail_us,omitempty"`
}

// rankOf returns the 0-based nearest-rank index of percentile p (in
// units of 0.001%) among n sorted samples: the smallest sample with at
// least p% of the samples at or below it.
func rankOf(p, n int) int {
	r := (p*n + 99999) / 100000
	if r < 1 {
		r = 1
	}
	return r - 1
}

// tailPercentile picks the highest entry of tailPercentiles that leaves
// at least minBeyond of n samples above its rank; ok is false when not
// even the median does.
func tailPercentile(n int) (p int, ok bool) {
	for _, q := range tailPercentiles {
		if n-(rankOf(q, n)+1) >= minBeyond {
			p, ok = q, true
		}
	}
	return p, ok
}

// percentileLabel renders p (units of 0.001%) as "p99.9".
func percentileLabel(p int) string {
	s := fmt.Sprintf("%d.%03d", p/1000, p%1000)
	for s[len(s)-1] == '0' {
		s = s[:len(s)-1]
	}
	if s[len(s)-1] == '.' {
		s = s[:len(s)-1]
	}
	return "p" + s
}

// summarize sorts samples in place and returns their timing summary.
func summarize(samples []time.Duration) timing {
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	n := len(samples)
	t := timing{N: n}
	if n == 0 {
		return t
	}
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	t.P50 = us(samples[rankOf(50000, n)])
	t.P90 = us(samples[rankOf(90000, n)])
	t.P99 = us(samples[rankOf(99000, n)])
	if p, ok := tailPercentile(n); ok {
		t.TailLabel = percentileLabel(p)
		t.Tail = us(samples[rankOf(p, n)])
	}
	return t
}

// median returns the median of xs (the mean of the middle two for an
// even count), sorting xs in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

// calmShare is the share of a metric's samples, the calmest ones,
// that calmMedian keeps.
const calmShare = 3

// calmMedian is the median of the calmest third of the samples:
// steals[i] is the share of CPU the hypervisor gave to other guests
// while vals[i] was measured, and only samples taken with at most the
// steal of the ceil(n/3)-th calmest count (ties included). On a shared
// host a neighbour's burst shows up as steal and slows every layer at
// once; setting those samples aside keeps the burst out of the result
// without picking samples by their value.
func calmMedian(vals, steals []float64) float64 {
	sorted := append([]float64(nil), steals...)
	sort.Float64s(sorted)
	cut := sorted[(len(sorted)-1)/calmShare]
	var calm []float64
	for i, v := range vals {
		if steals[i] <= cut {
			calm = append(calm, v)
		}
	}
	return median(calm)
}

// ratio is num/den, or 0 when den is 0 (the layer did no such work).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
