package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a reported percentile: a
// p90 over 50 trials rests on 5 samples and moves with every outlier.
const minTail = 10

// Trial times go into a histogram rather than a sample list, so the
// benchmark's own memory stays constant however many trials a run makes
// and never shows in the live-heap metric. Buckets grow geometrically by
// histGrowth from histMin, which keeps every estimate within 0.1% of
// the exact sample percentile over 1 µs – 100 s.
const (
	histMin    = time.Microsecond
	histGrowth = 1.001
)

var histBuckets = int(math.Ceil(math.Log(float64(100*time.Second/histMin))/math.Log(histGrowth))) + 1

// hist is a fixed-size histogram of durations.
type hist struct {
	counts []uint64
	n      uint64
}

func newHist() *hist { return &hist{counts: make([]uint64, histBuckets)} }

// edge is the lower bound of bucket i.
func edge(i int) float64 { return float64(histMin) * math.Pow(histGrowth, float64(i)) }

func (h *hist) observe(d time.Duration) {
	i := 0
	if d > histMin {
		i = int(math.Log(float64(d)/float64(histMin)) / math.Log(histGrowth))
	}
	if i >= len(h.counts) {
		i = len(h.counts) - 1
	}
	h.counts[i]++
	h.n++
}

func (h *hist) reset() {
	clear(h.counts)
	h.n = 0
}

// addScaled adds o's samples to h with every duration multiplied by f.
// Buckets are geometric, so scaling shifts a sample by a whole number of
// buckets, exact to one bucket (0.1%).
func (h *hist) addScaled(o *hist, f float64) {
	shift := int(math.Round(math.Log(f) / math.Log(histGrowth)))
	for i, c := range o.counts {
		if c != 0 {
			h.counts[min(max(i+shift, 0), len(h.counts)-1)] += c
		}
	}
	h.n += o.n
}

// percentile returns the p-th percentile (0 < p < 1) in milliseconds,
// interpolating linearly by rank inside the bucket that holds it. It
// refuses when fewer than minTail samples lie beyond the percentile.
func (h *hist) percentile(p float64) (float64, error) {
	// The 1e-9 keeps p·n = 90 from rounding up to 91 at n = 100.
	if beyond := float64(h.n) - math.Ceil(p*float64(h.n)-1e-9); h.n == 0 || beyond < minTail {
		return 0, fmt.Errorf("p%g needs %d samples beyond it, have %d trials", p*100, minTail, h.n)
	}
	rank := p * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if next := cum + float64(c); next >= rank {
			lo, hi := edge(i), edge(i+1)
			return (lo + (hi-lo)*(rank-cum)/float64(c)) / float64(time.Millisecond), nil
		}
		cum += float64(c)
	}
	return edge(len(h.counts)) / float64(time.Millisecond), nil
}

// quartiles returns the first quartile, median and third quartile of
// values with the same method as Python's statistics.quantiles(values,
// n=4) (the "exclusive" method), which is how benchmark steadiness is
// judged. It needs at least two values.
func quartiles(values []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), median(s), q(3)
}

// median of values (0 when empty).
func median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
