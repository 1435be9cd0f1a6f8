package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported tail
// percentile: a tail read off fewer samples than this is noise.
const minBeyond = 10

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks, the rule Python's
// statistics.quantiles(method="inclusive") uses. xs need not be sorted.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// tail is a tail percentile as reported: the percentile actually used,
// its value, and how many samples lie strictly above that rank.
type tail struct {
	P      float64
	Value  float64
	Beyond int
	N      int
}

// tailPercentile applies the reporting rule for tail latencies: report
// the wanted percentile when at least minBeyond samples lie beyond it,
// otherwise the highest percentile that still has minBeyond samples
// beyond it. With fewer than minBeyond+1 samples no percentile qualifies
// and the median is reported instead, flagged by Beyond < minBeyond.
func tailPercentile(xs []float64, want float64) tail {
	n := len(xs)
	t := tail{N: n}
	if n == 0 {
		t.Value = math.NaN()
		return t
	}
	// beyond(p) counts samples ranked strictly above position p/100*(n-1).
	beyond := func(p float64) int {
		return n - 1 - int(math.Floor(p/100*float64(n-1)+1e-9))
	}
	p := want
	if beyond(p) < minBeyond {
		// The highest sample rank with minBeyond samples above it is
		// n-1-minBeyond; below the median the rule gives up.
		p = 50
		if r := n - 1 - minBeyond; r > 0 && 100*float64(r)/float64(n-1) > p {
			p = 100 * float64(r) / float64(n-1)
		}
	}
	t.P = p
	t.Value = percentile(xs, p)
	t.Beyond = beyond(p)
	return t
}

// failedFrac is failed over attempted, the share of points that errored,
// tripped a watchdog or failed a correctness check.
func failedFrac(attempted, failed int) float64 {
	if attempted <= 0 {
		return 1
	}
	return float64(failed) / float64(attempted)
}
