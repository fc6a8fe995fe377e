package main

import (
	"math"
	"sort"
	"time"
)

// now is the harness's only wall-clock read: every host-time figure
// the benchmark reports is a difference of two of these.
func now() time.Time {
	//vichar:nolint ambient-entropy wall clock measures benchmark duration, not simulation behavior
	return time.Now()
}

// since returns the host seconds elapsed from t.
func since(t time.Time) float64 { return now().Sub(t).Seconds() }

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or 0 for an empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// minMax returns the extremes of xs (0, 0 for an empty sample).
func minMax(xs []float64) (lo, hi float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		lo = math.Min(lo, x)
		hi = math.Max(hi, x)
	}
	return lo, hi
}

// tailMinBeyond is how many samples must lie beyond a percentile
// before the harness reports it: fewer and the figure is one outlier.
const tailMinBeyond = 10

// tailLadder are the percentiles tailPercentile chooses between, in
// per mille so that ranks are computed in integers.
var tailLadder = []int{500, 900, 950, 990, 999}

// rankIndex is the nearest-rank index of a per-mille percentile in an
// ascending sample of n values.
func rankIndex(perMille, n int) int {
	idx := (perMille*n+999)/1000 - 1
	if idx < 0 {
		idx = 0
	}
	return idx
}

// tailPercentile returns the highest percentile of the ladder that
// still has at least tailMinBeyond samples beyond it, and its value
// (nearest rank). A sample too small for even the median's ten
// reports the median.
func tailPercentile(xs []float64) (pct, value float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := sorted(xs)
	pick := tailLadder[0]
	for _, p := range tailLadder {
		if len(s)-1-rankIndex(p, len(s)) >= tailMinBeyond {
			pick = p
		}
	}
	return float64(pick) / 10, s[rankIndex(pick, len(s))]
}

// summary is a median-of-passes figure with the spread beside it.
type summary struct {
	Median float64   `json:"median"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	Passes int       `json:"passes"`
	Values []float64 `json:"values"`
}

func summarize(xs []float64) summary {
	lo, hi := minMax(xs)
	return summary{Median: median(xs), Min: lo, Max: hi, Passes: len(xs), Values: xs}
}

// spread is the pass range as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Max - s.Min) / math.Abs(s.Median)
}
