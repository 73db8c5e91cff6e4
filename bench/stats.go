package main

import (
	"math"
	"sort"
)

// median returns the middle of the finite values of xs (mean of the two
// middles for an even count); xs is not modified. A value that is not
// finite is a pass that did not run the cell. With no finite value the
// result is NaN, so a metric that was never sampled fails the
// finiteness checks instead of reading 0.
func median(xs []float64) float64 {
	var fs []float64
	for _, x := range xs {
		if finite(x) {
			fs = append(fs, x)
		}
	}
	return quantile(fs, 0.5)
}

// quantile is the linear-interpolation quantile at position q·(n+1),
// clamped to the sample — the "exclusive" method, what Python's
// statistics.quantiles gives by default and so what the driver's own
// quartiles are.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := math.Max(0, math.Min(q*float64(len(s)+1)-1, float64(len(s)-1)))
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailPercentile returns the highest percentile of xs that still has at
// least ten samples beyond it, and which percentile that is (p75 at 40
// samples, p90 at 100). With fewer than 20 samples no percentile above
// the median qualifies and the median is returned.
func tailPercentile(xs []float64) (p int, v float64) {
	n := len(xs)
	p = 50
	for _, c := range []int{75, 90, 95, 99} {
		if n-int(math.Ceil(float64(n)*float64(c)/100)) >= 10 {
			p = c
		}
	}
	return p, quantile(xs, float64(p)/100)
}

// geomean is the geometric mean of strictly positive values; a
// non-positive or empty input yields NaN.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		if x <= 0 {
			return math.NaN()
		}
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// dist summarizes one metric's samples for the report.
type dist struct {
	N      int `json:"n"`
	Q1     num `json:"q1"`
	Median num `json:"median"`
	Q3     num `json:"q3"`
	TailP  int `json:"tail_p"`
	Tail   num `json:"tail"`
}

func summarize(xs []float64) dist {
	p, t := tailPercentile(xs)
	return dist{N: len(xs), Q1: num(quantile(xs, 0.25)), Median: num(median(xs)), Q3: num(quantile(xs, 0.75)), TailP: p, Tail: num(t)}
}
