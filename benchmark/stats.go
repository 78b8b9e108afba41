package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (the rule Python's statistics.quantiles calls "inclusive").
// xs need not be sorted; an empty xs yields 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quartiles returns the first and third quartiles of a set of runs by the
// rule Python's statistics.quantiles uses by default ("exclusive"), so
// spreads read the same here as in any script that checks them that way.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n < 2 {
		return median(xs), median(xs)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(3)
}

// tailPercentile returns the highest of the usual reporting percentiles
// that still has at least ten samples above it, or 0 when n < 20 and only
// the median is meaningful.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, p := range []float64{75, 90, 95, 99, 99.9, 99.99} {
		if float64(n)*(1-p/100) >= 10 {
			best = p
		}
	}
	return best
}

// describe renders a sample set as "p50 … pNN … (n=…)" in the given unit
// scale, stating the sample count as the reporting rule requires.
func describe(xs []float64, scale float64, unit string) string {
	s := fmt.Sprintf("p50 %.4g %s", median(xs)*scale, unit)
	if p := tailPercentile(len(xs)); p > 0 {
		s += fmt.Sprintf(", p%g %.4g %s", p, quantile(xs, p/100)*scale, unit)
	}
	return s + fmt.Sprintf(" (n=%d)", len(xs))
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}
