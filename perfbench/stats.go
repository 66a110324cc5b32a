package main

import (
	"math"
	"sort"
)

// tailBeyond is how many samples must lie strictly beyond a reported
// tail percentile: a percentile with fewer samples past it is an
// extrapolation from a handful of outliers, not a measurement.
const tailBeyond = 10

// tailLadder lists the tail percentiles the benchmark may report, from
// the highest down.
var tailLadder = []float64{0.999, 0.99, 0.95, 0.9, 0.75}

// percentile returns the q-quantile of sorted xs by the nearest-rank
// rule: the smallest sample with at least q·n samples at or below it.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// beyond counts the samples strictly past the nearest-rank q-quantile of
// n samples.
func beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	return n - 1 - i
}

// supports reports whether n samples leave at least tailBeyond samples
// beyond the q-quantile.
func supports(n int, q float64) bool { return beyond(n, q) >= tailBeyond }

// highestTail returns the highest percentile of tailLadder that n
// samples support, and false if they support none.
func highestTail(n int) (float64, bool) {
	for _, q := range tailLadder {
		if supports(n, q) {
			return q, true
		}
	}
	return 0, false
}

// median of an unsorted slice (the mean of the middle pair for even n).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quartiles returns Q1, Q2, Q3 by the same rule as Python's
// statistics.quantiles(xs, n=4) (the "exclusive" method), so the noise
// report matches the spread figure the benchmark is judged by.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	if n == 1 {
		return xs[0], xs[0], xs[0]
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := n + 1
	var out [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		out[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return out[0], out[1], out[2]
}

// chiSquareP returns the upper-tail p-value of a chi-square goodness of
// fit of observed counts against the probabilities probs (which sum to
// one). Adjacent cells are pooled, in output order, until each pooled
// cell expects at least five draws. It returns p = 1 when fewer than
// two pooled cells remain (nothing to test).
func chiSquareP(observed []int64, probs []float64) (p float64, df int) {
	var total int64
	for _, o := range observed {
		total += o
	}
	if total == 0 {
		return 1, 0
	}
	var pe, po []float64
	var e, o float64
	for i := range probs {
		e += probs[i] * float64(total)
		o += float64(observed[i])
		if e >= 5 {
			pe, po = append(pe, e), append(po, o)
			e, o = 0, 0
		}
	}
	if len(pe) == 0 {
		return 1, 0
	}
	pe[len(pe)-1] += e
	po[len(po)-1] += o
	if len(pe) < 2 {
		return 1, 0
	}
	var stat float64
	for i := range pe {
		stat += (po[i] - pe[i]) * (po[i] - pe[i]) / pe[i]
	}
	df = len(pe) - 1
	return gammaQ(float64(df)/2, stat/2), df
}

// gammaQ is the regularized upper incomplete gamma function Q(a, x),
// by the series for x < a+1 and Lentz's continued fraction otherwise.
func gammaQ(a, x float64) float64 {
	if x <= 0 {
		return 1
	}
	lg, _ := math.Lgamma(a)
	if x < a+1 {
		sum, del, ap := 1/a, 1/a, a
		for i := 0; i < 1000; i++ {
			ap++
			del *= x / ap
			sum += del
			if math.Abs(del) < math.Abs(sum)*1e-15 {
				break
			}
		}
		return 1 - sum*math.Exp(-x+a*math.Log(x)-lg)
	}
	const tiny = 1e-300
	b := x + 1 - a
	c := 1 / tiny
	d := 1 / b
	h := d
	for i := 1; i < 1000; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = b + an/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < 1e-15 {
			break
		}
	}
	return math.Exp(-x+a*math.Log(x)-lg) * h
}

// latencySummary is a latency sample reduced to the figures the
// benchmark reports: the median, the highest supported tail percentile,
// and the sample count behind them.
type latencySummary struct {
	N     int
	P50   float64
	Max   float64
	TailQ float64 // the highest supported tail percentile, 0 when none
	Tail  float64
	P99   float64 // NaN unless the sample supports p99
}

func summarize(xs []float64) latencySummary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ls := latencySummary{N: len(s), P50: percentile(s, 0.5), P99: math.NaN()}
	if len(s) > 0 {
		ls.Max = s[len(s)-1]
	}
	if q, ok := highestTail(len(s)); ok {
		ls.TailQ, ls.Tail = q, percentile(s, q)
	}
	if supports(len(s), 0.99) {
		ls.P99 = percentile(s, 0.99)
	}
	return ls
}
