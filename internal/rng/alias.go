package rng

import (
	"fmt"
	"math"
)

// Vose builds alias tables (Vose's alias method) into caller-owned
// slices, reusing its own scratch across calls, so filling many tables
// of one size allocates only once. The zero value is ready to use. A
// Vose is not safe for concurrent use.
type Vose struct {
	scaled       []float64
	small, large []int32
}

// Fill writes the alias table for weights into prob and alias, which
// must both have len(weights) entries. Weights must be non-negative,
// finite, and have a positive sum; they need not be normalised. Draw
// from the filled table with SampleAlias.
func (v *Vose) Fill(prob []float64, alias []int32, weights []float64) error {
	n := len(weights)
	if n == 0 {
		return fmt.Errorf("rng: alias table: empty weight vector")
	}
	if n > math.MaxInt32 {
		return fmt.Errorf("rng: alias table: %d outcomes, want at most %d", n, math.MaxInt32)
	}
	if len(prob) != n || len(alias) != n {
		return fmt.Errorf("rng: alias table: %d weights into %d/%d table slots", n, len(prob), len(alias))
	}
	var sum float64
	for i, w := range weights {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return fmt.Errorf("rng: alias table: weight %d is %v", i, w)
		}
		sum += w
	}
	if sum <= 0 {
		return fmt.Errorf("rng: alias table: weights sum to %v, want > 0", sum)
	}

	if cap(v.scaled) < n {
		v.scaled = make([]float64, n)
		v.small = make([]int32, 0, n)
		v.large = make([]int32, 0, n)
	}
	scaled := v.scaled[:n]
	small, large := v.small[:0], v.large[:0]
	for i, w := range weights {
		scaled[i] = w * float64(n) / sum
	}
	for i, s := range scaled {
		if s < 1 {
			small = append(small, int32(i))
		} else {
			large = append(large, int32(i))
		}
	}
	for len(small) > 0 && len(large) > 0 {
		l := small[len(small)-1]
		small = small[:len(small)-1]
		g := large[len(large)-1]
		large = large[:len(large)-1]
		prob[l] = scaled[l]
		alias[l] = g
		scaled[g] = (scaled[g] + scaled[l]) - 1
		if scaled[g] < 1 {
			small = append(small, g)
		} else {
			large = append(large, g)
		}
	}
	// Whatever remains is 1 up to rounding.
	for _, g := range large {
		prob[g] = 1
		alias[g] = g
	}
	for _, l := range small {
		prob[l] = 1
		alias[l] = l
	}
	return nil
}

// SampleAlias draws one outcome index from the alias table (prob, alias)
// filled by Vose.Fill: one IntN and one Float64 from src per draw.
func SampleAlias(src Source, prob []float64, alias []int32) int {
	i := src.IntN(len(prob))
	if src.Float64() < prob[i] {
		return i
	}
	return int(alias[i])
}

// Alias is a standalone alias table for one fixed discrete distribution,
// drawn from in O(1). Mechanisms keep their per-column tables in flat
// slabs instead (see core.Sampler); Alias is the single-distribution
// convenience over the same Vose fill.
type Alias struct {
	prob  []float64
	alias []int32
}

// NewAlias builds an alias table for the given weights. Weights must be
// non-negative, finite, and have a positive sum; they need not be
// normalised.
func NewAlias(weights []float64) (*Alias, error) {
	a := &Alias{prob: make([]float64, len(weights)), alias: make([]int32, len(weights))}
	if err := new(Vose).Fill(a.prob, a.alias, weights); err != nil {
		return nil, err
	}
	return a, nil
}

// N returns the number of outcomes.
func (a *Alias) N() int { return len(a.prob) }

// Sample draws one outcome index using src.
func (a *Alias) Sample(src Source) int { return SampleAlias(src, a.prob, a.alias) }
