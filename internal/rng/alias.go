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
// finite, and have a positive sum; they need not be normalised. The
// slices are usually an AliasSlab's Column, drawn from through the
// slab.
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

// AliasSlab is a column-major slab of alias tables with k outcomes per
// column: column c's table is prob[c·k:(c+1)·k] and alias[c·k:(c+1)·k],
// each filled by Vose.Fill through Column. Its draw methods share one
// kernel; a slab is read-only while drawn from, so any number of
// goroutines may draw from it at once, each with its own Source.
type AliasSlab struct {
	prob  []float64
	alias []int32
	k     int // outcomes per column
	cols  int
}

// NewAliasSlab allocates an unfilled slab of cols tables of k outcomes
// each.
func NewAliasSlab(k, cols int) AliasSlab {
	return AliasSlab{prob: make([]float64, k*cols), alias: make([]int32, k*cols), k: k, cols: cols}
}

// Column returns column c's table for Vose.Fill to fill. Like slice
// indexing, it panics if c is out of range.
func (s AliasSlab) Column(c int) ([]float64, []int32) {
	if uint(c) >= uint(s.cols) {
		panicColumn(c, s.cols)
	}
	off := c * s.k
	return s.prob[off : off+s.k : off+s.k], s.alias[off : off+s.k : off+s.k]
}

// Bytes returns the heap footprint of the slab's tables: 12 bytes per
// cell.
func (s AliasSlab) Bytes() int { return 8*len(s.prob) + 4*len(s.alias) }

// Sample draws one outcome from column c. It panics if c is out of
// range.
func (s AliasSlab) Sample(src Source, c int) int {
	var out [1]int
	s.sampleInto(src, nil, c, out[:])
	return out[0]
}

// SampleColumnsInto draws one outcome from column cols[i] into dst[i]
// for each i, without allocating. It panics if len(dst) < len(cols) or
// a column is out of range; draws before the bad column have then been
// written.
func (s AliasSlab) SampleColumnsInto(src Source, cols []int, dst []int) {
	s.sampleInto(src, cols, 0, dst[:len(cols)])
}

// SampleColumnInto fills dst with independent draws from column c,
// without allocating. It panics if c is out of range, even when dst is
// empty.
func (s AliasSlab) SampleColumnInto(src Source, c int, dst []int) {
	if uint(c) >= uint(s.cols) {
		panicColumn(c, s.cols)
	}
	s.sampleInto(src, nil, c, dst)
}

// sampleInto is the one alias-draw kernel: dst[i] is a draw from column
// cols[i], or from column c for every i when cols is nil. Each draw
// takes IntN(k) and then Float64 from src, in that order, and selects
// the slot or its alias without a data-dependent branch. A *Rand is
// drawn from directly, with no interface call; any other Source takes
// the generic path, which consumes it in the same order.
func (s AliasSlab) sampleInto(src Source, cols []int, c int, dst []int) {
	if r, ok := src.(*Rand); ok {
		s.sampleRand(r, cols, c, dst)
		return
	}
	k, prob, alias := s.k, s.prob, s.alias[:len(s.prob)]
	for i := range dst {
		if cols != nil {
			c = cols[i]
		}
		if uint(c) >= uint(s.cols) {
			panicColumn(c, s.cols)
		}
		x := src.IntN(k)
		u := src.Float64()
		off := c*k + x
		p, a := prob[off], int(alias[off])
		if u < p {
			a = x
		}
		dst[i] = a
	}
}

// sampleRand is sampleInto's loop for a *Rand: the same draws, called
// directly instead of through Source.
func (s AliasSlab) sampleRand(r *Rand, cols []int, c int, dst []int) {
	k, prob, alias := s.k, s.prob, s.alias[:len(s.prob)]
	for i := range dst {
		if cols != nil {
			c = cols[i]
		}
		if uint(c) >= uint(s.cols) {
			panicColumn(c, s.cols)
		}
		x := int(r.uint64n(uint64(k)))
		u := r.Float64()
		off := c*k + x
		p, a := prob[off], int(alias[off])
		if u < p {
			a = x
		}
		dst[i] = a
	}
}

// panicColumn is kept out of line so the kernel's loop stays small.
//
//go:noinline
func panicColumn(c, cols int) {
	panic(fmt.Sprintf("rng: alias column %d out of range [0, %d)", c, cols))
}
