package core

import (
	"fmt"
	"slices"

	"privcount/internal/rng"
)

// Sampler draws outputs from a mechanism using alias tables precomputed
// once at construction: one Vose alias table per input column, laid out
// in one rng.AliasSlab — (n+1)² cells, column j at offset j·(n+1) — so
// a mechanism's sampling state is two allocations, 12 bytes per cell,
// for O(1) draws.
//
// After NewSampler returns, a Sampler is strictly read-only: no method
// mutates its tables, so a single Sampler is safe for any number of
// concurrent goroutines as long as each goroutine supplies its own
// rng.Source (or a concurrency-safe one such as rng.CryptoSource). The
// serving layer (internal/service) relies on this: it builds one Sampler
// per cached mechanism and serves all traffic from it.
type Sampler struct {
	m    *Mechanism
	slab rng.AliasSlab // column j is input j's table
}

// NewSampler precomputes the alias table of every input column of m. All
// columns are filled from one reused Vose scratch, so construction makes
// a constant number of allocations whatever n is.
func NewSampler(m *Mechanism) (*Sampler, error) {
	k := m.n + 1
	s := &Sampler{m: m, slab: rng.NewAliasSlab(k, k)}
	var v rng.Vose
	col := make([]float64, k)
	for j := 0; j < k; j++ {
		for i := range col {
			col[i] = m.p.At(i, j)
		}
		prob, alias := s.slab.Column(j)
		if err := v.Fill(prob, alias, col); err != nil {
			return nil, fmt.Errorf("core: NewSampler column %d: %w", j, err)
		}
	}
	return s, nil
}

// Bytes returns the heap footprint of the sampler's tables: 12 bytes per
// cell of the (n+1)×(n+1) matrix, excluding the mechanism itself.
func (s *Sampler) Bytes() int { return s.slab.Bytes() }

// Mechanism returns the mechanism the sampler draws from.
func (s *Sampler) Mechanism() *Mechanism { return s.m }

// Sample draws one output for true count j in O(1) via the alias table.
// It panics if j is out of range, mirroring slice indexing semantics.
func (s *Sampler) Sample(src rng.Source, j int) int { return s.slab.Sample(src, j) }

// SampleMany draws one output for each true count in js, appending to dst
// (pass nil to allocate). Draws consume src in the same order as calling
// Sample once per element, so a seeded batch reproduces single-shot draws
// exactly — the determinism contract the serving layer's batch endpoints
// are tested against.
func (s *Sampler) SampleMany(src rng.Source, js []int, dst []int) []int {
	if dst == nil {
		dst = make([]int, 0, len(js))
	}
	n := len(dst)
	dst = slices.Grow(dst, len(js))[:n+len(js)]
	s.SampleManyInto(src, js, dst[n:])
	return dst
}

// SampleManyInto draws one output for each true count in js, writing
// into dst[:len(js)] without allocating — the batch-granularity hot
// path behind the serving layer's zero-alloc sampling budget. It panics
// if len(dst) < len(js) or any count is out of range, mirroring slice
// indexing semantics; callers own validation. Draws consume src in the
// same order as SampleMany, so the two are interchangeable under a
// seeded source.
func (s *Sampler) SampleManyInto(src rng.Source, js []int, dst []int) {
	s.slab.SampleColumnsInto(src, js, dst)
}

// SampleBatchInto draws len(dst) independent outputs for the single
// true count j into dst without allocating: every draw is O(1) from
// input j's table.
func (s *Sampler) SampleBatchInto(src rng.Source, j int, dst []int) {
	s.slab.SampleColumnInto(src, j, dst)
}

// SampleBatch draws k independent outputs for the single true count j,
// appending to dst (pass nil to allocate). It is the hot path for
// serving repeated queries against one group.
func (s *Sampler) SampleBatch(src rng.Source, j, k int, dst []int) []int {
	if dst == nil {
		dst = make([]int, 0, k)
	}
	n := len(dst)
	dst = slices.Grow(dst, k)[:n+k]
	s.SampleBatchInto(src, j, dst[n:])
	return dst
}

// Quantile returns the smallest output i with Pr[output <= i | input=j]
// >= u, the inverse-CDF transform of u in [0, 1). Unlike alias draws,
// quantile sampling consumes exactly one uniform per output and is
// monotone in u, which makes it the right primitive for common-random-
// number comparisons between mechanisms. No CDF is stored: each call
// accumulates column j of the mechanism, O(n).
func (s *Sampler) Quantile(j int, u float64) int {
	var acc float64
	for i := 0; i < s.m.n; i++ {
		acc += s.m.p.At(i, j)
		if acc >= u {
			return i
		}
	}
	return s.m.n
}

// SampleInverse draws one output for true count j by inversion of the
// column's CDF: one uniform consumed per draw, O(n) per draw.
func (s *Sampler) SampleInverse(src rng.Source, j int) int {
	return s.Quantile(j, src.Float64())
}

// CDF returns the cumulative distribution of outputs for input j,
// computed from the mechanism's column: CDF(j)[i] = Pr[output <= i |
// input = j]. The last entry is exactly 1.
func (s *Sampler) CDF(j int) []float64 {
	out := make([]float64, s.m.n+1)
	var acc float64
	for i := range out {
		acc += s.m.p.At(i, j)
		out[i] = acc
	}
	out[s.m.n] = 1
	return out
}
