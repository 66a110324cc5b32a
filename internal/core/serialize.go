package core

import (
	"fmt"

	"privcount/internal/mat"
)

// This file is the serialization seam for mechanisms: a built mechanism
// is pure data — its probability matrix plus metadata — so persisting
// one only needs the matrix entries; the sampling tables (alias, CDF)
// are rebuilt from them in O(n²) by NewSampler, which is the O(read)
// side of the build-once/serve-everywhere layering in
// internal/service's artifact codec.

// AppendProbsRowMajor appends the mechanism's (n+1)² probability
// entries in row-major order (P[0][0], P[0][1], …) to dst and returns
// the extended slice. It is the export half of FromProbsRowMajor.
func (m *Mechanism) AppendProbsRowMajor(dst []float64) []float64 {
	return m.p.AppendRowMajor(dst)
}

// FromProbsRowMajor reconstructs a mechanism from serialized row-major
// probabilities, as produced by AppendProbsRowMajor. The matrix is
// re-validated — shape, column-stochasticity — exactly as New would, so
// a corrupted or forged serialization cannot become a servable
// mechanism. The probs slice is copied.
func FromProbsRowMajor(name string, n int, alpha float64, probs []float64) (*Mechanism, error) {
	if n < 1 {
		return nil, fmt.Errorf("core: group size n=%d, want >= 1: %w", n, ErrInvalidMechanism)
	}
	if len(probs) != (n+1)*(n+1) {
		return nil, fmt.Errorf("core: %d probabilities for n=%d, want %d: %w",
			len(probs), n, (n+1)*(n+1), ErrInvalidMechanism)
	}
	d, err := mat.FromRowMajor(n+1, n+1, probs)
	if err != nil {
		return nil, fmt.Errorf("core: %v: %w", err, ErrInvalidMechanism)
	}
	return New(name, n, alpha, d)
}
