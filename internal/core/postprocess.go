package core

import (
	"fmt"

	"privcount/internal/mat"
)

// PostProcess applies an output remapping T to mechanism m, producing the
// mechanism T·M whose output distribution for input j is T applied to
// M's. T must be column stochastic over the same range {0..n}.
//
// Post-processing cannot weaken differential privacy, so the result is
// α-DP whenever m is. This is the operation behind Ghosh et al.'s
// universality result quoted in §IV-D: a mechanism is "derivable from
// GM" exactly when it equals PostProcess(GM, T) for some T, which is
// what the Gupte–Sundararajan test (DerivableFromGM) detects.
func PostProcess(m *Mechanism, t *mat.Dense) (*Mechanism, error) {
	if t.Rows() != m.n+1 || t.Cols() != m.n+1 {
		return nil, fmt.Errorf("core: PostProcess: remap is %d×%d, want %d×%d: %w",
			t.Rows(), t.Cols(), m.n+1, m.n+1, ErrInvalidMechanism)
	}
	if !t.IsColumnStochastic(1e-9) {
		return nil, fmt.Errorf("core: PostProcess: remap is not column stochastic: %w", ErrInvalidMechanism)
	}
	p, err := t.Mul(m.matrixRef())
	if err != nil {
		return nil, fmt.Errorf("core: PostProcess: %w", err)
	}
	return adopt(m.name+"+post", m.n, m.alpha, p)
}

// RemapTable builds the deterministic post-processing matrix for an
// output-relabelling table: output i is replaced by table[i]. Entries
// must lie in [0, n].
func RemapTable(n int, table []int) (*mat.Dense, error) {
	if len(table) != n+1 {
		return nil, fmt.Errorf("core: RemapTable: %d entries for n=%d: %w", len(table), n, ErrInvalidMechanism)
	}
	t := mat.NewDense(n+1, n+1)
	for from, to := range table {
		if to < 0 || to > n {
			return nil, fmt.Errorf("core: RemapTable: entry %d maps to %d outside [0,%d]: %w",
				from, to, n, ErrInvalidMechanism)
		}
		t.Set(to, from, 1)
	}
	return t, nil
}
