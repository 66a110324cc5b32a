package core

import (
	"fmt"
)

// Symmetrize applies Theorem 1's construction: M* = ½(M + Mˢ) where
// Mˢ[i][j] = M[n−i][n−j]. The result is centrosymmetric, satisfies every
// property of §IV-A that M satisfies, preserves α-DP, and has the same L0
// objective value (the trace is unchanged).
func Symmetrize(m *Mechanism) (*Mechanism, error) {
	s := m.matrixRef().CentroTranspose()
	sum, err := m.matrixRef().Add(s)
	if err != nil {
		return nil, fmt.Errorf("core: Symmetrize: %w", err)
	}
	return adopt(m.name+"*", m.n, m.alpha, sum.Scale(0.5))
}

// DerivableFromGM applies Gupte and Sundararajan's test quoted in §IV-D: a
// mechanism can be obtained from GM by output remapping iff every set of
// three row-adjacent entries satisfies
//
//	(Pr[i|j] − α·Pr[i|j−1]) ≥ α·(Pr[i|j+1] − α·Pr[i|j])
//
// for 1 ≤ j ≤ n−1. The paper uses this to show WM and EM are genuinely new
// mechanisms for n > 1. Pass tol = 0 for DefaultTol.
func DerivableFromGM(m *Mechanism, alpha, tol float64) bool {
	return GSViolation(m, alpha, tol) == ""
}

// GSViolation returns a description of the first violation of the
// Gupte–Sundararajan condition, or "" if the mechanism passes the test.
func GSViolation(m *Mechanism, alpha, tol float64) string {
	if tol == 0 {
		tol = DefaultTol
	}
	p, n := m.matrixRef(), m.n
	for i := 0; i <= n; i++ {
		for j := 1; j < n; j++ {
			lhs := p.At(i, j) - alpha*p.At(i, j-1)
			rhs := alpha * (p.At(i, j+1) - alpha*p.At(i, j))
			if lhs < rhs-tol {
				return fmt.Sprintf("GS: row %d, inputs %d..%d: %g < %g", i, j-1, j+1, lhs, rhs)
			}
		}
	}
	return ""
}
