// Package core implements the paper's primary contribution: differentially
// private mechanisms for count queries over a group of n individuals,
// represented as (n+1)×(n+1) column-stochastic matrices, together with the
// structural properties (§IV-A), objective functions (Definition 3 and
// Eq 1), explicit constructions (GM, EM, UM, randomized response, k-ary
// randomized response, exponential and truncated-Laplace mechanisms),
// symmetrisation (Theorem 1), the Gupte–Sundararajan derivability test,
// samplers, and estimators for downstream use.
//
// Throughout, P[i][j] = Pr[output = i | true count = j], every column sums
// to one, and α-differential privacy bounds ratios of row-adjacent entries
// (footnote 1 of the paper: DP is enforced along rows of P).
package core

import (
	"errors"
	"fmt"
	"math"

	"privcount/internal/mat"
)

// DefaultTol is the numeric tolerance used by property and privacy checks
// when the caller passes 0.
const DefaultTol = 1e-9

// Mechanism is a randomized mechanism for count queries: a column-
// stochastic (n+1)×(n+1) matrix over inputs and outputs {0, …, n}.
// Mechanisms are immutable after construction.
type Mechanism struct {
	name  string
	n     int
	alpha float64 // design privacy parameter; 0 when unknown
	p     *mat.Dense
}

// ErrInvalidMechanism reports a matrix that is not a valid mechanism.
var ErrInvalidMechanism = errors.New("core: invalid mechanism")

// New validates m as a column-stochastic (n+1)×(n+1) matrix and wraps it
// as a Mechanism. alpha records the design privacy parameter (pass 0 if
// unknown); it is advisory — use SatisfiesDP to verify. The mechanism
// takes ownership of m: the caller must not change it afterwards (clone
// first to keep a mutable copy).
func New(name string, n int, alpha float64, m *mat.Dense) (*Mechanism, error) {
	if n < 1 {
		return nil, fmt.Errorf("core: group size n=%d, want >= 1: %w", n, ErrInvalidMechanism)
	}
	if m.Rows() != n+1 || m.Cols() != n+1 {
		return nil, fmt.Errorf("core: matrix is %d×%d, want %d×%d: %w", m.Rows(), m.Cols(), n+1, n+1, ErrInvalidMechanism)
	}
	if !m.IsColumnStochastic(1e-7) {
		return nil, fmt.Errorf("core: matrix is not column stochastic: %w", ErrInvalidMechanism)
	}
	return &Mechanism{name: name, n: n, alpha: alpha, p: m}, nil
}

// Name returns the mechanism's display name (e.g. "GM", "EM").
func (m *Mechanism) Name() string { return m.name }

// N returns the group size n; inputs and outputs range over {0, …, n}.
func (m *Mechanism) N() int { return m.n }

// Alpha returns the design privacy parameter recorded at construction,
// or 0 when unknown.
func (m *Mechanism) Alpha() float64 { return m.alpha }

// Prob returns Pr[output = i | input = j].
func (m *Mechanism) Prob(i, j int) float64 { return m.p.At(i, j) }

// Matrix returns a copy of the probability matrix.
func (m *Mechanism) Matrix() *mat.Dense { return m.p.Clone() }

// matrixRef exposes the internal matrix to sibling code that promises not
// to mutate it.
func (m *Mechanism) matrixRef() *mat.Dense { return m.p }

// Column returns a copy of the output distribution for input j.
func (m *Mechanism) Column(j int) []float64 { return m.p.Col(j) }

// Bytes returns the heap footprint of the probability matrix: 8 bytes
// per cell of the (n+1)×(n+1) matrix.
func (m *Mechanism) Bytes() int { return 8 * (m.n + 1) * (m.n + 1) }

// Trace returns the sum of diagonal entries Σ Pr[j|j].
func (m *Mechanism) Trace() float64 { return m.p.Trace() }

// String renders the mechanism name, size and matrix.
func (m *Mechanism) String() string {
	return fmt.Sprintf("%s (n=%d, alpha=%.4g)\n%s", m.name, m.n, m.alpha, m.p)
}

// Rename returns a copy of the mechanism carrying a different name.
func (m *Mechanism) Rename(name string) *Mechanism {
	c := *m
	c.name = name
	return &c
}

// SatisfiesDP reports whether the mechanism meets α-differential privacy
// within tol (Definition 2): α ≤ Pr[i|j]/Pr[i|j+1] ≤ 1/α for every output
// i and neighbouring inputs j, j+1. Pass tol = 0 for DefaultTol.
func (m *Mechanism) SatisfiesDP(alpha, tol float64) bool {
	return m.DPViolation(alpha, tol) == ""
}

// DPViolation returns a description of the first α-DP violation beyond
// tol, or "" if none. Pass tol = 0 for DefaultTol.
func (m *Mechanism) DPViolation(alpha, tol float64) string {
	if tol == 0 {
		tol = DefaultTol
	}
	for i := 0; i <= m.n; i++ {
		for j := 0; j < m.n; j++ {
			a, b := m.p.At(i, j), m.p.At(i, j+1)
			if a < alpha*b-tol {
				return fmt.Sprintf("P[%d|%d]=%g < alpha*P[%d|%d]=%g", i, j, a, i, j+1, alpha*b)
			}
			if b < alpha*a-tol {
				return fmt.Sprintf("P[%d|%d]=%g < alpha*P[%d|%d]=%g", i, j+1, b, i, j, alpha*a)
			}
		}
	}
	return ""
}

// DPAlpha returns the largest α for which the mechanism is α-DP: the
// minimum over all row-adjacent pairs of min(P[i][j]/P[i][j+1],
// P[i][j+1]/P[i][j]). A pair with exactly one zero forces α = 0; pairs
// with both entries zero impose no constraint. The result is clamped to
// [0, 1].
func (m *Mechanism) DPAlpha() float64 {
	best := 1.0
	for i := 0; i <= m.n; i++ {
		for j := 0; j < m.n; j++ {
			a, b := m.p.At(i, j), m.p.At(i, j+1)
			switch {
			case a == 0 && b == 0:
				continue
			case a == 0 || b == 0:
				return 0
			}
			r := a / b
			if r > 1 {
				r = 1 / r
			}
			if r < best {
				best = r
			}
		}
	}
	return best
}

// UniformWeights returns the uniform prior w_j = 1/(n+1) over inputs,
// the paper's default.
func UniformWeights(n int) []float64 {
	w := make([]float64, n+1)
	for j := range w {
		w[j] = 1 / float64(n+1)
	}
	return w
}

// checkWeights validates a prior for this mechanism; nil means uniform.
func (m *Mechanism) checkWeights(weights []float64) ([]float64, error) {
	if weights == nil {
		return UniformWeights(m.n), nil
	}
	if len(weights) != m.n+1 {
		return nil, fmt.Errorf("core: %d weights for n=%d: %w", len(weights), m.n, ErrInvalidMechanism)
	}
	var sum float64
	for _, w := range weights {
		if w < 0 || math.IsNaN(w) {
			return nil, fmt.Errorf("core: negative or NaN weight: %w", ErrInvalidMechanism)
		}
		sum += w
	}
	if math.Abs(sum-1) > 1e-6 {
		return nil, fmt.Errorf("core: weights sum to %g, want 1: %w", sum, ErrInvalidMechanism)
	}
	return weights, nil
}

// Loss evaluates the paper's objective O_{p,Σ} (Definition 3):
// Σ_j w_j Σ_i Pr[i|j]·|i−j|^p, with the L0 convention that |i−j|^0 counts
// 1 for any wrong answer and 0 for the truth. A nil weights slice selects
// the uniform prior.
func (m *Mechanism) Loss(p float64, weights []float64) (float64, error) {
	w, err := m.checkWeights(weights)
	if err != nil {
		return 0, err
	}
	var total float64
	for j := 0; j <= m.n; j++ {
		if w[j] == 0 {
			continue
		}
		var colLoss float64
		for i := 0; i <= m.n; i++ {
			d := math.Abs(float64(i - j))
			var pen float64
			if p == 0 {
				if i != j {
					pen = 1
				}
			} else {
				pen = math.Pow(d, p)
			}
			colLoss += m.p.At(i, j) * pen
		}
		total += w[j] * colLoss
	}
	return total, nil
}

// MaxLoss evaluates O_{p,max} (Definition 3 with ⊕ = max): the worst
// per-input expected penalty, weighted by w.
func (m *Mechanism) MaxLoss(p float64, weights []float64) (float64, error) {
	w, err := m.checkWeights(weights)
	if err != nil {
		return 0, err
	}
	worst := 0.0
	for j := 0; j <= m.n; j++ {
		var colLoss float64
		for i := 0; i <= m.n; i++ {
			d := math.Abs(float64(i - j))
			var pen float64
			if p == 0 {
				if i != j {
					pen = 1
				}
			} else {
				pen = math.Pow(d, p)
			}
			colLoss += m.p.At(i, j) * pen
		}
		if v := w[j] * colLoss; v > worst {
			worst = v
		}
	}
	return worst, nil
}

// L0 returns the paper's rescaled L0 score (Eq 1) under the uniform
// prior: (n+1)/n − trace(P)/n. The uniform mechanism scores exactly 1.
func (m *Mechanism) L0() float64 {
	n := float64(m.n)
	return (n+1)/n - m.p.Trace()/n
}

// L0Weighted returns the rescaled L0 score under an arbitrary prior:
// (n+1)/n · Σ_j w_j (1 − Pr[j|j]). nil selects the uniform prior.
func (m *Mechanism) L0Weighted(weights []float64) (float64, error) {
	w, err := m.checkWeights(weights)
	if err != nil {
		return 0, err
	}
	var s float64
	for j := 0; j <= m.n; j++ {
		s += w[j] * (1 - m.p.At(j, j))
	}
	return s * float64(m.n+1) / float64(m.n), nil
}

// L0D returns the rescaled tail mass more than d steps off the diagonal:
// (n+1)/n · Σ_{|i−j|>d} w_j Pr[i|j], so that L0D(0) = L0 (the paper's
// L_{0,d} with the strict reading that makes L0 = L_{0,0}). nil weights
// selects the uniform prior.
func (m *Mechanism) L0D(d int, weights []float64) (float64, error) {
	if d < 0 {
		return 0, fmt.Errorf("core: L0D with d=%d: %w", d, ErrInvalidMechanism)
	}
	w, err := m.checkWeights(weights)
	if err != nil {
		return 0, err
	}
	var s float64
	for j := 0; j <= m.n; j++ {
		if w[j] == 0 {
			continue
		}
		var tail float64
		for i := 0; i <= m.n; i++ {
			if abs(i-j) > d {
				tail += m.p.At(i, j)
			}
		}
		s += w[j] * tail
	}
	return s * float64(m.n+1) / float64(m.n), nil
}

// TruthProb returns Σ_j w_j Pr[j|j], the probability of reporting the true
// answer under the prior w (nil = uniform).
func (m *Mechanism) TruthProb(weights []float64) (float64, error) {
	w, err := m.checkWeights(weights)
	if err != nil {
		return 0, err
	}
	var s float64
	for j := 0; j <= m.n; j++ {
		s += w[j] * m.p.At(j, j)
	}
	return s, nil
}

// ExpectedAbsError returns the expected |output − input| under prior w.
func (m *Mechanism) ExpectedAbsError(weights []float64) (float64, error) {
	return m.Loss(1, weights)
}

// ExpectedSqError returns the expected (output − input)² under prior w.
func (m *Mechanism) ExpectedSqError(weights []float64) (float64, error) {
	return m.Loss(2, weights)
}

// RMSE returns sqrt(E[(output − input)²]) under prior w, the
// root-mean-square error used in Figure 13.
func (m *Mechanism) RMSE(weights []float64) (float64, error) {
	v, err := m.Loss(2, weights)
	if err != nil {
		return 0, err
	}
	return math.Sqrt(v), nil
}

// Gaps returns the outputs that are never reported for any input (rows of
// all-zero probability within tol) — the pathology visible in Figure 1.
func (m *Mechanism) Gaps(tol float64) []int {
	if tol == 0 {
		tol = DefaultTol
	}
	var gaps []int
	for i := 0; i <= m.n; i++ {
		allZero := true
		for j := 0; j <= m.n; j++ {
			if m.p.At(i, j) > tol {
				allZero = false
				break
			}
		}
		if allZero {
			gaps = append(gaps, i)
		}
	}
	return gaps
}

// Spikes returns, for each output i, the minimum over inputs j of
// Pr[i|j]. Outputs whose minimum is large are reported often regardless of
// the input — the "spike" pathology of Figure 1. The threshold is up to
// the caller.
func (m *Mechanism) Spikes() []float64 {
	out := make([]float64, m.n+1)
	for i := 0; i <= m.n; i++ {
		minP := math.Inf(1)
		for j := 0; j <= m.n; j++ {
			if v := m.p.At(i, j); v < minP {
				minP = v
			}
		}
		out[i] = minP
	}
	return out
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
