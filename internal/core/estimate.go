package core

import (
	"fmt"
	"math"

	"privcount/internal/mat"
)

// This file provides downstream estimators. The paper motivates the L0
// objective by wanting the reported answer to be the maximum likelihood
// estimate of the truth (§II-A); these helpers make that use explicit and
// add a linear debiasing estimator for aggregate statistics.

// MLETable returns, for each observed output i, the input j maximising the
// likelihood Pr[i|j] (ties broken toward the smaller input). When the
// mechanism is column honest the table is the identity, which is the
// paper's argument for reporting mechanism outputs directly.
func (m *Mechanism) MLETable() []int {
	table := make([]int, m.n+1)
	for i := 0; i <= m.n; i++ {
		best, bestJ := -1.0, 0
		for j := 0; j <= m.n; j++ {
			if v := m.p.At(i, j); v > best+1e-15 {
				best, bestJ = v, j
			}
		}
		table[i] = bestJ
	}
	return table
}

// Posterior returns the posterior distribution over inputs given observed
// output i under prior weights (nil = uniform): Pr[j|i] ∝ w_j·Pr[i|j].
func (m *Mechanism) Posterior(i int, weights []float64) ([]float64, error) {
	if i < 0 || i > m.n {
		return nil, fmt.Errorf("core: Posterior: output %d out of range [0,%d]: %w", i, m.n, ErrInvalidMechanism)
	}
	w, err := m.checkWeights(weights)
	if err != nil {
		return nil, err
	}
	post := make([]float64, m.n+1)
	var z float64
	for j := 0; j <= m.n; j++ {
		post[j] = w[j] * m.p.At(i, j)
		z += post[j]
	}
	if z == 0 {
		return nil, fmt.Errorf("core: Posterior: output %d has zero probability under prior: %w", i, ErrInvalidMechanism)
	}
	for j := range post {
		post[j] /= z
	}
	return post, nil
}

// UnbiasedEstimator returns per-output values a such that
// E[a[output] | input = j] = j for every input j, by solving Pᵀ·a = (0…n).
// The estimator exists when the mechanism matrix is invertible (true for
// GM, EM, and the LP mechanisms at α < 1; false for UM, which ignores its
// input). Applying a to each noisy release and summing yields unbiased
// aggregate counts. The solve is a dense O(n³) elimination on a single
// (n+1)² working copy of Pᵀ.
func (m *Mechanism) UnbiasedEstimator() ([]float64, error) {
	target := make([]float64, m.n+1)
	for j := range target {
		target[j] = float64(j)
	}
	a, err := mat.SolveTransposed(m.p, target)
	if err != nil {
		return nil, fmt.Errorf("core: UnbiasedEstimator for %s: %w", m.name, err)
	}
	return a, nil
}

// EstimatorVariance returns the variance of the unbiased estimator a for
// each true input j: Var[a[output] | input=j] = Σ_i P[i][j]·a[i]² − j².
func (m *Mechanism) EstimatorVariance(a []float64) ([]float64, error) {
	if len(a) != m.n+1 {
		return nil, fmt.Errorf("core: EstimatorVariance: estimator has %d entries, want %d: %w",
			len(a), m.n+1, ErrInvalidMechanism)
	}
	out := make([]float64, m.n+1)
	for j := 0; j <= m.n; j++ {
		var mean, second float64
		for i := 0; i <= m.n; i++ {
			mean += m.p.At(i, j) * a[i]
			second += m.p.At(i, j) * a[i] * a[i]
		}
		out[j] = second - mean*mean
		if out[j] < 0 && out[j] > -1e-9 {
			out[j] = 0
		}
	}
	return out, nil
}

// PosteriorMean returns E[input | output = i] under prior weights,
// a Bayes estimator useful when a prior over counts is credible.
func (m *Mechanism) PosteriorMean(i int, weights []float64) (float64, error) {
	post, err := m.Posterior(i, weights)
	if err != nil {
		return 0, err
	}
	var mean float64
	for j, p := range post {
		mean += float64(j) * p
	}
	return mean, nil
}

// ExpectedMLERisk returns Pr[MLE decode ≠ input] under prior weights: the
// wrong-answer rate after replacing each output by its maximum-likelihood
// input. For column-honest mechanisms this equals the raw wrong-answer
// rate.
func (m *Mechanism) ExpectedMLERisk(weights []float64) (float64, error) {
	w, err := m.checkWeights(weights)
	if err != nil {
		return 0, err
	}
	table := m.MLETable()
	var risk float64
	for j := 0; j <= m.n; j++ {
		var correct float64
		for i := 0; i <= m.n; i++ {
			if table[i] == j {
				correct += m.p.At(i, j)
			}
		}
		risk += w[j] * (1 - correct)
	}
	return risk, nil
}

// Bias returns E[output | input=j] − j for each input j: the per-input
// bias of reading the mechanism output as the answer. GM is biased toward
// the interior at the extremes; EM is symmetric around the midpoint.
func (m *Mechanism) Bias() []float64 {
	out := make([]float64, m.n+1)
	for j := 0; j <= m.n; j++ {
		var mean float64
		for i := 0; i <= m.n; i++ {
			mean += float64(i) * m.p.At(i, j)
		}
		out[j] = mean - float64(j)
	}
	return out
}

// MaxAbsBias returns the largest |bias| over inputs.
func (m *Mechanism) MaxAbsBias() float64 {
	var worst float64
	for _, b := range m.Bias() {
		if a := math.Abs(b); a > worst {
			worst = a
		}
	}
	return worst
}
