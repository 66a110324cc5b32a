package core

import (
	"fmt"
	"math"

	"privcount/internal/mat"
)

// This file contains the explicit mechanism constructions: the paper's
// named mechanisms (GM — Definition 4/Fig 3, EM — Eq 16/Fig 4, UM —
// Definition 5) and the comparators discussed in §II-B (randomized
// response, k-ary randomized response, the exponential mechanism, and the
// rounded-and-truncated Laplace mechanism).

// checkNAlpha validates common constructor arguments.
func checkNAlpha(who string, n int, alpha float64) error {
	if n < 1 {
		return fmt.Errorf("core: %s: group size n=%d, want >= 1: %w", who, n, ErrInvalidMechanism)
	}
	if alpha <= 0 || alpha >= 1 {
		return fmt.Errorf("core: %s: alpha=%v, want 0 < alpha < 1: %w", who, alpha, ErrInvalidMechanism)
	}
	return nil
}

// Geometric constructs the range-restricted (truncated) Geometric
// mechanism GM of Definition 4: add two-sided geometric noise with ratio α
// to the true count and clamp to [0, n]. Its matrix has the structure of
// Fig 3 with x = 1/(1+α) and y = (1−α)/(1+α).
func Geometric(n int, alpha float64) (*Mechanism, error) {
	if err := checkNAlpha("Geometric", n, alpha); err != nil {
		return nil, err
	}
	x := 1 / (1 + alpha)
	y := (1 - alpha) / (1 + alpha)
	p := mat.NewDense(n+1, n+1)
	for j := 0; j <= n; j++ {
		for i := 0; i <= n; i++ {
			switch i {
			case 0:
				p.Set(i, j, x*math.Pow(alpha, float64(j)))
			case n:
				p.Set(i, j, x*math.Pow(alpha, float64(n-j)))
			default:
				p.Set(i, j, y*math.Pow(alpha, float64(abs(i-j))))
			}
		}
	}
	return adopt("GM", n, alpha, p)
}

// GeometricL0 returns GM's closed-form rescaled L0 score 2α/(1+α)
// (§IV-B), which is independent of n.
func GeometricL0(alpha float64) float64 {
	return 2 * alpha / (1 + alpha)
}

// GeometricWeakHonestyThreshold returns 2α/(1−α): by Lemma 2, GM is weakly
// honest iff n ≥ this value.
func GeometricWeakHonestyThreshold(alpha float64) float64 {
	return 2 * alpha / (1 - alpha)
}

// explicitFairExponent returns the entry exponent E[i][j] of the explicit
// fair mechanism (Eq 16): |i−j| when |i−j| < min(j, n−j), else
// ⌈(|i−j| + min(j, n−j))/2⌉.
func explicitFairExponent(n, i, j int) int {
	d := abs(i - j)
	edge := j
	if n-j < edge {
		edge = n - j
	}
	if d < edge {
		return d
	}
	return (d + edge + 1) / 2 // integer ceil of (d+edge)/2
}

// ExplicitFair constructs the paper's novel explicit fair mechanism EM
// (Eq 16, Fig 4): entries are y·α^E[i][j] where every column holds the
// same multiset of exponents, so a single normaliser y makes all columns
// sum to one. EM is fair, symmetric, row- and column-monotone, weakly
// honest, and L0-optimal among fair mechanisms (Theorem 4).
func ExplicitFair(n int, alpha float64) (*Mechanism, error) {
	if err := checkNAlpha("ExplicitFair", n, alpha); err != nil {
		return nil, err
	}
	// Normalise using column 0's exponent multiset; construction
	// guarantees every column shares it (verified below).
	var s0 float64
	for i := 0; i <= n; i++ {
		s0 += math.Pow(alpha, float64(explicitFairExponent(n, i, 0)))
	}
	y := 1 / s0
	p := mat.NewDense(n+1, n+1)
	for j := 0; j <= n; j++ {
		var colSum float64
		for i := 0; i <= n; i++ {
			colSum += math.Pow(alpha, float64(explicitFairExponent(n, i, j)))
		}
		if math.Abs(colSum-s0) > 1e-9*s0 {
			return nil, fmt.Errorf("core: ExplicitFair: column %d multiset sum %g != %g: %w",
				j, colSum, s0, ErrInvalidMechanism)
		}
		for i := 0; i <= n; i++ {
			p.Set(i, j, y*math.Pow(alpha, float64(explicitFairExponent(n, i, j))))
		}
	}
	return adopt("EM", n, alpha, p)
}

// ExplicitFairY returns EM's diagonal value y: the exact normaliser of the
// shared column multiset. For even n this equals Lemma 4's bound
// (1−α)/(1+α−2α^{n/2+1}); for odd n the multiset has a single extreme term
// α^{(n+1)/2}, giving (1−α)/(1+α−α^{(n+1)/2}−α^{(n+3)/2}).
func ExplicitFairY(n int, alpha float64) float64 {
	var s float64
	for i := 0; i <= n; i++ {
		s += math.Pow(alpha, float64(explicitFairExponent(n, i, 0)))
	}
	return 1 / s
}

// ExplicitFairL0 returns EM's rescaled L0 score (n+1)(1−y)/n, following
// Lemma 1 and Eq 1.
func ExplicitFairL0(n int, alpha float64) float64 {
	y := ExplicitFairY(n, alpha)
	return float64(n+1) / float64(n) * (1 - y)
}

// FairDiagonalBound returns Lemma 4's upper bound on the diagonal value
// of any fair α-DP mechanism: (1−α)/(1+α−2α^{n/2+1}). The lemma's proof
// takes n even, where EM attains the bound exactly; for odd n the middle
// column does not exist and the attainable optimum (ExplicitFairY) sits
// marginally above this real-valued-n/2 formula — the "slight
// differences depending on whether we consider odd or even values of n"
// the paper notes.
func FairDiagonalBound(n int, alpha float64) float64 {
	return (1 - alpha) / (1 + alpha - 2*math.Pow(alpha, float64(n)/2+1))
}

// Uniform constructs the uniform mechanism UM (Definition 5):
// Pr[i|j] = 1/(n+1) regardless of the input. UM satisfies every structural
// property and every α, and has rescaled L0 score exactly 1.
func Uniform(n int) (*Mechanism, error) {
	if n < 1 {
		return nil, fmt.Errorf("core: Uniform: group size n=%d, want >= 1: %w", n, ErrInvalidMechanism)
	}
	p := mat.NewDense(n+1, n+1)
	v := 1 / float64(n+1)
	for j := 0; j <= n; j++ {
		for i := 0; i <= n; i++ {
			p.Set(i, j, v)
		}
	}
	return adopt("UM", n, 0, p)
}

// RandomizedResponse constructs the classic one-bit randomized response
// mechanism (§II-B): report the truth with probability 1/(1+α), else the
// negation. It coincides with GM at n = 1 and is the unique optimal α-DP
// mechanism for n = 1 under any O_{p,Σ} objective.
func RandomizedResponse(alpha float64) (*Mechanism, error) {
	m, err := Geometric(1, alpha)
	if err != nil {
		return nil, err
	}
	return m.Rename("RR"), nil
}

// KRR constructs Geng et al.'s k-ary extension of randomized response over
// the n+1 outputs: report the true count with probability p, else one of
// the other n outputs uniformly, with p = 1/(1+nα) chosen to make the DP
// constraint tight. The paper notes this gives low utility for count
// queries; it is provided as a comparator.
func KRR(n int, alpha float64) (*Mechanism, error) {
	if err := checkNAlpha("KRR", n, alpha); err != nil {
		return nil, err
	}
	truth := 1 / (1 + float64(n)*alpha)
	other := (1 - truth) / float64(n)
	p := mat.NewDense(n+1, n+1)
	for j := 0; j <= n; j++ {
		for i := 0; i <= n; i++ {
			if i == j {
				p.Set(i, j, truth)
			} else {
				p.Set(i, j, other)
			}
		}
	}
	return adopt("KRR", n, alpha, p)
}

// Exponential constructs McSherry–Talwar's exponential mechanism (Eq 2)
// for count queries with quality function q(input, output); nil selects
// the natural q = −|i−j|. With ε = −ln α and sensitivity s computed over
// neighbouring inputs, Pr[i|j] ∝ exp(ε·q(j,i)/(2s)). As the paper notes,
// the factor 2 makes this weaker than explicit constructions: the
// resulting matrix is exp(−ε)-DP by theory but typically slacker.
func Exponential(n int, alpha float64, quality func(input, output int) float64) (*Mechanism, error) {
	if err := checkNAlpha("Exponential", n, alpha); err != nil {
		return nil, err
	}
	if quality == nil {
		quality = func(input, output int) float64 { return -math.Abs(float64(input - output)) }
	}
	eps := -math.Log(alpha)
	// Sensitivity: max over outputs of |q(j,r) − q(j+1,r)|.
	var s float64
	for j := 0; j < n; j++ {
		for r := 0; r <= n; r++ {
			if d := math.Abs(quality(j, r) - quality(j+1, r)); d > s {
				s = d
			}
		}
	}
	if s == 0 {
		return nil, fmt.Errorf("core: Exponential: quality has zero sensitivity: %w", ErrInvalidMechanism)
	}
	p := mat.NewDense(n+1, n+1)
	for j := 0; j <= n; j++ {
		var z float64
		raw := make([]float64, n+1)
		for i := 0; i <= n; i++ {
			raw[i] = math.Exp(eps * quality(j, i) / (2 * s))
			z += raw[i]
		}
		for i := 0; i <= n; i++ {
			p.Set(i, j, raw[i]/z)
		}
	}
	return adopt("EXP", n, alpha, p)
}

// TruncatedLaplace constructs the rounded-and-truncated continuous Laplace
// mechanism: add Laplace(b) noise with b = −1/ln α, round to the nearest
// integer, and clamp to [0, n]. Rounding and clamping are post-processing,
// so the result remains α-DP; it is the continuous counterpart the paper
// contrasts with GM in §II-B.
func TruncatedLaplace(n int, alpha float64) (*Mechanism, error) {
	if err := checkNAlpha("TruncatedLaplace", n, alpha); err != nil {
		return nil, err
	}
	b := -1 / math.Log(alpha)
	// CDF of Laplace(0, b).
	cdf := func(t float64) float64 {
		if t < 0 {
			return 0.5 * math.Exp(t/b)
		}
		return 1 - 0.5*math.Exp(-t/b)
	}
	p := mat.NewDense(n+1, n+1)
	for j := 0; j <= n; j++ {
		for i := 0; i <= n; i++ {
			var v float64
			lo := float64(i-j) - 0.5
			hi := float64(i-j) + 0.5
			switch i {
			case 0:
				v = cdf(hi) // everything below 0.5 collapses to output 0
			case n:
				v = 1 - cdf(lo)
			default:
				v = cdf(hi) - cdf(lo)
			}
			p.Set(i, j, v)
		}
	}
	return adopt("LAP", n, alpha, p)
}
