// Package rng supplies the randomness substrate for privcount: seeded,
// reproducible pseudo-random sources for experiments and a crypto-quality
// source for production use of differentially private mechanisms, together
// with the distribution samplers the paper's mechanisms and workloads need
// (Bernoulli, Binomial, two-sided geometric, categorical via alias tables).
//
// Experiments in the paper are repeated 30–50 times with error bars; every
// sampler here is deterministic given a Source seed so that experiment
// output is reproducible run-to-run.
//
// The generator's step is one pure function of its two state words, so
// the alias draw kernel keeps the state in registers across a batch
// instead of storing and reloading it each draw; its draws, and so
// every seeded stream, are those of Rand's methods.
package rng

import (
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"math/bits"
	mathrand "math/rand/v2"
)

// Source produces uniform random values. It is satisfied by *Rand below
// and by CryptoSource.
type Source interface {
	// Float64 returns a uniform value in [0, 1).
	Float64() float64
	// Uint64 returns a uniform 64-bit value.
	Uint64() uint64
	// IntN returns a uniform value in [0, n). It panics if n <= 0.
	IntN(n int) int
}

// Rand is a seeded, reproducible source: math/rand/v2's PCG-DXSM
// generator with its 128-bit state held inline. Uint64 and Float64 are
// inlinable calls; IntN calls uint64n, out of line. Uint64, Float64 and
// IntN reproduce math/rand/v2's algorithms exactly, and Perm and Shuffle run
// math/rand/v2's own code over the same state, so every stream is
// bit-for-bit that of rand.New(rand.NewPCG(...)) seeded the same way.
// A Rand is not safe for concurrent use; create one per goroutine (Split
// derives independent streams).
type Rand struct {
	hi, lo uint64 // PCG state, as math/rand/v2's PCG
	id     uint64
}

// New returns a reproducible source seeded from seed.
func New(seed uint64) *Rand {
	return &Rand{hi: seed, lo: seed ^ 0x9e3779b97f4a7c15, id: seed}
}

// StreamID identifies the source's stream: the seed for New, the mint
// number for Pool-minted sources. Concurrent consumers use it to stripe
// per-stream state (e.g. statistics counters) without contention.
func (r *Rand) StreamID() uint64 { return r.id }

// Split derives an independent stream from r, keyed by id. Two Splits of
// the same source with different ids produce uncorrelated streams, which
// lets parallel experiment repetitions share one master seed.
func (r *Rand) Split(id uint64) *Rand {
	hi := r.Uint64()
	return &Rand{hi: hi ^ id, lo: id*0xbf58476d1ce4e5b9 + 1}
}

// Uint64 returns a uniform 64-bit value: one PCG step, as math/rand/v2's
// PCG.Uint64.
func (r *Rand) Uint64() (v uint64) {
	r.hi, r.lo, v = step(r.hi, r.lo)
	return
}

// Float64 returns a uniform value in [0, 1): the low 53 bits of one
// Uint64 over 2⁵³, as math/rand/v2's Rand.Float64.
func (r *Rand) Float64() float64 { return unit(r.Uint64()) }

// IntN returns a uniform value in [0, n). It panics if n <= 0.
func (r *Rand) IntN(n int) int {
	if n <= 0 {
		panic("invalid argument to IntN")
	}
	var v uint64
	r.hi, r.lo, v = uint64n(r.hi, r.lo, uint64(n))
	return int(v)
}

// step is the PCG generator as a pure function of its state: one step
// of the 128-bit LCG from (hi, lo), then the DXSM output function of the
// new state, as math/rand/v2's PCG.Uint64. A draw loop passes the state
// through it in locals, so the state stays in registers.
func step(hi, lo uint64) (nhi, nlo, v uint64) {
	const (
		mulHi = 2549297995355413924
		mulLo = 4865540595714422341
		incHi = 6364136223846793005
		incLo = 1442695040888963407
	)
	// state = state * mul + inc, mod 2¹²⁸
	nhi, nlo = bits.Mul64(lo, mulLo)
	nlo, c := bits.Add64(nlo, incLo, 0)
	nhi += hi*mulLo + lo*mulHi + incHi + c

	// DXSM "double xorshift multiply".
	v = (nhi ^ nhi>>32) * 0xda942042e4dd58b5
	v = (v ^ v>>48) * (nlo | 1)
	return
}

// unit maps one step's output to [0, 1), as Float64.
func unit(v uint64) float64 { return float64(v<<11>>11) / (1 << 53) }

// uint64n is math/rand/v2's Rand.uint64n over the state (hi, lo): one
// step, masked for a power-of-two n, otherwise reduced by Lemire's
// multiply-shift, whose rare rejection runs out of line. It returns the
// advanced state and a uniform value in [0, n).
func uint64n(hi, lo, n uint64) (nhi, nlo, v uint64) {
	hi, lo, v = step(hi, lo)
	if n&(n-1) == 0 {
		return hi, lo, v & (n - 1)
	}
	prod, low := bits.Mul64(v, n)
	if low < n {
		return lemireReject(hi, lo, n, prod, low)
	}
	return hi, lo, prod
}

// lemireReject finishes a Lemire reduction whose product's low half
// fell below n: it steps again while the low half is under the
// threshold 2⁶⁴ mod n, and returns the state and the accepted high half.
//
//go:noinline
func lemireReject(hi, lo, n, prod, low uint64) (nhi, nlo, v uint64) {
	thresh := -n % n
	for low < thresh {
		hi, lo, v = step(hi, lo)
		prod, low = bits.Mul64(v, n)
	}
	return hi, lo, prod
}

// Perm returns a random permutation of [0, n), drawn by math/rand/v2's
// Rand.Perm over r's stream.
func (r *Rand) Perm(n int) []int { return mathrand.New(r).Perm(n) }

// Shuffle randomises the order of n elements using swap, by
// math/rand/v2's Rand.Shuffle over r's stream.
func (r *Rand) Shuffle(n int, swap func(i, j int)) { mathrand.New(r).Shuffle(n, swap) }

// CryptoSource is a Source backed by crypto/rand. It is safe for
// concurrent use and suitable for releasing real data under differential
// privacy, where a predictable PRNG would undermine the guarantee.
type CryptoSource struct{}

// Uint64 returns a uniform 64-bit value from the operating system CSPRNG.
// It panics if the system source fails, as no meaningful recovery exists.
func (CryptoSource) Uint64() uint64 {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("rng: crypto source failed: %v", err))
	}
	return binary.LittleEndian.Uint64(b[:])
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (c CryptoSource) Float64() float64 {
	return float64(c.Uint64()>>11) / (1 << 53)
}

// IntN returns a uniform value in [0, n) by rejection sampling.
func (c CryptoSource) IntN(n int) int {
	if n <= 0 {
		panic("rng: IntN with non-positive n")
	}
	max := ^uint64(0) - ^uint64(0)%uint64(n)
	for {
		v := c.Uint64()
		if v < max {
			return int(v % uint64(n))
		}
	}
}

// Bernoulli returns true with probability p using src.
func Bernoulli(src Source, p float64) bool {
	return src.Float64() < p
}

// Binomial draws from Binomial(n, p) by inversion on the CDF, which is
// exact and fast for the group sizes used in the paper (n up to a few
// hundred). It panics if n < 0 or p is outside [0, 1].
func Binomial(src Source, n int, p float64) int {
	if n < 0 {
		panic("rng: Binomial with negative n")
	}
	if p < 0 || p > 1 {
		panic(fmt.Sprintf("rng: Binomial with p=%v outside [0,1]", p))
	}
	if n == 0 || p == 0 {
		return 0
	}
	if p == 1 {
		return n
	}
	// Inversion: walk the pmf ratio Pr[k+1]/Pr[k] = (n-k)/(k+1) · p/(1-p).
	u := src.Float64()
	q := 1 - p
	ratio := p / q
	// Pr[0] = q^n; accumulate until the CDF passes u.
	pk := 1.0
	for i := 0; i < n; i++ {
		pk *= q
	}
	cdf := pk
	k := 0
	for cdf < u && k < n {
		pk *= ratio * float64(n-k) / float64(k+1)
		cdf += pk
		k++
	}
	return k
}

// TwoSidedGeometric draws δ with Pr[δ] = (1−α)·α^|δ| / (1+α) for δ ∈ ℤ,
// the noise distribution of the truncated Geometric mechanism (Def 4 of
// the paper). It panics unless 0 < alpha < 1.
func TwoSidedGeometric(src Source, alpha float64) int {
	if alpha <= 0 || alpha >= 1 {
		panic(fmt.Sprintf("rng: TwoSidedGeometric with alpha=%v outside (0,1)", alpha))
	}
	// Magnitude |δ| has Pr[0] = (1−α)/(1+α) and Pr[m] = 2α^m(1−α)/(1+α)
	// for m ≥ 1. Sample by inversion on the geometric tail, then a sign.
	u := src.Float64()
	p0 := (1 - alpha) / (1 + alpha)
	if u < p0 {
		return 0
	}
	// Conditioned on δ ≠ 0, |δ| is Geometric(1−α) on {1, 2, ...} and the
	// sign is uniform.
	m := 1
	rem := (u - p0) / (1 - p0) // uniform in [0,1)
	// Split the sign first to keep inversion one-dimensional.
	neg := rem < 0.5
	if neg {
		rem *= 2
	} else {
		rem = (rem - 0.5) * 2
	}
	cdf := 1 - alpha
	pk := 1 - alpha
	for cdf < rem && m < 1<<20 {
		pk *= alpha
		cdf += pk
		m++
	}
	if neg {
		return -m
	}
	return m
}

// GeometricNoise applies two-sided geometric noise to value and clamps to
// [0, n] — exactly the paper's truncated Geometric mechanism applied to a
// true count. It is provided so callers can sample GM without
// materialising its matrix.
func GeometricNoise(src Source, value, n int, alpha float64) int {
	out := value + TwoSidedGeometric(src, alpha)
	if out < 0 {
		return 0
	}
	if out > n {
		return n
	}
	return out
}
