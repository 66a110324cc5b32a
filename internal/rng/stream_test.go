package rng

import (
	"math"
	mathrand "math/rand/v2"
	"slices"
	"testing"
)

// refRand is the stream New(seed) must reproduce bit for bit:
// math/rand/v2's PCG behind its Rand, seeded as New documents.
func refRand(seed uint64) *mathrand.Rand {
	return mathrand.New(mathrand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
}

// intNBounds covers IntN's three paths: n = 1, powers of two (mask),
// and everything else (Lemire), with n = MaxInt64 rejecting about half
// its first products.
var intNBounds = func() []int {
	ns := []int{1, math.MaxInt64, math.MaxInt64 - 1, 1<<62 + 1}
	for s := 1; s < 63; s++ {
		ns = append(ns, 1<<s)
	}
	for n := 2; n <= 5000; n += 7 {
		ns = append(ns, n)
	}
	return ns
}()

func TestRandMatchesMathRand(t *testing.T) {
	for seed := uint64(0); seed < 200; seed++ {
		got, want := New(seed), refRand(seed)
		for _, n := range intNBounds {
			if g, w := got.IntN(n), want.IntN(n); g != w {
				t.Fatalf("seed %d: IntN(%d) = %d, math/rand/v2 %d", seed, n, g, w)
			}
		}
		// Above 2⁶³ only the unexported reduction is reachable; its
		// rejection loop runs on about half of these draws.
		for _, n := range []uint64{1<<63 + 1, 1<<63 + 12345, math.MaxUint64} {
			var g uint64
			got.hi, got.lo, g = uint64n(got.hi, got.lo, n)
			if w := want.Uint64N(n); g != w {
				t.Fatalf("seed %d: uint64n(%d) = %d, math/rand/v2 %d", seed, n, g, w)
			}
		}
		for i := 0; i < 16; i++ {
			if g, w := got.Float64(), want.Float64(); g != w {
				t.Fatalf("seed %d: Float64 = %v, math/rand/v2 %v", seed, g, w)
			}
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("seed %d: Uint64 = %d, math/rand/v2 %d", seed, g, w)
			}
		}
		if g, w := got.Perm(37), want.Perm(37); !slices.Equal(g, w) {
			t.Fatalf("seed %d: Perm = %v, math/rand/v2 %v", seed, g, w)
		}
		g, w := make([]int, 50), make([]int, 50)
		for i := range g {
			g[i], w[i] = i, i
		}
		got.Shuffle(len(g), func(i, j int) { g[i], g[j] = g[j], g[i] })
		want.Shuffle(len(w), func(i, j int) { w[i], w[j] = w[j], w[i] })
		if !slices.Equal(g, w) {
			t.Fatalf("seed %d: Shuffle = %v, math/rand/v2 %v", seed, g, w)
		}
		// The streams still agree after every call above.
		if g, w := got.Uint64(), want.Uint64(); g != w {
			t.Fatalf("seed %d: streams diverged: %d, math/rand/v2 %d", seed, g, w)
		}
	}
}

// TestUint64nMatchesMathRand holds the state-passing uint64n to
// math/rand/v2's PCG and Uint64N over 10⁴ draws from one seed, at n = 3
// and at n = 2⁶³+1, where about half the draws take lemireReject: the
// draw kernel's table sizes practically never reach that path.
func TestUint64nMatchesMathRand(t *testing.T) {
	const seed, draws = 29, 10000
	for _, n := range []uint64{3, 1<<63 + 1} {
		r, want := New(seed), refRand(seed)
		hi, lo := r.hi, r.lo
		rejected := 0
		for i := 0; i < draws; i++ {
			nextHi, nextLo, _ := step(hi, lo)
			var g uint64
			hi, lo, g = uint64n(hi, lo, n)
			if w := want.Uint64N(n); g != w {
				t.Fatalf("n=%d draw %d: uint64n = %d, math/rand/v2 %d", n, i, g, w)
			}
			if hi != nextHi || lo != nextLo {
				rejected++
			}
		}
		r.hi, r.lo = hi, lo
		if g, w := r.Uint64(), want.Uint64(); g != w {
			t.Fatalf("n=%d: streams diverged after the draws: %d, math/rand/v2 %d", n, g, w)
		}
		if n > 1<<63 && rejected < draws/3 {
			t.Errorf("n=%d: %d of %d draws rejected, want about half", n, rejected, draws)
		}
	}
}

func TestSplitMatchesMathRand(t *testing.T) {
	for seed := uint64(0); seed < 200; seed++ {
		base, ref := New(seed), refRand(seed)
		for id := uint64(0); id < 3; id++ {
			got := base.Split(id)
			hi := ref.Uint64()
			want := mathrand.New(mathrand.NewPCG(hi^id, id*0xbf58476d1ce4e5b9+1))
			for i := 0; i < 8; i++ {
				if g, w := got.IntN(1000), want.IntN(1000); g != w {
					t.Fatalf("seed %d Split(%d): IntN = %d, math/rand/v2 %d", seed, id, g, w)
				}
				if g, w := got.Float64(), want.Float64(); g != w {
					t.Fatalf("seed %d Split(%d): Float64 = %v, math/rand/v2 %v", seed, id, g, w)
				}
			}
		}
	}
}

func TestPoolSourcesMatchMathRand(t *testing.T) {
	for seed := uint64(1); seed <= 200; seed++ {
		p := NewPool(seed)
		got := p.Get()
		// The first minted source has id 1, seeded by NewPool's
		// splitmix64 mix of the pool seed and the id.
		z := seed + 1*0x9e3779b97f4a7c15
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		want := refRand(z ^ (z >> 31))
		if got.StreamID() != 1 {
			t.Fatalf("pool seed %d: first source has stream %d, want 1", seed, got.StreamID())
		}
		for i := 0; i < 8; i++ {
			if g, w := got.IntN(257), want.IntN(257); g != w {
				t.Fatalf("pool seed %d: IntN = %d, math/rand/v2 %d", seed, g, w)
			}
			if g, w := got.Float64(), want.Float64(); g != w {
				t.Fatalf("pool seed %d: Float64 = %v, math/rand/v2 %v", seed, g, w)
			}
		}
	}
}

func TestNewAllocatesOnce(t *testing.T) {
	var sink *Rand
	if n := testing.AllocsPerRun(100, func() { sink = New(5) }); n != 1 {
		t.Errorf("New allocated %.0f times, want 1", n)
	}
	_ = sink
}

// opaque hides a *Rand behind Source, so the draw kernel takes its
// generic path over the same stream.
type opaque struct{ r *Rand }

func (o opaque) Float64() float64 { return o.r.Float64() }
func (o opaque) Uint64() uint64   { return o.r.Uint64() }
func (o opaque) IntN(n int) int   { return o.r.IntN(n) }

func TestAliasSampleFastPathMatchesGeneric(t *testing.T) {
	for _, weights := range [][]float64{
		{0.05, 0.3, 0.15, 0.4, 0.1},
		{1, 0, 2, 0, 5, 1, 1, 3}, // 8 outcomes: the mask path
		{1},
	} {
		a, err := newAlias(weights)
		if err != nil {
			t.Fatal(err)
		}
		for seed := uint64(0); seed < 20; seed++ {
			fast, generic := New(seed), opaque{New(seed)}
			for i := 0; i < 200; i++ {
				if g, w := a.Sample(fast, 0), a.Sample(generic, 0); g != w {
					t.Fatalf("weights %v seed %d draw %d: fast path %d, generic %d", weights, seed, i, g, w)
				}
			}
		}
	}
}
