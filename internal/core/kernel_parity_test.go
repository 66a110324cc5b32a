package core_test

import (
	"fmt"
	"slices"
	"testing"

	"privcount/internal/core"
	"privcount/internal/design"
	"privcount/internal/rng"
)

// opaque hides a *rng.Rand behind rng.Source, so the sampler's draw
// kernel takes its generic path over the same stream.
type opaque struct{ r *rng.Rand }

func (o opaque) Float64() float64 { return o.r.Float64() }
func (o opaque) Uint64() uint64   { return o.r.Uint64() }
func (o opaque) IntN(n int) int   { return o.r.IntN(n) }

// TestSamplerFastPathMatchesGeneric holds the *rng.Rand fast path of
// every Sampler draw method to the generic Source path, draw for draw,
// on GM, EM and UM at sizes whose n+1 is and is not a power of two
// (n = 1 gives k = 2 outcomes), and on one LP-designed mechanism. A bad
// count mid-batch must panic alike on both paths, after the same
// draws. The fast path keeps the stream state in locals, so it must
// write it back before the panic.
func TestSamplerFastPathMatchesGeneric(t *testing.T) {
	type named struct {
		name string
		m    *core.Mechanism
	}
	var mechs []named
	for _, n := range []int{1, 15, 63, 64, 1024} {
		gm, err := core.Geometric(n, 0.9)
		if err != nil {
			t.Fatal(err)
		}
		em, err := core.ExplicitFair(n, 0.8)
		if err != nil {
			t.Fatal(err)
		}
		um, err := core.Uniform(n)
		if err != nil {
			t.Fatal(err)
		}
		mechs = append(mechs, named{fmt.Sprintf("gm:n=%d", n), gm},
			named{fmt.Sprintf("em:n=%d", n), em}, named{fmt.Sprintf("um:n=%d", n), um})
	}
	wm, err := design.WM(16, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	mechs = append(mechs, named{"wm:n=16", wm})

	for _, mc := range mechs {
		s, err := core.NewSampler(mc.m)
		if err != nil {
			t.Fatal(err)
		}
		k := mc.m.N() + 1
		js := make([]int, 300)
		for i := range js {
			js[i] = (i * 7919) % k
		}
		for seed := uint64(0); seed < 4; seed++ {
			fast, generic := rng.New(seed), opaque{rng.New(seed)}
			for i := 0; i < 50; i++ {
				if g, w := s.Sample(fast, js[i]), s.Sample(generic, js[i]); g != w {
					t.Fatalf("%s seed %d: Sample draw %d: fast %d, generic %d", mc.name, seed, i, g, w)
				}
			}
			got, want := make([]int, len(js)), make([]int, len(js))
			s.SampleManyInto(fast, js, got)
			s.SampleManyInto(generic, js, want)
			if !slices.Equal(got, want) {
				t.Fatalf("%s seed %d: SampleManyInto fast path differs from generic", mc.name, seed)
			}
			s.SampleBatchInto(fast, k/2, got)
			s.SampleBatchInto(generic, k/2, want)
			if !slices.Equal(got, want) {
				t.Fatalf("%s seed %d: SampleBatchInto fast path differs from generic", mc.name, seed)
			}
			// The two paths leave their streams at the same point.
			if g, w := fast.Uint64(), generic.Uint64(); g != w {
				t.Fatalf("%s seed %d: streams diverged after the draws", mc.name, seed)
			}

			bad := slices.Clone(js)
			bad[len(bad)/2] = k
			for i := range got {
				got[i], want[i] = -1, -1
			}
			gotMsg := panicText(func() { s.SampleManyInto(fast, bad, got) })
			wantMsg := panicText(func() { s.SampleManyInto(generic, bad, want) })
			if gotMsg == "" || gotMsg != wantMsg {
				t.Fatalf("%s seed %d: bad count panics %q on the fast path, %q on the generic", mc.name, seed, gotMsg, wantMsg)
			}
			if !slices.Equal(got, want) || got[len(bad)/2-1] == -1 || got[len(bad)/2] != -1 {
				t.Fatalf("%s seed %d: draws before the bad count differ between the paths", mc.name, seed)
			}
			if g, w := fast.Uint64(), generic.Uint64(); g != w {
				t.Fatalf("%s seed %d: streams diverged after the bad count's panic", mc.name, seed)
			}
		}
	}
}

// TestAliasKernelSmallTables holds the fast path to the generic one on
// slabs of k = 1 and k = 2 outcomes, the smallest the mask path takes:
// k = 1 draws from a zero mask. A sampler has at least two outcomes, so
// these are built directly.
func TestAliasKernelSmallTables(t *testing.T) {
	for _, weights := range [][]float64{{1}, {0.3, 0.7}} {
		k := len(weights)
		slab := rng.NewAliasSlab(k, 3)
		var v rng.Vose
		for c := 0; c < 3; c++ {
			prob, alias := slab.Column(c)
			if err := v.Fill(prob, alias, weights); err != nil {
				t.Fatal(err)
			}
		}
		cols := make([]int, 100)
		for i := range cols {
			cols[i] = i % 3
		}
		for seed := uint64(0); seed < 4; seed++ {
			fast, generic := rng.New(seed), opaque{rng.New(seed)}
			got, want := make([]int, len(cols)), make([]int, len(cols))
			slab.SampleColumnsInto(fast, cols, got)
			slab.SampleColumnsInto(generic, cols, want)
			if !slices.Equal(got, want) {
				t.Fatalf("k=%d seed %d: SampleColumnsInto fast path differs from generic", k, seed)
			}
			slab.SampleColumnInto(fast, 1, got)
			slab.SampleColumnInto(generic, 1, want)
			if !slices.Equal(got, want) {
				t.Fatalf("k=%d seed %d: SampleColumnInto fast path differs from generic", k, seed)
			}
			if g, w := fast.Uint64(), generic.Uint64(); g != w {
				t.Fatalf("k=%d seed %d: streams diverged after the draws", k, seed)
			}
		}
	}
}
