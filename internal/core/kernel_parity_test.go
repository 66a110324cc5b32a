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
// on GM, EM and UM at sizes whose n+1 is and is not a power of two, and
// on one LP-designed mechanism.
func TestSamplerFastPathMatchesGeneric(t *testing.T) {
	type named struct {
		name string
		m    *core.Mechanism
	}
	var mechs []named
	for _, n := range []int{15, 63, 64, 1024} {
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
		}
	}
}
