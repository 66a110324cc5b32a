package core_test

import (
	"fmt"
	"slices"
	"testing"

	"privcount/internal/core"
	"privcount/internal/design"
	"privcount/internal/rng"
)

// perColumnSlab fills one alias table per column of m, the layout every
// mechanism had before identical columns shared a table.
func perColumnSlab(t *testing.T, m *core.Mechanism) rng.AliasSlab {
	t.Helper()
	k := m.N() + 1
	slab := rng.NewAliasSlab(k, k)
	var v rng.Vose
	for j := 0; j < k; j++ {
		prob, alias := slab.Column(j)
		if err := v.Fill(prob, alias, m.Column(j)); err != nil {
			t.Fatal(err)
		}
	}
	return slab
}

// panicText runs f and returns what it panicked with, or "".
func panicText(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	f()
	return ""
}

// TestUniformSharesOneTable: UM's identical columns share one alias
// table, and every draw method takes exactly the draws a per-column
// slab takes, from a *rng.Rand and from a generic Source alike.
func TestUniformSharesOneTable(t *testing.T) {
	for _, n := range []int{1, 63, 64, 1024} {
		um, err := core.Uniform(n)
		if err != nil {
			t.Fatal(err)
		}
		s, err := core.NewSampler(um)
		if err != nil {
			t.Fatal(err)
		}
		k := n + 1
		if got, want := s.Bytes(), 12*k; got != want {
			t.Errorf("um:n=%d: sampler holds %d bytes, want one shared table of %d", n, got, want)
		}
		ref := perColumnSlab(t, um)
		js := make([]int, 500)
		for i := range js {
			js[i] = (i * 7919) % k
		}
		sources := []struct {
			name     string
			got, ref func() rng.Source
		}{
			{"rand", func() rng.Source { return rng.New(9) }, func() rng.Source { return rng.New(9) }},
			{"generic", func() rng.Source { return opaque{rng.New(9)} }, func() rng.Source { return opaque{rng.New(9)} }},
		}
		for _, src := range sources {
			got, want := src.got(), src.ref()
			for i := 0; i < 50; i++ {
				if g, w := s.Sample(got, js[i]), ref.Sample(want, js[i]); g != w {
					t.Fatalf("um:n=%d %s: Sample draw %d: shared %d, per-column %d", n, src.name, i, g, w)
				}
			}
			a, b := make([]int, len(js)), make([]int, len(js))
			s.SampleManyInto(got, js, a)
			ref.SampleColumnsInto(want, js, b)
			if !slices.Equal(a, b) {
				t.Fatalf("um:n=%d %s: SampleManyInto differs from the per-column slab", n, src.name)
			}
			s.SampleBatchInto(got, n, a)
			ref.SampleColumnInto(want, n, b)
			if !slices.Equal(a, b) {
				t.Fatalf("um:n=%d %s: SampleBatchInto differs from the per-column slab", n, src.name)
			}
			if got.Uint64() != want.Uint64() {
				t.Fatalf("um:n=%d %s: streams diverged after the draws", n, src.name)
			}
		}

		// Out-of-range columns panic as a per-column slab does, bounded
		// by n+1 columns, not by the one stored table.
		src := rng.New(1)
		for _, j := range []int{-1, k, k + 1} {
			wantMsg := panicText(func() { ref.Sample(src, j) })
			if wantMsg == "" {
				t.Fatalf("um:n=%d: per-column slab did not panic on column %d", n, j)
			}
			checks := map[string]func(){
				"Sample":          func() { s.Sample(src, j) },
				"SampleManyInto":  func() { s.SampleManyInto(src, []int{0, j}, make([]int, 2)) },
				"SampleBatchInto": func() { s.SampleBatchInto(src, j, nil) },
			}
			for name, f := range checks {
				if got := panicText(f); got != wantMsg {
					t.Errorf("um:n=%d %s(column %d) panicked with %q, want %q", n, name, j, got, wantMsg)
				}
			}
		}
	}
}

// TestDistinctColumnsKeepPerColumnTables: GM, EM and an LP design have
// distinct columns, so each keeps one table per column.
func TestDistinctColumnsKeepPerColumnTables(t *testing.T) {
	gm, err := core.Geometric(64, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	em, err := core.ExplicitFair(64, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	wm, err := design.WM(16, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []*core.Mechanism{gm, em, wm} {
		s, err := core.NewSampler(m)
		if err != nil {
			t.Fatal(err)
		}
		k := m.N() + 1
		if got, want := s.Bytes(), 12*k*k; got != want {
			t.Errorf("%s n=%d: sampler holds %d bytes, want %d (one table per column)", m.Name(), m.N(), got, want)
		}
	}
}
