package service

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"privcount/internal/core"
	"privcount/internal/design"
)

// TestConcurrentAdmissionEviction hammers a deliberately tiny cache from
// many goroutines so that admission, lookup and LRU eviction all race;
// run with -race this is the cache's memory-safety test.
func TestConcurrentAdmissionEviction(t *testing.T) {
	svc := New(Config{Capacity: 4, Shards: 2, Seed: 42})
	// 12 cheap specs across kinds so builds are fast but eviction is
	// constant (capacity 4 << 12 specs).
	var specs []Spec
	for n := 2; n <= 5; n++ {
		specs = append(specs,
			Spec{Kind: KindGeometric, N: n, Alpha: 0.6},
			Spec{Kind: KindExplicitFair, N: n, Alpha: 0.6},
			Spec{Kind: KindUniform, N: n},
		)
	}
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			js := []int{0, 1, 2}
			for i := 0; i < 300; i++ {
				spec := specs[(g*7+i)%len(specs)]
				out, err := svc.Sample(spec, i%(spec.N+1))
				if err != nil {
					t.Errorf("Sample(%s): %v", spec, err)
					return
				}
				if out < 0 || out > spec.N {
					t.Errorf("Sample(%s) = %d out of range", spec, out)
					return
				}
				if i%10 == 0 {
					if _, err := svc.SampleBatch(spec, js[:spec.N%3+1], nil); err != nil {
						t.Errorf("SampleBatch(%s): %v", spec, err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	st := svc.Stats()
	if st.Entries > 4+2 { // per-shard cap is 2; brief overshoot impossible after quiesce
		t.Errorf("cache holds %d entries, capacity 4", st.Entries)
	}
	if st.Evictions == 0 {
		t.Error("no evictions despite capacity pressure")
	}
	if st.Hits+st.Misses == 0 {
		t.Error("no lookups recorded")
	}
}

// TestNoCollisionsAcrossPropertySets walks every subset of the paper's
// seven properties through the Figure 5 kind and checks that the cache
// never serves a mechanism missing a requested property — i.e. distinct
// property sets never collide onto a wrong entry, while closure-
// equivalent sets deduplicate onto a shared one.
func TestNoCollisionsAcrossPropertySets(t *testing.T) {
	svc := New(Config{Capacity: 1024})
	byCanonical := map[Spec]*Entry{}
	for bits := core.PropertySet(0); bits < 1<<7; bits++ {
		spec := Spec{Kind: KindChoose, N: 6, Alpha: 0.8, Props: bits}
		e, err := svc.Get(spec)
		if err != nil {
			t.Fatalf("Get(%s): %v", spec, err)
		}
		want := core.Closure(bits &^ core.Symmetry)
		if e.Props()&want != want {
			t.Fatalf("request %s served entry guaranteeing only %s",
				core.PropertySetString(bits), core.PropertySetString(e.Props()))
		}
		if !e.Mechanism().Check(want, 1e-7) {
			t.Fatalf("request %s served %s, which fails the property check",
				core.PropertySetString(bits), e.Mechanism().Name())
		}
		key := spec.Canonical()
		if prev, ok := byCanonical[key]; ok {
			if prev != e {
				t.Fatalf("canonical spec %s maps to two distinct entries", key)
			}
		} else {
			byCanonical[key] = e
		}
	}
	// Distinct canonical specs must be distinct entries (no collisions).
	seen := map[*Entry]Spec{}
	for key, e := range byCanonical {
		if other, dup := seen[e]; dup {
			t.Fatalf("canonical specs %s and %s share one entry", key, other)
		}
		seen[e] = key
	}
	if st := svc.Stats(); st.Entries != len(byCanonical) {
		t.Errorf("cache holds %d entries, want %d canonical scenarios", st.Entries, len(byCanonical))
	}
}

// TestLRUEvictionOrder verifies the least-recently-touched entry is the
// one evicted.
func TestLRUEvictionOrder(t *testing.T) {
	svc := New(Config{Capacity: 2, Shards: 1, Seed: 1})
	mk := func(n int) Spec { return Spec{Kind: KindUniform, N: n} }
	for _, n := range []int{2, 3} {
		if _, err := svc.Get(mk(n)); err != nil {
			t.Fatal(err)
		}
	}
	// Touch n=2 so n=3 is the LRU victim when n=4 is admitted.
	if _, err := svc.Get(mk(2)); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Get(mk(4)); err != nil {
		t.Fatal(err)
	}
	snap := *svc.shards[0].entries.Load()
	_, has2 := snap[mk(2).Canonical()]
	_, has3 := snap[mk(3).Canonical()]
	_, has4 := snap[mk(4).Canonical()]
	if !has2 || has3 || !has4 {
		t.Errorf("after eviction: n=2 cached %v (want true), n=3 cached %v (want false), n=4 cached %v (want true)",
			has2, has3, has4)
	}
	if st := svc.Stats(); st.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", st.Evictions)
	}
}

// TestErroredBuildsAreReported ensures a failing build surfaces its error
// on every lookup rather than serving a half-built entry.
func TestErroredBuildsAreReported(t *testing.T) {
	svc := New(Config{})
	// The LP rejects ODP combined with nothing else at alpha extremely
	// close to 1 only via solver failure; instead use an invalid spec
	// that passes Validate but cannot build: none exists by construction,
	// so exercise the error path through repeated validation failures.
	spec := Spec{Kind: KindGeometric, N: 8, Alpha: 1.5}
	for i := 0; i < 2; i++ {
		if _, err := svc.Get(spec); err == nil {
			t.Fatal("invalid alpha accepted")
		}
	}
	if st := svc.Stats(); st.Entries != 0 {
		t.Errorf("invalid specs were admitted: %+v", st)
	}
}

func TestSpecStrings(t *testing.T) {
	cases := []struct {
		spec Spec
		want string
	}{
		{Spec{Kind: KindUniform, N: 4}, "um(n=4)"},
		{Spec{Kind: KindGeometric, N: 4, Alpha: 0.5}, "gm(n=4, a=0.5)"},
		{Spec{Kind: KindChoose, N: 4, Alpha: 0.5, Props: core.WeakHonesty}, "choose(n=4, a=0.5, WH)"},
		{Spec{Kind: KindLP, N: 4, Alpha: 0.5, Props: core.Symmetry, ObjectiveP: 2}, "lp(n=4, a=0.5, S, p=2)"},
	}
	for _, c := range cases {
		if got := fmt.Sprint(c.spec); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

// TestEvictedChooseResultsAreReleased cycles distinct LP-backed choose
// specs through a one-entry cache: once the design layer's result memo
// is full, live heap after GC must stay flat, whatever the LRU evicted.
// An unbounded memo keeps every evicted n=96 matrix (~75 KB each), which
// grows the heap by ~1 MB over the second dozen specs.
func TestEvictedChooseResultsAreReleased(t *testing.T) {
	if raceEnabled {
		t.Skip("24 sequential LP builds; the race detector slows them ~15x and the heap check involves one goroutine")
	}
	design.ClearCache()
	defer design.ClearCache()
	svc := New(Config{Capacity: 1, Shards: 1, Seed: 1})
	build := func(first int) {
		for k := first; k < first+24; k += 2 {
			spec := Spec{Kind: KindChoose, N: 96, Alpha: float64(60+k) / 100,
				Props: core.WeakHonesty | core.ColumnMonotone}
			if _, err := svc.Sample(spec, 0); err != nil {
				t.Fatalf("%s: %v", spec, err)
			}
		}
	}
	liveHeap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	build(0) // α = 0.60, 0.62, …, 0.82
	before := liveHeap()
	build(1) // α = 0.61, 0.63, …, 0.83
	after := liveHeap()
	t.Logf("live heap %d -> %d bytes", before, after)
	if after > before+256<<10 {
		t.Fatalf("live heap grew %d -> %d bytes over 12 more distinct specs", before, after)
	}
}
