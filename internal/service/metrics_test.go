package service

import (
	"math/bits"
	"strconv"
	"strings"
	"testing"

	"privcount/internal/core"
	"privcount/internal/metrics"
)

// TestRegisterMetricsRendersAllFamilies drives some cache and build
// activity, scrapes the registry, and checks every family RegisterMetrics
// declares shows up with a per-kind series for every wire kind — the
// service-side counterpart of the HTTP-layer golden test.
func TestRegisterMetricsRendersAllFamilies(t *testing.T) {
	svc := New(Config{Capacity: 2, Shards: 1, Seed: 1})
	defer svc.Close()
	reg := metrics.NewRegistry()
	svc.RegisterMetrics(reg)

	// A hit, a miss, a build, and a capacity eviction.
	spec := Spec{Kind: KindGeometric, N: 8, Alpha: 0.5}
	if _, err := svc.Get(spec); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Sample(spec, 3); err != nil {
		t.Fatal(err)
	}
	for n := 9; n < 12; n++ {
		if _, err := svc.Get(Spec{Kind: KindGeometric, N: n, Alpha: 0.5}); err != nil {
			t.Fatal(err)
		}
	}

	out := reg.Render()
	for _, family := range []string{
		"privcount_cache_entries",
		"privcount_cache_hits_total",
		"privcount_cache_misses_total",
		"privcount_cache_evictions_total",
		"privcount_cache_resident_bytes",
		"privcount_build_queue_depth",
		"privcount_builds_in_flight",
		"privcount_build_inflight_seconds",
		"privcount_builds_total",
		"privcount_build_seconds_total",
		"privcount_admission_shed_total",
	} {
		if !strings.Contains(out, "# TYPE "+family+" ") {
			t.Errorf("exposition missing family %s", family)
		}
	}
	for _, kind := range Kinds() {
		series := `privcount_builds_total{kind="` + kind.String() + `",result="ok"}`
		if !strings.Contains(out, series) {
			t.Errorf("exposition missing per-kind series %s", series)
		}
	}
	if !strings.Contains(out, `privcount_admission_shed_total{reason="queue_depth"}`) ||
		!strings.Contains(out, `privcount_admission_shed_total{reason="build_seconds"}`) {
		t.Error("exposition missing a shed-reason series")
	}

	// The gm builds above must be visible in the per-kind counters.
	if !strings.Contains(out, `privcount_builds_total{kind="gm",result="ok"} 4`) {
		t.Errorf("gm ok-build counter not at 4:\n%s", out)
	}
}

// TestCacheResidentBytes pins the resident figure to the table layout —
// closed forms hold no matrix, so GM holds a 12-byte alias cell per
// (n+1)² cell and UM one shared 12-byte alias cell per output; each adds
// per output an MLE word and (when the estimator exists) a debias
// float — and the gauge to the sum over ready entries.
func TestCacheResidentBytes(t *testing.T) {
	svc := New(Config{Capacity: 8, Shards: 2, Seed: 1})
	defer svc.Close()
	reg := metrics.NewRegistry()
	svc.RegisterMetrics(reg)
	if !strings.Contains(reg.Render(), "privcount_cache_resident_bytes 0\n") {
		t.Errorf("empty cache does not report 0 resident bytes:\n%s", reg.Render())
	}

	gm, err := svc.Get(Spec{Kind: KindGeometric, N: 8, Alpha: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := gm.ResidentBytes(), int64(12*81+bits.UintSize/8*9+8*9); got != want {
		t.Errorf("gm n=8 resident %d bytes, want %d", got, want)
	}
	um, err := svc.Get(Spec{Kind: KindUniform, N: 4})
	if err != nil {
		t.Fatal(err)
	}
	// UM's matrix is singular: no debias vector.
	if got, want := um.ResidentBytes(), int64(12*5+bits.UintSize/8*5); got != want {
		t.Errorf("um n=4 resident %d bytes, want %d", got, want)
	}
	want := "privcount_cache_resident_bytes " + strconv.FormatInt(gm.ResidentBytes()+um.ResidentBytes(), 10) + "\n"
	if out := reg.Render(); !strings.Contains(out, want) {
		t.Errorf("exposition lacks %q:\n%s", want, out)
	}
	if pending := newEntry(Spec{Kind: KindGeometric, N: 8, Alpha: 0.5}); pending.ResidentBytes() != 0 {
		t.Errorf("pending entry reports %d resident bytes, want 0", pending.ResidentBytes())
	}
}

// TestEnvelopeTableCoversEveryKind pins the declaration layer: every
// wire kind has an envelope with a positive ceiling and a named cost
// class, and Kinds() enumerates each exactly once in wire order.
func TestEnvelopeTableCoversEveryKind(t *testing.T) {
	kinds := Kinds()
	if len(kinds) != kindCount {
		t.Fatalf("Kinds() lists %d kinds, enum has %d", len(kinds), kindCount)
	}
	seen := map[Kind]bool{}
	for _, k := range kinds {
		if seen[k] {
			t.Errorf("kind %v listed twice", k)
		}
		seen[k] = true
		env := EnvelopeFor(k)
		if env.MaxN <= 0 {
			t.Errorf("kind %v: MaxN %d not positive", k, env.MaxN)
		}
		for _, class := range []CostClass{env.BuildCPU, env.BuildMem} {
			if s := class.String(); s == "" || strings.Contains(s, "CostClass(") {
				t.Errorf("kind %v: unnamed cost class %q", k, s)
			}
		}
		if env.SampleAllocs != 0 {
			t.Errorf("kind %v: sampling budget %d allocs; the hot path must not allocate", k, env.SampleAllocs)
		}
	}
	if s := CostClass(99).String(); !strings.Contains(s, "99") {
		t.Errorf("out-of-range cost class renders %q", s)
	}
}

// TestEntryAccessors covers the read-only Entry surface the HTTP layer
// serves documents from.
func TestEntryAccessors(t *testing.T) {
	svc := New(Config{Seed: 1})
	defer svc.Close()
	spec := Spec{Kind: KindChoose, N: 8, Alpha: 0.5, Props: core.Fairness}
	e, err := svc.Get(spec)
	if err != nil {
		t.Fatal(err)
	}
	if e.Spec() != spec.Canonical() {
		t.Errorf("Spec() = %+v, want canonical %+v", e.Spec(), spec.Canonical())
	}
	if e.Rule() == "" {
		t.Error("Rule() empty for a chosen mechanism")
	}
}
