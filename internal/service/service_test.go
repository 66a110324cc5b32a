package service

import (
	"context"
	"math"
	"testing"

	"privcount/internal/core"
	"privcount/internal/rng"
)

func TestAllKindsBuildAndSample(t *testing.T) {
	svc := New(Config{})
	specs := []Spec{
		{Kind: KindChoose, N: 8, Alpha: 0.7, Props: core.Fairness},
		{Kind: KindChoose, N: 8, Alpha: 0.7, Props: core.WeakHonesty},
		{Kind: KindGeometric, N: 8, Alpha: 0.7},
		{Kind: KindExplicitFair, N: 8, Alpha: 0.7},
		{Kind: KindUniform, N: 8},
		{Kind: KindLP, N: 6, Alpha: 0.8, Props: core.WeakHonesty | core.Symmetry},
		{Kind: KindLPMinimax, N: 6, Alpha: 0.8, Props: core.Symmetry},
		{Kind: KindLP, N: 6, Alpha: 0.8, Props: core.RowMonotone | core.Symmetry, ObjectiveP: 1},
	}
	for _, spec := range specs {
		e, err := svc.Get(spec)
		if err != nil {
			t.Fatalf("Get(%s): %v", spec, err)
		}
		if e.Mechanism() == nil || e.Sampler() == nil {
			t.Fatalf("Get(%s): entry missing mechanism or sampler", spec)
		}
		for j := 0; j <= spec.N; j += spec.N {
			out, err := svc.Sample(spec, j)
			if err != nil {
				t.Fatalf("Sample(%s, %d): %v", spec, j, err)
			}
			if out < 0 || out > spec.N {
				t.Fatalf("Sample(%s, %d) = %d out of range", spec, j, out)
			}
		}
	}
	st := svc.Stats()
	if st.Entries != len(specs) {
		t.Errorf("Stats.Entries = %d, want %d", st.Entries, len(specs))
	}
	if st.Misses != int64(len(specs)) {
		t.Errorf("Stats.Misses = %d, want %d", st.Misses, len(specs))
	}
	if st.Hits == 0 {
		t.Error("Stats.Hits = 0 after repeated lookups")
	}
}

// TestForcedGMReportsProps pins the Props contract for forced GM: the
// entry must report GM's actual guarantees (via design.GeometricProps),
// matching what the Choose path reports when it answers with GM.
func TestForcedGMReportsProps(t *testing.T) {
	svc := New(Config{})
	forced, err := svc.Get(Spec{Kind: KindGeometric, N: 8, Alpha: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	if forced.Props() == 0 {
		t.Error("forced GM reports an empty property set")
	}
	chosen, err := svc.Get(Spec{Kind: KindChoose, N: 8, Alpha: 0.4, Props: core.WeakHonesty})
	if err != nil {
		t.Fatal(err)
	}
	if chosen.Mechanism().Name() == forced.Mechanism().Name() && chosen.Props() != forced.Props() {
		t.Errorf("same GM mechanism, props %v via choose vs %v forced",
			chosen.Props(), forced.Props())
	}
}

func TestSpecValidation(t *testing.T) {
	svc := New(Config{})
	bad := []Spec{
		{Kind: KindGeometric, N: 0, Alpha: 0.5},
		{Kind: KindGeometric, N: MaxN + 1, Alpha: 0.5},
		{Kind: KindGeometric, N: 8, Alpha: 0},
		{Kind: KindGeometric, N: 8, Alpha: 1},
		{Kind: KindGeometric, N: 8, Alpha: math.NaN()},
		{Kind: Kind(99), N: 8, Alpha: 0.5},
		{Kind: KindChoose, N: 8, Alpha: 0.5, Props: core.OutputDP},
		{Kind: KindLP, N: 6, Alpha: 0.5, ObjectiveP: -1},
	}
	for _, spec := range bad {
		if _, err := svc.Get(spec); err == nil {
			t.Errorf("Get(%+v) succeeded, want validation error", spec)
		}
	}
	if _, err := svc.Sample(Spec{Kind: KindGeometric, N: 8, Alpha: 0.5}, 9); err == nil {
		t.Error("Sample with out-of-range count succeeded")
	}
	// LP-backed admission runs to MaxLPN and no further; closed-form and
	// closed-form-served choose branches go all the way to MaxN. (Validate
	// alone — no Get — so this costs no LP solve.)
	lpOK := Spec{Kind: KindLP, N: MaxLPN, Alpha: 0.9, Props: core.WeakHonesty | core.ColumnMonotone}
	if err := lpOK.Validate(); err != nil {
		t.Errorf("Validate(%v) = %v, want admissible at MaxLPN=%d", lpOK, err, MaxLPN)
	}
	lpBig := lpOK
	lpBig.N = MaxLPN + 1
	if err := lpBig.Validate(); err == nil {
		t.Errorf("Validate(%v) succeeded, want LP admission bound at %d", lpBig, MaxLPN)
	}
	chooseLP := Spec{Kind: KindChoose, N: MaxLPN + 1, Alpha: 0.9, Props: core.ColumnMonotone}
	if err := chooseLP.Validate(); err == nil {
		t.Errorf("Validate(%v) succeeded, want rejection: choose routes it to the WM LP", chooseLP)
	}
	chooseGM := Spec{Kind: KindChoose, N: MaxN, Alpha: 0.4, Props: core.ColumnMonotone}
	if err := chooseGM.Validate(); err != nil {
		t.Errorf("Validate(%v) = %v, want admissible: Lemma 3 serves it with GM", chooseGM, err)
	}
	if MaxLPN < 1024 {
		t.Errorf("MaxLPN = %d, want >= 1024 (band-reduced serving-scale LP admission)", MaxLPN)
	}
	if MaxLPMinimaxN < 256 {
		t.Errorf("MaxLPMinimaxN = %d, want >= 256 (interior-point epigraph admission)", MaxLPMinimaxN)
	}
	mmBig := Spec{Kind: KindLPMinimax, N: MaxLPMinimaxN + 1, Alpha: 0.9}
	if err := mmBig.Validate(); err == nil {
		t.Errorf("Validate(%v) succeeded, want the cold-minimax bound at %d", mmBig, MaxLPMinimaxN)
	}
	mmOK := Spec{Kind: KindLPMinimax, N: MaxLPMinimaxN, Alpha: 0.9}
	if err := mmOK.Validate(); err != nil {
		t.Errorf("Validate(%v) = %v, want admissible", mmOK, err)
	}
	if _, err := svc.Estimate(Spec{Kind: KindGeometric, N: 8, Alpha: 0.5}, []int{-1}); err == nil {
		t.Error("Estimate with out-of-range output succeeded")
	}
}

// TestSeededBatchMatchesSingleShot is the determinism contract: a seeded
// batch must reproduce, draw for draw, seeded single-shot sampling
// against the same cached tables.
func TestSeededBatchMatchesSingleShot(t *testing.T) {
	svc := New(Config{})
	spec := Spec{Kind: KindChoose, N: 16, Alpha: 0.8, Props: core.Fairness}
	js := make([]int, 500)
	for k := range js {
		js[k] = k % (spec.N + 1)
	}
	const seed = 987654321
	batch, err := svc.SampleBatchSeeded(spec, seed, js, nil)
	if err != nil {
		t.Fatal(err)
	}
	e, err := svc.Get(spec)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(seed)
	for k, j := range js {
		if got := e.Sampler().Sample(src, j); got != batch[k] {
			t.Fatalf("draw %d: batch %d != single-shot %d", k, batch[k], got)
		}
	}
	// And the batch must be reproducible across calls.
	again, err := svc.SampleBatchSeeded(spec, seed, js, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k := range batch {
		if batch[k] != again[k] {
			t.Fatalf("draw %d not reproducible: %d then %d", k, batch[k], again[k])
		}
	}
}

func TestEstimateDebiases(t *testing.T) {
	svc := New(Config{})
	spec := Spec{Kind: KindGeometric, N: 10, Alpha: 0.6}
	// Many groups all holding true count 7: the debiased mean must land
	// near 7 even though GM is biased toward the interior near the edges.
	const groups = 60000
	js := make([]int, groups)
	for k := range js {
		js[k] = 7
	}
	outs, err := svc.SampleBatchSeeded(spec, 5, js, nil)
	if err != nil {
		t.Fatal(err)
	}
	est, err := svc.Estimate(spec, outs)
	if err != nil {
		t.Fatal(err)
	}
	if !est.Unbiased {
		t.Fatal("GM estimate reported biased")
	}
	if math.Abs(est.Mean-7) > 0.05 {
		t.Errorf("debiased mean %v, want ≈ 7", est.Mean)
	}
	if len(est.MLE) != groups {
		t.Fatalf("MLE decode length %d, want %d", len(est.MLE), groups)
	}

	// UM has no unbiased estimator; Estimate must fall back to MLE.
	um := Spec{Kind: KindUniform, N: 10}
	est, err = svc.Estimate(um, []int{3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if est.Unbiased {
		t.Error("UM estimate reported unbiased")
	}
}

func TestCanonicalisationSharesEntries(t *testing.T) {
	svc := New(Config{})
	// CM implies CH implies WH; with Symmetry stripped by Choose, all of
	// these are one Figure 5 scenario and must share one cache entry.
	a := Spec{Kind: KindChoose, N: 8, Alpha: 0.7, Props: core.ColumnMonotone}
	b := Spec{Kind: KindChoose, N: 8, Alpha: 0.7,
		Props: core.ColumnMonotone | core.ColumnHonesty | core.WeakHonesty | core.Symmetry}
	ea, err := svc.Get(a)
	if err != nil {
		t.Fatal(err)
	}
	eb, err := svc.Get(b)
	if err != nil {
		t.Fatal(err)
	}
	if ea != eb {
		t.Error("closure-equivalent specs landed in different cache entries")
	}
	st := svc.Stats()
	if st.Entries != 1 || st.Misses != 1 || st.Hits != 1 {
		t.Errorf("stats = %+v, want 1 entry, 1 miss, 1 hit", st)
	}
}

func TestKindRoundTrip(t *testing.T) {
	for _, k := range []Kind{KindChoose, KindGeometric, KindExplicitFair, KindUniform, KindLP, KindLPMinimax} {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Errorf("ParseKind(%q) = %v, %v; want %v", k.String(), got, err, k)
		}
	}
	if k, err := ParseKind(""); err != nil || k != KindChoose {
		t.Errorf("ParseKind(\"\") = %v, %v; want KindChoose", k, err)
	}
	if _, err := ParseKind("nope"); err == nil {
		t.Error("ParseKind(\"nope\") succeeded")
	}
}

func TestSampleBatchIntoMatchesAllocatingPath(t *testing.T) {
	svc := New(Config{Seed: 4})
	spec := Spec{Kind: KindGeometric, N: 12, Alpha: 0.7}
	js := []int{0, 5, 5, 12, 1, 7, 7, 7}

	// Seeded Into must reproduce the seeded appending path exactly.
	want, err := svc.SampleBatchSeeded(spec, 99, js, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]int, len(js))
	if err := svc.SampleBatchSeededInto(context.Background(), spec, 99, js, got); err != nil {
		t.Fatal(err)
	}
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("draw %d: Into %d != appending %d", k, got[k], want[k])
		}
	}

	// The unseeded path draws from the pool; check range and tail
	// preservation rather than exact values.
	dst := make([]int, len(js)+2)
	dst[len(js)] = -7
	if err := svc.SampleBatchInto(spec, js, dst); err != nil {
		t.Fatal(err)
	}
	for k := range js {
		if dst[k] < 0 || dst[k] > spec.N {
			t.Fatalf("draw %d out of range: %d", k, dst[k])
		}
	}
	if dst[len(js)] != -7 {
		t.Error("SampleBatchInto wrote past len(js)")
	}
}

func TestSampleBatchIntoErrors(t *testing.T) {
	svc := New(Config{})
	spec := Spec{Kind: KindUniform, N: 4}
	if err := svc.SampleBatchInto(spec, []int{0, 1}, make([]int, 1)); err == nil {
		t.Error("short dst accepted")
	}
	if err := svc.SampleBatchSeededInto(context.Background(), spec, 1, []int{0, 1}, make([]int, 1)); err == nil {
		t.Error("seeded short dst accepted")
	}
	if err := svc.SampleBatchInto(spec, []int{5}, make([]int, 1)); err == nil {
		t.Error("out-of-range count accepted")
	}
	if err := svc.SampleBatchInto(Spec{Kind: KindUniform, N: -1}, nil, nil); err == nil {
		t.Error("invalid spec accepted")
	}
}

func TestSampleBatchIntoZeroAlloc(t *testing.T) {
	svc := New(Config{Seed: 2})
	spec := Spec{Kind: KindGeometric, N: 16, Alpha: 0.5}
	js := make([]int, 256)
	for k := range js {
		js[k] = k % (spec.N + 1)
	}
	dst := make([]int, len(js))
	if err := svc.SampleBatchInto(spec, js, dst); err != nil {
		t.Fatal(err)
	}
	// The warm path must meet the envelope's zero-alloc sampling budget
	// at batch granularity. sync.Pool may refill a generator under GC
	// pressure, so allow a small fractional residue but nothing per-draw.
	n := testing.AllocsPerRun(200, func() {
		if err := svc.SampleBatchInto(spec, js, dst); err != nil {
			t.Fatal(err)
		}
	})
	if n > 0.05 {
		t.Errorf("SampleBatchInto allocated %.2f times per 256-draw batch", n)
	}
}

// TestSampleBatchSeededIntoAllocatesOnce pins the seeded batch op's one
// allocation, its fresh generator, beside the unseeded op's none.
func TestSampleBatchSeededIntoAllocatesOnce(t *testing.T) {
	svc := New(Config{Seed: 2})
	spec := Spec{Kind: KindGeometric, N: 16, Alpha: 0.5}
	js := make([]int, 256)
	for k := range js {
		js[k] = k % (spec.N + 1)
	}
	dst := make([]int, len(js))
	ctx := context.Background()
	if err := svc.SampleBatchSeededInto(ctx, spec, 7, js, dst); err != nil {
		t.Fatal(err)
	}
	seeded := testing.AllocsPerRun(200, func() {
		if err := svc.SampleBatchSeededInto(ctx, spec, 7, js, dst); err != nil {
			t.Fatal(err)
		}
	})
	if seeded > 1 {
		t.Errorf("SampleBatchSeededInto allocated %.2f times per 256-draw batch, want at most 1", seeded)
	}
	unseeded := testing.AllocsPerRun(200, func() {
		if err := svc.SampleBatchIntoCtx(ctx, spec, js, dst); err != nil {
			t.Fatal(err)
		}
	})
	if unseeded > 0.05 {
		t.Errorf("SampleBatchIntoCtx allocated %.2f times per 256-draw batch", unseeded)
	}
}
