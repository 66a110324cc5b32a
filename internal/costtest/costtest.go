// Package costtest enforces the cost envelopes that internal/service
// declares for its mechanism kinds (service.CostEnvelope). The idiom
// follows starlark's startest harness: a declaration (MemSafe/CPUSafe
// there, a CostEnvelope here) is only worth anything if a test measures
// against it, so CheckEnvelope builds a representative spec of each
// kind under wall-clock, heap, and allocation measurement and fails
// when the kind spends more than its envelope's classes allow. The
// envelope table and this harness hold each other honest: a new kind
// added without an envelope fails here (its zero envelope admits
// nothing), and an envelope loosened without the behaviour to match is
// a visible diff in one file rather than silent drift.
package costtest

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"privcount/internal/core"
	"privcount/internal/design"
	"privcount/internal/service"
)

// Representative returns the spec CheckEnvelope measures for kind:
// large enough that the construction exercises its real cost class
// (dense table fills, a crash-started simplex solve, an epigraph
// solve) and that the (n+1)² tables dominate the entry's live heap,
// small enough that the whole harness stays a unit test. The closed
// forms build in well under a second, so they run at n=256, where the resident
// check resolves well under one byte per cell; the LP kinds run at
// n=64, where it still separates the table layout from a heavier one.
func Representative(kind service.Kind) service.Spec {
	switch kind {
	case service.KindChoose:
		// WH+CM at α > 1/2 routes Figure 5 to the WM LP design —
		// choose's declared worst-case class — rather than a closed
		// form (at α ≤ 1/2 Lemma 3 picks GM).
		return service.Spec{Kind: kind, N: 64, Alpha: 0.75, Props: core.WeakHonesty | core.ColumnMonotone}
	case service.KindGeometric, service.KindExplicitFair:
		return service.Spec{Kind: kind, N: 256, Alpha: 0.5}
	case service.KindUniform:
		return service.Spec{Kind: kind, N: 256}
	case service.KindLP:
		return service.Spec{Kind: kind, N: 64, Alpha: 0.5, Props: core.WeakHonesty | core.ColumnMonotone}
	case service.KindLPMinimax:
		return service.Spec{Kind: kind, N: 64, Alpha: 0.9, Props: core.Symmetry}
	}
	return service.Spec{Kind: kind}
}

// classBudget maps a declared cost class to the concrete budget the
// harness holds a representative build to. The curves are deliberately
// generous — they exist to catch order-of-magnitude regressions (an
// accidentally quadratic allocation pattern, a lost crash basis turning
// a warm solve cold), not to flake on a loaded CI machine.
func classBudget(c service.CostClass) (maxSeconds float64, maxBytes uint64) {
	switch c {
	case service.CostTable:
		return 5, 64 << 20
	case service.CostLP:
		return 30, 256 << 20
	case service.CostLPMinimax:
		return 120, 512 << 20
	}
	return 0, 0 // unknown class: admits nothing
}

// residentAllowance is the live heap an entry of group size n may hold
// beyond its declared per-cell tables: page rounding of at most three
// (n+1)²-cell allocations (an LP result's matrix, alias probabilities,
// alias targets), the O(n) MLE and debias vectors (and UM's one shared
// alias table), and fixed bookkeeping (entry, map slot, headers).
func residentAllowance(n int) int64 {
	const page = 8 << 10
	return 3*page + 16*int64(n+1) + 16<<10
}

// CheckEnvelope verifies that spec's kind lives within env, reporting
// every violation via tb.Errorf (never Fatalf, so a recording TB can
// collect them). It checks, in order:
//
//  1. Coupling: the spec itself is admissible, and one past the
//     envelope's MaxN is refused by Validate with ErrOverLimit — so the
//     declared ceiling and the admission gate cannot desync.
//  2. Build cost: constructing the mechanism stays inside the wall-clock
//     and heap budgets of the declared BuildCPU and BuildMem classes.
//  3. Resident footprint: the live heap after GC with the ready entry
//     held stays within env.ResidentBytesPerCell per cell of its
//     (n+1)×(n+1) matrix, plus residentAllowance. The design package's
//     process-wide LP caches are dropped first: they are not the
//     entry's.
//  4. Serving cost: one cached Sample draw performs at most
//     env.SampleAllocs heap allocations (measured by
//     testing.AllocsPerRun).
func CheckEnvelope(tb testing.TB, spec service.Spec, env service.CostEnvelope) {
	tb.Helper()

	// Static coupling between the declaration and admission control.
	if spec.N > env.MaxN {
		tb.Errorf("%s: representative spec n=%d is over the declared MaxN=%d", spec, spec.N, env.MaxN)
		return
	}
	if err := spec.Validate(); err != nil {
		tb.Errorf("%s: representative spec does not validate: %v", spec, err)
		return
	}
	over := spec
	over.N = env.MaxN + 1
	if err := over.Validate(); !errors.Is(err, service.ErrOverLimit) {
		tb.Errorf("%s: n=%d (one past declared MaxN) not refused with ErrOverLimit, got: %v", spec, over.N, err)
	}

	// Build under measurement. The service is fresh so the build is
	// cold, and created before the baseline read so its own setup does
	// not count against the kind.
	svc := service.New(service.Config{Capacity: 4, Shards: 1})
	defer svc.Close()
	var before, after, held runtime.MemStats
	runtime.GC()
	runtime.GC() // the second cycle frees what sync.Pool victim caches held
	runtime.ReadMemStats(&before)
	start := time.Now()
	e, err := svc.Get(spec)
	wall := time.Since(start).Seconds()
	runtime.ReadMemStats(&after)
	if err != nil {
		tb.Errorf("%s: build failed: %v", spec, err)
		return
	}
	maxSeconds, _ := classBudget(env.BuildCPU)
	if raceEnabled {
		maxSeconds *= 10 // the race detector slows solves well over 2×
	}
	if wall > maxSeconds {
		tb.Errorf("%s: build took %.2fs, over the %s class budget of %.0fs", spec, wall, env.BuildCPU, maxSeconds)
	}
	_, maxBytes := classBudget(env.BuildMem)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > maxBytes {
		tb.Errorf("%s: build allocated %d bytes, over the %s class budget of %d", spec, grew, env.BuildMem, maxBytes)
	}

	// Resident: the entry stays cached in svc, and e pins it besides.
	design.ClearCache()
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&held)
	runtime.KeepAlive(e)
	cells := int64(spec.N+1) * int64(spec.N+1)
	grew := int64(held.HeapAlloc) - int64(before.HeapAlloc)
	if limit := int64(env.ResidentBytesPerCell)*cells + residentAllowance(spec.N); grew > limit {
		tb.Errorf("%s: ready entry holds %d live heap bytes (%.1f per cell), over the declared %d B per cell plus %d allowance",
			spec, grew, float64(grew)/float64(cells), env.ResidentBytesPerCell, residentAllowance(spec.N))
	}

	// Serving: the hot path's allocation declaration. Concurrent
	// runtime activity (GC, the race detector's shadow bookkeeping) can
	// only ever inflate an AllocsPerRun reading, so the minimum of a few
	// measurements is the hot path's true cost — one noisy reading must
	// not flake a 0-alloc declaration.
	j := spec.N / 2
	allocs := float64(0)
	for attempt := 0; attempt < 3; attempt++ {
		got := testing.AllocsPerRun(200, func() {
			if _, err := svc.Sample(spec, j); err != nil {
				tb.Errorf("%s: sample failed: %v", spec, err)
			}
		})
		if attempt == 0 || got < allocs {
			allocs = got
		}
	}
	if allocs > float64(env.SampleAllocs) {
		tb.Errorf("%s: Sample performs %.0f allocs per draw, envelope declares at most %d", spec, allocs, env.SampleAllocs)
	}
}
