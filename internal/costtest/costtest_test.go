package costtest

import (
	"runtime/debug"
	"strings"
	"testing"

	"privcount/internal/core"
	"privcount/internal/service"
)

// TestAllKindsWithinEnvelope is the enforcement pass: every declared
// kind's representative build and serving path must stay inside the
// envelope the service declares for it. A kind added to the enum
// without an envelope fails here too — its zero envelope admits
// nothing.
func TestAllKindsWithinEnvelope(t *testing.T) {
	for _, kind := range service.Kinds() {
		t.Run(kind.String(), func(t *testing.T) {
			// Not parallel: CheckEnvelope's heap measurements are
			// process-global, so concurrent builds would cross-pollute.
			CheckEnvelope(t, Representative(kind), service.EnvelopeFor(kind))
		})
	}
}

// recorder captures harness failures instead of failing the real test,
// so the test below can assert that CheckEnvelope DOES fail when a
// declaration is broken.
type recorder struct {
	testing.TB // promoted for Helper etc.; Errorf overridden below
	failures   []string
}

func (r *recorder) Errorf(format string, args ...any) {
	r.failures = append(r.failures, strings.TrimSpace(strings.ReplaceAll(format, "%v", "")))
}

func (r *recorder) contains(substr string) bool {
	for _, f := range r.failures {
		if strings.Contains(f, substr) {
			return true
		}
	}
	return false
}

// TestBrokenEnvelopeFails demonstrates the harness has teeth: an
// envelope whose ceilings or declarations a kind does not actually meet
// is reported, not silently accepted.
func TestBrokenEnvelopeFails(t *testing.T) {
	spec := Representative(service.KindGeometric)

	// Ceiling below the representative spec: the static coupling check
	// must catch the declaration/admission desync.
	broken := service.EnvelopeFor(service.KindGeometric)
	broken.MaxN = spec.N - 1
	rec := &recorder{TB: t}
	CheckEnvelope(rec, spec, broken)
	if !rec.contains("over the declared MaxN") {
		t.Errorf("lowered MaxN not reported; failures: %q", rec.failures)
	}

	// An impossible allocation declaration: the measured pass must catch
	// it (zero allocations is still more than minus one).
	broken = service.EnvelopeFor(service.KindGeometric)
	broken.SampleAllocs = -1
	rec = &recorder{TB: t}
	CheckEnvelope(rec, spec, broken)
	if !rec.contains("allocs per draw") {
		t.Errorf("impossible SampleAllocs not reported; failures: %q", rec.failures)
	}

	// A resident declaration that leaves out one of GM's two alias
	// tables (8 B per cell: the probabilities without their 4-byte
	// targets): the live-heap measurement must catch it.
	broken = service.EnvelopeFor(service.KindGeometric)
	broken.ResidentBytesPerCell = 8
	rec = &recorder{TB: t}
	CheckEnvelope(rec, spec, broken)
	if !rec.contains("live heap bytes") {
		t.Errorf("shrunk ResidentBytesPerCell not reported; failures: %q", rec.failures)
	}
}

// TestNewSamplerAllocsConstantInN pins the sampler's construction to a
// constant number of allocations: every column's alias table is filled
// into one flat slab from one reused Vose scratch, so growing n grows
// the slabs, never the allocation count.
func TestNewSamplerAllocsConstantInN(t *testing.T) {
	// The large tables trigger GC cycles, and the runtime's own
	// allocations during one (mark workers, for instance) only ever
	// inflate a reading, so the minimum of a few is the constructor's.
	// The collector is also off while measuring: whether all the few
	// readings catch a cycle depends on the heap's pacing, which the
	// rest of the process sets. The n=512 readings leave ~50 MB of
	// garbage, freed when the collector is back on.
	allocs := func(n int) float64 {
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		m, err := core.Geometric(n, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		least := -1.0
		for attempt := 0; attempt < 5; attempt++ {
			got := testing.AllocsPerRun(3, func() {
				if _, err := core.NewSampler(m); err != nil {
					t.Fatal(err)
				}
			})
			if least < 0 || got < least {
				least = got
			}
		}
		return least
	}
	small, large := allocs(4), allocs(512)
	if large > small {
		t.Errorf("NewSampler allocates %.0f times at n=512 but %.0f at n=4: allocation count grows with n", large, small)
	}
}

// TestOverCeilingRefusedWithOverLimit pins the taxonomy end of the
// coupling: one past every kind's ceiling is refused by Validate with
// ErrOverLimit specifically (the code the HTTP layer maps to 400
// over_limit), not a generic invalid-spec error.
func TestOverCeilingRefusedWithOverLimit(t *testing.T) {
	for _, kind := range service.Kinds() {
		spec := Representative(kind)
		spec.N = service.EnvelopeFor(kind).MaxN + 1
		err := spec.Validate()
		rec := &recorder{TB: t}
		CheckEnvelope(rec, spec, service.EnvelopeFor(kind))
		if !rec.contains("over the declared MaxN") {
			t.Errorf("%v: over-ceiling spec not caught by harness (validate err: %v)", kind, err)
		}
	}
}
