package design

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"privcount/internal/core"
)

// TestDesignLatticeSample builds a seeded sample of the design lattice:
// n ∈ {8, 16, 24, 32}, α ∈ {0.6, 0.9, 0.95} and four property sets per
// (n, α) drawn from the 128 subsets. Each is solved the way the service
// builds an lp spec (symmetry reduction exactly when S is requested) and
// through the Figure 5 procedure, and minimax designs cover none, WH
// and S. Every build must succeed and certify, and the whole sample
// must finish within 10 s: the production LP route ends at the bounded
// simplex, so a shape only a fallback engine could solve fails here.
func TestDesignLatticeSample(t *testing.T) {
	if raceEnabled {
		t.Skip("single-goroutine LP builds under a wall-clock budget; the race detector slows them ~15x")
	}
	ClearCache()
	defer ClearCache()
	rng := rand.New(rand.NewSource(22))
	subsets := core.EnumerateSubsets()
	ctx := context.Background()
	start := time.Now()
	check := func(what string, m *core.Mechanism, alpha float64, props core.PropertySet) {
		t.Helper()
		if v := m.DPViolation(alpha, core.DefaultTol); v != "" {
			t.Errorf("%s: not %v-DP: %s", what, alpha, v)
		}
		if v := m.Violation(props, core.DefaultTol); v != "" {
			t.Errorf("%s: %s", what, v)
		}
	}
	builds := 0
	for _, n := range []int{8, 16, 24, 32} {
		for _, alpha := range []float64{0.6, 0.9, 0.95} {
			for k := 0; k < 4; k++ {
				props := subsets[rng.Intn(len(subsets))]
				p := Problem{N: n, Alpha: alpha, Props: props, ReduceSymmetry: props&core.Symmetry != 0}
				r, err := SolveCtx(ctx, p)
				if err != nil {
					t.Fatalf("Solve n=%d a=%v %s: %v", n, alpha, core.PropertySetString(props), err)
				}
				check("Solve", r.Mechanism, alpha, props)
				ch, err := ChooseCtx(ctx, n, alpha, props)
				if err != nil {
					t.Fatalf("Choose n=%d a=%v %s: %v", n, alpha, core.PropertySetString(props), err)
				}
				check("Choose", ch.Mechanism, alpha, ch.Props)
				builds += 2
			}
		}
	}
	for _, props := range []core.PropertySet{0, core.WeakHonesty, core.Symmetry} {
		n := []int{8, 16, 24, 32}[rng.Intn(4)]
		alpha := []float64{0.6, 0.9, 0.95}[rng.Intn(3)]
		p := Problem{N: n, Alpha: alpha, Props: props, ReduceSymmetry: props&core.Symmetry != 0}
		r, err := SolveMinimaxCtx(ctx, p)
		if err != nil {
			t.Fatalf("minimax n=%d a=%v %s: %v", n, alpha, core.PropertySetString(props), err)
		}
		check("minimax", r.Mechanism, alpha, props)
		builds++
	}
	elapsed := time.Since(start)
	t.Logf("%d builds in %v", builds, elapsed)
	if elapsed > 10*time.Second {
		t.Fatalf("lattice sample took %v, want under 10s", elapsed)
	}
}
