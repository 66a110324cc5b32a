package design

import (
	"testing"

	"privcount/internal/core"
)

// TestBandPathSolvesWMDesign exercises the band-reduced WM path end to
// end at a depth small enough (α=0.6 → d₀=7) to run in short mode —
// the multi-second N256/N1024 guards are -short-skipped, and without
// this test the coverage job never enters band.go at all. The result
// must be a valid mechanism with the WM properties, cost inside the
// GM/EM sandwich, and the diagnostics must show the reduced problem
// size (O(d·n) variables, not the full LP's Θ(n²)).
func TestBandPathSolvesWMDesign(t *testing.T) {
	ClearCache()
	const n, alpha = 256, 0.6
	p := Problem{N: n, Alpha: alpha, Props: WMProps, ReduceSymmetry: true}
	if !bandEligible(p, L0Objective, true) {
		t.Fatalf("n=%d alpha=%g should take the band path", n, alpha)
	}
	r, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	gm := 2 * alpha / (1 + alpha) * n / (n + 1)
	em := 2 * alpha / (1 + alpha)
	if r.Cost < gm-1e-9 || r.Cost > em+1e-9 {
		t.Fatalf("band WM cost %v outside [GM=%v, EM=%v]", r.Cost, gm, em)
	}
	if !r.Mechanism.Matrix().IsColumnStochastic(1e-7) {
		t.Fatal("band mechanism is not column stochastic")
	}
	if !r.Mechanism.Check(core.Closure(WMProps), 1e-7) {
		t.Fatal("band mechanism violates the WM property set")
	}
	if !r.Mechanism.SatisfiesDP(alpha, 1e-9) {
		t.Fatalf("band mechanism violates %g-DP", alpha)
	}
	full := (n + 1) * (n + 1)
	if r.Variables >= full/4 {
		t.Fatalf("band LP has %d variables — not reduced vs the full %d", r.Variables, full)
	}
}

// TestBandEligibility pins the band path's admission predicate: it must
// fire exactly for large WM-shaped folded L0 designs at depths the cap
// admits, and stand down for everything else (where the full LP or the
// closed forms are the path of record).
func TestBandEligibility(t *testing.T) {
	wm := Problem{N: 256, Alpha: 0.6, Props: WMProps, ReduceSymmetry: true}
	if !bandEligible(wm, L0Objective, true) {
		t.Fatal("WM n=256 alpha=0.6 should be band-eligible")
	}
	cases := []struct {
		name string
		p    Problem
		obj  Objective
		red  bool
	}{
		{"no symmetry folding", wm, L0Objective, false},
		{"below bandMinN", Problem{N: bandMinN - 1, Alpha: 0.6, Props: WMProps}, L0Objective, true},
		{"L2 objective", wm, Objective{P: 2}, true},
		{"non-WM property set", Problem{N: 256, Alpha: 0.6, Props: WMProps | core.Fairness}, L0Objective, true},
		{"depth over cap", Problem{N: 256, Alpha: 0.97, Props: WMProps}, L0Objective, true},
	}
	for _, c := range cases {
		if bandEligible(c.p, c.obj, c.red) {
			t.Errorf("%s: bandEligible = true, want false", c.name)
		}
	}

	// The shape test must accept the reduced-equivalent spellings of the
	// WM set (honesty absorbed by monotonicity, WH absorbed by CM) and
	// nothing weaker.
	if effectiveProps(core.RowMonotone|core.ColumnMonotone|core.Symmetry) != bandShape {
		t.Error("bare RM+CM+Sym should be band-shaped")
	}
	if effectiveProps(WMProps|core.RowHonesty|core.ColumnHonesty) != bandShape {
		t.Error("honesty bits are absorbed by monotonicity and should not disqualify")
	}
	if effectiveProps(core.ColumnMonotone|core.Symmetry) == bandShape {
		t.Error("CM+Sym without RM is not the WM shape")
	}
}

// TestBandDepthGrowsWithAlpha pins the depth schedule to its measured
// envelope: monotone in α, matching the boundary-repair depths measured
// at n=128 with clearance margin, and past the cap well before α=0.97.
func TestBandDepthGrowsWithAlpha(t *testing.T) {
	measured := []struct {
		alpha float64
		depth int // deepest GM deviation at n=128
	}{{0.6, 1}, {0.75, 6}, {0.9, 22}}
	prev := 0
	for _, m := range measured {
		d := bandDepth0(m.alpha)
		if d < m.depth+bandClearance {
			t.Errorf("bandDepth0(%g) = %d, below measured repair depth %d + clearance", m.alpha, d, m.depth)
		}
		if d <= prev {
			t.Errorf("bandDepth0 not increasing at alpha=%g", m.alpha)
		}
		prev = d
	}
	if bandDepth0(0.97) <= bandMaxDepth {
		t.Error("alpha=0.97 should exceed the depth cap (singular-basis regime)")
	}
}
