package design

import (
	"math"
	"strings"
	"testing"

	"privcount/internal/core"
)

func TestSolveArgumentValidation(t *testing.T) {
	if _, err := Solve(Problem{N: 0, Alpha: 0.5}); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := Solve(Problem{N: 3, Alpha: 0}); err == nil {
		t.Error("alpha=0 accepted")
	}
	if _, err := Solve(Problem{N: 3, Alpha: 1}); err == nil {
		t.Error("alpha=1 accepted")
	}
	if _, err := Solve(Problem{N: 3, Alpha: 0.5, Objective: Objective{Weights: []float64{1}}}); err == nil {
		t.Error("wrong weight length accepted")
	}
	// Symmetry reduction needs symmetric weights.
	if _, err := Solve(Problem{
		N: 2, Alpha: 0.5, Props: core.Symmetry, ReduceSymmetry: true,
		Objective: Objective{Weights: []float64{0.5, 0.3, 0.2}},
	}); err == nil {
		t.Error("asymmetric weights with ReduceSymmetry accepted")
	}
}

// TestEntryPointsShareValidation runs every invalid problem through each
// entry point that can express it: Solve, SolveMinimax and the step-loss
// designs (UnconstrainedL0D when no property is asked for,
// ConstrainedL0D otherwise). Each must refuse it up front with an error
// naming its entry point, never hand back a mechanism.
func TestEntryPointsShareValidation(t *testing.T) {
	cases := []struct {
		name string
		p    Problem
		l0d  bool // expressible through the L0D entry points
	}{
		{"n=0", Problem{N: 0, Alpha: 0.5}, true},
		{"n<0", Problem{N: -3, Alpha: 0.5, Props: core.RowMonotone}, true},
		{"alpha=0", Problem{N: 8, Alpha: 0}, true},
		{"alpha<0", Problem{N: 8, Alpha: -0.2}, true},
		{"alpha<0 with props", Problem{N: 8, Alpha: -0.2, Props: core.RowMonotone | core.Symmetry}, true},
		{"alpha=1", Problem{N: 8, Alpha: 1}, true},
		{"alpha>1", Problem{N: 8, Alpha: 1.5, Props: core.Symmetry}, true},
		{"alpha=NaN", Problem{N: 8, Alpha: math.NaN()}, true},
		{"short weights", Problem{N: 3, Alpha: 0.5, Objective: Objective{Weights: []float64{1}}}, false},
		{"asymmetric weights folded", Problem{N: 2, Alpha: 0.5, Props: core.Symmetry, ReduceSymmetry: true,
			Objective: Objective{Weights: []float64{0.5, 0.3, 0.2}}}, false},
	}
	type entry struct {
		label string
		solve func(Problem) (*core.Mechanism, error)
	}
	result := func(r *Result, err error) (*core.Mechanism, error) {
		if err != nil {
			return nil, err
		}
		return r.Mechanism, nil
	}
	entries := []entry{
		{"design:", func(p Problem) (*core.Mechanism, error) { return result(Solve(p)) }},
		{"design: minimax:", func(p Problem) (*core.Mechanism, error) { return result(SolveMinimax(p)) }},
		{"design: L0D", func(p Problem) (*core.Mechanism, error) {
			if p.Props == 0 {
				return UnconstrainedL0D(p.N, p.Alpha, 1)
			}
			return ConstrainedL0D(p.N, p.Alpha, 1, p.Props)
		}},
	}
	for _, c := range cases {
		for _, e := range entries {
			if e.label == "design: L0D" && !c.l0d {
				continue
			}
			m, err := e.solve(c.p)
			if err == nil {
				t.Errorf("%s %s: accepted; got a mechanism (DP violation: %q)", e.label, c.name,
					m.DPViolation(c.p.Alpha, core.DefaultTol))
				continue
			}
			if !strings.HasPrefix(err.Error(), e.label) {
				t.Errorf("%s %s: error %q does not name its entry point", e.label, c.name, err)
			}
		}
	}
	if _, err := UnconstrainedL0D(8, 0.5, -1); err == nil {
		t.Error("L0D with d=-1 accepted")
	}
}

func TestTheorem3UnconstrainedEqualsGM(t *testing.T) {
	// The BASICDP L0 optimum is exactly GM, entrywise (uniqueness).
	for _, alpha := range []float64{0.3, 0.62, 0.9} {
		for _, n := range []int{2, 4, 7} {
			r, err := Solve(Problem{N: n, Alpha: alpha})
			if err != nil {
				t.Fatal(err)
			}
			gm, err := core.Geometric(n, alpha)
			if err != nil {
				t.Fatal(err)
			}
			d, err := r.Mechanism.Matrix().MaxAbsDiff(gm.Matrix())
			if err != nil {
				t.Fatal(err)
			}
			if d > 1e-7 {
				t.Errorf("n=%d alpha=%v: LP differs from GM by %v", n, alpha, d)
			}
		}
	}
}

func TestTheorem4AllPropsCostEqualsEM(t *testing.T) {
	for _, alpha := range []float64{0.62, 0.9} {
		for _, n := range []int{2, 3, 5, 8} {
			r, err := Solve(Problem{N: n, Alpha: alpha, Props: core.AllProperties, ReduceSymmetry: true})
			if err != nil {
				t.Fatal(err)
			}
			want := core.ExplicitFairL0(n, alpha)
			if got := r.Mechanism.L0(); math.Abs(got-want) > 1e-7 {
				t.Errorf("n=%d alpha=%v: all-props LP cost %v, EM %v", n, alpha, got, want)
			}
		}
	}
}

func TestFairnessAloneCostsEM(t *testing.T) {
	// §IV-D: any request including F is served optimally by EM.
	const n, alpha = 6, 0.85
	r, err := Solve(Problem{N: n, Alpha: alpha, Props: core.Fairness})
	if err != nil {
		t.Fatal(err)
	}
	want := core.ExplicitFairL0(n, alpha)
	if got := r.Mechanism.L0(); math.Abs(got-want) > 1e-7 {
		t.Errorf("fairness-only LP cost %v, EM %v", got, want)
	}
}

func TestLemma1FairCostIndependentOfWeights(t *testing.T) {
	// For fair mechanisms the O_{0,Σ} objective value is weight-free.
	const n, alpha = 4, 0.8
	uniform, err := Solve(Problem{N: n, Alpha: alpha, Props: core.Fairness})
	if err != nil {
		t.Fatal(err)
	}
	skewed, err := Solve(Problem{
		N: n, Alpha: alpha, Props: core.Fairness,
		Objective: Objective{Weights: []float64{0.5, 0.2, 0.1, 0.1, 0.1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Compare raw LP costs scaled consistently: the optimal diagonal y is
	// the same, so rescaled L0 agrees.
	if math.Abs(uniform.Mechanism.L0()-skewed.Mechanism.L0()) > 1e-7 {
		t.Errorf("fair optimum depends on weights: %v vs %v",
			uniform.Mechanism.L0(), skewed.Mechanism.L0())
	}
}

func TestEachPropertyIsEnforced(t *testing.T) {
	const n, alpha = 5, 0.9
	for _, prop := range core.Properties(core.AllProperties) {
		r, err := Solve(Problem{N: n, Alpha: alpha, Props: prop})
		if err != nil {
			t.Fatalf("%s: %v", core.PropertySetString(prop), err)
		}
		if v := r.Mechanism.Violation(prop, 1e-7); v != "" {
			t.Errorf("designed mechanism violates requested %s: %s",
				core.PropertySetString(prop), v)
		}
		if !r.Mechanism.SatisfiesDP(alpha, 1e-7) {
			t.Errorf("%s: DP violated", core.PropertySetString(prop))
		}
	}
}

func TestReducedAndFullLPsAgree(t *testing.T) {
	for _, props := range []core.PropertySet{
		core.Symmetry,
		core.Symmetry | core.WeakHonesty,
		core.Symmetry | core.ColumnMonotone | core.RowMonotone | core.WeakHonesty,
		core.AllProperties,
	} {
		full, err := Solve(Problem{N: 5, Alpha: 0.85, Props: props})
		if err != nil {
			t.Fatal(err)
		}
		reduced, err := Solve(Problem{N: 5, Alpha: 0.85, Props: props, ReduceSymmetry: true})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(full.Mechanism.L0()-reduced.Mechanism.L0()) > 1e-7 {
			t.Errorf("props %s: full %v vs reduced %v",
				core.PropertySetString(props), full.Mechanism.L0(), reduced.Mechanism.L0())
		}
		if reduced.Variables >= full.Variables {
			t.Errorf("props %s: reduction did not shrink the LP (%d vs %d vars)",
				core.PropertySetString(props), reduced.Variables, full.Variables)
		}
	}
}

func TestCostOrderingGMtoUM(t *testing.T) {
	// GM ≤ WH-LP ≤ WM ≤ EM ≤ UM for every setting.
	for _, alpha := range []float64{0.62, 0.9} {
		for _, n := range []int{2, 4, 8} {
			gm := core.GeometricL0(alpha)
			wh, err := WHOnly(n, alpha)
			if err != nil {
				t.Fatal(err)
			}
			wm, err := WM(n, alpha)
			if err != nil {
				t.Fatal(err)
			}
			em := core.ExplicitFairL0(n, alpha)
			seq := []float64{gm, wh.L0(), wm.L0(), em, 1}
			for i := 0; i+1 < len(seq); i++ {
				if seq[i] > seq[i+1]+1e-7 {
					t.Errorf("n=%d alpha=%v: ordering violated at %d: %v", n, alpha, i, seq)
				}
			}
		}
	}
}

func TestWMHasItsProperties(t *testing.T) {
	wm, err := WM(6, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if v := wm.Violation(WMProps, 1e-7); v != "" {
		t.Fatalf("WM violates its defining properties: %s", v)
	}
	if wm.Name() != "WM" {
		t.Errorf("name %q", wm.Name())
	}
}

func TestWHOnlyMatchesGMBeyondThreshold(t *testing.T) {
	// Lemma 2: beyond n = 2a/(1-a), GM is weakly honest and therefore
	// optimal for the WH-constrained problem too.
	const alpha = 2.0 / 3.0 // threshold n = 4
	for _, n := range []int{4, 6, 9} {
		m, err := WHOnly(n, alpha)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(m.L0()-core.GeometricL0(alpha)) > 1e-7 {
			t.Errorf("n=%d: WH-only cost %v, GM %v", n, m.L0(), core.GeometricL0(alpha))
		}
	}
	// Below the threshold WH costs strictly more.
	m, err := WHOnly(2, alpha)
	if err != nil {
		t.Fatal(err)
	}
	if m.L0() <= core.GeometricL0(alpha)+1e-9 {
		t.Errorf("n=2 below threshold: WH-only cost %v should exceed GM %v",
			m.L0(), core.GeometricL0(alpha))
	}
}

func TestUnconstrainedL2IsDegenerate(t *testing.T) {
	// Figure 1's headline: the unconstrained L2 optimum ignores its input
	// (constant columns) and so has gaps.
	m, err := Unconstrained(7, 0.62, 2)
	if err != nil {
		t.Fatal(err)
	}
	if gaps := m.Gaps(1e-9); len(gaps) == 0 {
		t.Error("unconstrained L2 optimum should have gaps")
	}
}

func TestUnconstrainedL0DObjectives(t *testing.T) {
	m, err := UnconstrainedL0D(5, 0.62, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Its L0,1 must be at most GM's (it optimises that loss directly).
	gm, err := core.Geometric(5, 0.62)
	if err != nil {
		t.Fatal(err)
	}
	mLoss, err := m.L0D(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	gmLoss, err := gm.L0D(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if mLoss > gmLoss+1e-9 {
		t.Errorf("L0,1 optimum %v worse than GM %v", mLoss, gmLoss)
	}
	if _, err := UnconstrainedL0D(5, 0.62, -1); err == nil {
		t.Error("negative d accepted")
	}
}

func TestConstrainedL0DSatisfiesProps(t *testing.T) {
	props := core.AllProperties | core.Symmetry
	m, err := ConstrainedL0D(5, 0.62, 1, props)
	if err != nil {
		t.Fatal(err)
	}
	if v := m.Violation(core.AllProperties, 1e-7); v != "" {
		t.Fatalf("constrained L0,1 design violates: %s", v)
	}
	if gaps := m.Gaps(1e-9); len(gaps) != 0 {
		t.Errorf("constrained design has gaps %v", gaps)
	}
}

func TestOutputDPDesign(t *testing.T) {
	r, err := Solve(Problem{N: 4, Alpha: 0.9, Props: WMProps | core.OutputDP, ReduceSymmetry: true})
	if err != nil {
		t.Fatal(err)
	}
	if v := r.Mechanism.Violation(core.OutputDP, 1e-7); v != "" {
		t.Fatalf("output-DP design violates: %s", v)
	}
}

func TestResultDiagnostics(t *testing.T) {
	r, err := Solve(Problem{N: 3, Alpha: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	if r.Variables != 16 {
		t.Errorf("variables = %d, want 16", r.Variables)
	}
	if r.Rows == 0 || r.Iterations == 0 {
		t.Errorf("diagnostics not populated: %+v", r)
	}
}
