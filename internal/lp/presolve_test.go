package lp

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// Tests for the presolve pass: each reduction individually (stats
// observable through Solution.Presolve), infeasibility detection, and
// the lattice property test pinning presolved solves to unreduced ones
// across the design LPs' property-set structures.

func TestPresolveFoldsSingletonRows(t *testing.T) {
	// min 2x + 3y  s.t.  x + y ≥ 4 (row), x ≥ 1 (singleton), y ≤ 10
	// (singleton). Optimum x = 4 − y... costs favour x: x = 4, y = 0?
	// No: 2 < 3, so all mass on x: x = 4, y = 0, cost 8.
	m := NewModel("fold", Minimize)
	x := m.AddVariable("x")
	y := m.AddVariable("y")
	m.SetObjective(x, 2)
	m.SetObjective(y, 3)
	m.AddConstraint("need", []Term{{x, 1}, {y, 1}}, GE, 4)
	m.AddConstraint("floor", []Term{{x, 1}}, GE, 1)
	m.AddConstraint("cap", []Term{{y, 1}}, LE, 10)
	sol, err := m.SolveWith(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Presolve.BoundsFolded != 2 {
		t.Fatalf("BoundsFolded = %d, want 2 (stats: %+v)", sol.Presolve.BoundsFolded, sol.Presolve)
	}
	if math.Abs(sol.Objective-8) > 1e-8 {
		t.Fatalf("objective %v, want 8", sol.Objective)
	}
	dense, err := m.solveBy(Options{Method: methodDense})
	if err != nil {
		t.Fatal(err)
	}
	for i := range dense.Duals {
		if d := math.Abs(dense.Duals[i] - sol.Duals[i]); d > 1e-8 {
			t.Fatalf("dual %d: presolved %v vs dense %v", i, sol.Duals[i], dense.Duals[i])
		}
	}
}

func TestPresolveActiveBoundDualRecovery(t *testing.T) {
	// The folded floor is active at the optimum, so its recovered dual
	// must carry the full reduced cost: min x s.t. x ≥ 3 has dual 1 on
	// the floor row.
	m := NewModel("active", Minimize)
	x := m.AddVariable("x")
	m.SetObjective(x, 1)
	m.AddConstraint("floor", []Term{{x, 1}}, GE, 3)
	sol, err := m.SolveWith(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.Value(x)-3) > 1e-9 || math.Abs(sol.Duals[0]-1) > 1e-9 {
		t.Fatalf("x=%v dual=%v, want 3, 1", sol.Value(x), sol.Duals[0])
	}
}

func TestPresolveDominatedRatioRows(t *testing.T) {
	// x ≤ y dominates 0.7x ≤ y over x, y ≥ 0. The dominated row must be
	// dropped without changing the optimum.
	m := NewModel("dom", Maximize)
	x := m.AddVariable("x")
	y := m.AddVariable("y")
	m.SetObjective(x, 1)
	m.AddConstraint("strong", []Term{{x, 1}, {y, -1}}, LE, 0)
	m.AddConstraint("weak", []Term{{x, 0.7}, {y, -1}}, LE, 0)
	m.AddConstraint("cap", []Term{{y, 1}}, LE, 2)
	sol, err := m.SolveWith(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Presolve.DominatedRows != 1 {
		t.Fatalf("DominatedRows = %d, want 1 (stats: %+v)", sol.Presolve.DominatedRows, sol.Presolve)
	}
	if math.Abs(sol.Objective-2) > 1e-8 {
		t.Fatalf("objective %v, want 2", sol.Objective)
	}
	if math.Abs(sol.Duals[1]) > 1e-12 {
		t.Fatalf("dominated row carries dual %v, want 0", sol.Duals[1])
	}
}

func TestPresolveDuplicateRows(t *testing.T) {
	// 2x + 2y ≤ 6 is x + y ≤ 3 scaled; the slacker x + y ≤ 5 copy drops.
	m := NewModel("dup", Maximize)
	x := m.AddVariable("x")
	y := m.AddVariable("y")
	m.SetObjective(x, 2)
	m.SetObjective(y, 1)
	m.AddConstraint("a", []Term{{x, 2}, {y, 2}}, LE, 6)
	m.AddConstraint("b", []Term{{x, 1}, {y, 1}}, LE, 5)
	sol, err := m.SolveWith(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Presolve.DuplicateRows != 1 {
		t.Fatalf("DuplicateRows = %d, want 1 (stats: %+v)", sol.Presolve.DuplicateRows, sol.Presolve)
	}
	if math.Abs(sol.Objective-6) > 1e-8 {
		t.Fatalf("objective %v, want 6 (x=3)", sol.Objective)
	}
}

func TestPresolveFixedVariableSubstitution(t *testing.T) {
	m := NewModel("fixed", Maximize)
	x := m.AddVariable("x")
	y := m.AddVariable("y")
	m.SetObjective(x, 1)
	m.SetObjective(y, 1)
	m.SetBounds(y, 1.5, 1.5)
	m.AddConstraint("c", []Term{{x, 1}, {y, 2}}, LE, 5)
	sol, err := m.SolveWith(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Presolve.FixedVars != 1 {
		t.Fatalf("FixedVars = %d, want 1", sol.Presolve.FixedVars)
	}
	if math.Abs(sol.Value(x)-2) > 1e-8 || math.Abs(sol.Value(y)-1.5) > 1e-12 {
		t.Fatalf("x=%v y=%v, want 2, 1.5", sol.Value(x), sol.Value(y))
	}
}

// TestPresolveSubstitutionChainDuals is the regression test for the
// fold-stack dual recovery: an equality singleton fixes x1, which turns
// both remaining two-variable rows into singletons on x0 that presolve
// folds as bounds. Recovering the folded rows' duals must propagate
// through their x1 coefficients before the equality row's dual is read
// off x1's reduced cost — a stale snapshot hands row 0 a dual that
// violates strong duality.
func TestPresolveSubstitutionChainDuals(t *testing.T) {
	build := func() *Model {
		m := NewModel("chain", Minimize)
		x0 := m.AddVariable("x0")
		x1 := m.AddVariable("x1")
		m.SetObjective(x0, 0.2434)
		m.SetObjective(x1, 1.4090)
		m.AddConstraint("fix", []Term{{x1, 0.7293}}, EQ, 1.6721)
		m.AddConstraint("need", []Term{{x0, 0.6634}, {x1, 0.9138}}, GE, 4.5049)
		m.AddConstraint("cap", []Term{{x0, 0.8200}, {x1, 0.5521}}, LE, 4.5360)
		return m
	}
	pre, err := build().SolveWith(Options{})
	if err != nil {
		t.Fatal(err)
	}
	dense, err := build().solveBy(Options{Method: methodDense})
	if err != nil {
		t.Fatal(err)
	}
	for i := range dense.Duals {
		if d := math.Abs(dense.Duals[i] - pre.Duals[i]); d > 1e-6*(1+math.Abs(dense.Duals[i])) {
			t.Fatalf("dual %d: presolved %v vs dense %v", i, pre.Duals[i], dense.Duals[i])
		}
	}
	verifyDualCertificate(t, build(), pre, 1e-6)
}

// TestPresolveRandomChainDuals fuzzes the same shape class: random
// fixing equalities plus random two-variable rows that collapse into
// bound folds, pinned elementwise against the dense oracle (general
// position keeps the optimal duals unique).
func TestPresolveRandomChainDuals(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 200; trial++ {
		m := NewModel("chainfuzz", Minimize)
		x0 := m.AddVariable("")
		x1 := m.AddVariable("")
		m.SetObjective(x0, 0.1+rng.Float64())
		m.SetObjective(x1, 0.1+2*rng.Float64())
		m.AddConstraint("", []Term{{x1, 0.2 + rng.Float64()}}, EQ, 0.5+2*rng.Float64())
		m.AddConstraint("", []Term{{x0, 0.2 + rng.Float64()}, {x1, 0.2 + rng.Float64()}}, GE, 2+4*rng.Float64())
		m.AddConstraint("", []Term{{x0, 0.2 + rng.Float64()}, {x1, 0.2 + rng.Float64()}}, LE, 20+rng.Float64())
		pre, preErr := m.SolveWith(Options{})
		dense, denseErr := m.solveBy(Options{Method: methodDense})
		if (preErr == nil) != (denseErr == nil) {
			t.Fatalf("trial %d: presolved err %v, dense err %v", trial, preErr, denseErr)
		}
		if preErr != nil {
			continue
		}
		if d := math.Abs(pre.Objective - dense.Objective); d > 1e-6*(1+math.Abs(dense.Objective)) {
			t.Fatalf("trial %d: objectives differ by %g", trial, d)
		}
		for i := range dense.Duals {
			if d := math.Abs(dense.Duals[i] - pre.Duals[i]); d > 1e-6*(1+math.Abs(dense.Duals[i])) {
				t.Fatalf("trial %d: dual %d: presolved %v vs dense %v", trial, i, pre.Duals[i], dense.Duals[i])
			}
		}
	}
}

func TestPresolveInfeasibleBounds(t *testing.T) {
	m := NewModel("cross", Minimize)
	x := m.AddVariable("x")
	m.SetObjective(x, 1)
	m.AddConstraint("lo", []Term{{x, 1}}, GE, 3)
	m.AddConstraint("hi", []Term{{x, 1}}, LE, 1)
	_, err := m.SolveWith(Options{})
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
	// The oracle must agree that the unreduced model is infeasible.
	if _, err := m.solveBy(Options{Method: methodDense}); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("dense err = %v, want ErrInfeasible", err)
	}
}

func TestPresolveEmptyRow(t *testing.T) {
	m := NewModel("empty", Minimize)
	x := m.AddVariable("x")
	m.SetObjective(x, 1)
	m.AddConstraint("ok", nil, LE, 1)  // 0 ≤ 1: droppable
	m.AddConstraint("bad", nil, GE, 9) // 0 ≥ 9: infeasible
	_, err := m.SolveWith(Options{})
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

// latticeModel builds a design-shaped LP over the §IV-A property
// structures selected by mask — BASICDP always, then row/column
// monotonicity difference rows, weak-honesty floors, fairness ties, and
// symmetry equalities — mirroring the constraint shapes Choose can emit.
func latticeModel(n int, alpha float64, mask int) *Model {
	m := NewModel("lattice", Minimize)
	vars := make([][]int, n+1)
	for i := range vars {
		vars[i] = make([]int, n+1)
		for j := range vars[i] {
			vars[i][j] = m.AddVariable("")
			if i != j {
				m.SetObjective(vars[i][j], 1/float64(n+1))
			}
		}
	}
	for j := 0; j <= n; j++ {
		terms := make([]Term, 0, n+1)
		for i := 0; i <= n; i++ {
			terms = append(terms, Term{vars[i][j], 1})
		}
		m.AddConstraint("", terms, EQ, 1)
	}
	for i := 0; i <= n; i++ {
		for j := 0; j < n; j++ {
			m.AddConstraint("", []Term{{vars[i][j+1], alpha}, {vars[i][j], -1}}, LE, 0)
			m.AddConstraint("", []Term{{vars[i][j], alpha}, {vars[i][j+1], -1}}, LE, 0)
		}
	}
	if mask&1 != 0 { // row monotonicity
		for i := 0; i <= n; i++ {
			for j := 1; j <= i; j++ {
				m.AddConstraint("", []Term{{vars[i][j-1], 1}, {vars[i][j], -1}}, LE, 0)
			}
			for j := i; j < n; j++ {
				m.AddConstraint("", []Term{{vars[i][j+1], 1}, {vars[i][j], -1}}, LE, 0)
			}
		}
	}
	if mask&2 != 0 { // column monotonicity
		for j := 0; j <= n; j++ {
			for i := 1; i <= j; i++ {
				m.AddConstraint("", []Term{{vars[i-1][j], 1}, {vars[i][j], -1}}, LE, 0)
			}
			for i := j; i < n; i++ {
				m.AddConstraint("", []Term{{vars[i+1][j], 1}, {vars[i][j], -1}}, LE, 0)
			}
		}
	}
	if mask&4 != 0 { // weak honesty floors (singleton GE rows)
		for i := 0; i <= n; i++ {
			m.AddConstraint("", []Term{{vars[i][i], 1}}, GE, 1/float64(n+1))
		}
	}
	if mask&8 != 0 { // fairness: equal diagonal
		for i := 1; i <= n; i++ {
			m.AddConstraint("", []Term{{vars[i][i], 1}, {vars[0][0], -1}}, EQ, 0)
		}
	}
	if mask&16 != 0 { // symmetry equalities
		for i := 0; i <= n; i++ {
			for j := 0; j <= n; j++ {
				mi, mj := n-i, n-j
				if mi < i || (mi == i && mj <= j) {
					continue
				}
				m.AddConstraint("", []Term{{vars[i][j], 1}, {vars[mi][mj], -1}}, EQ, 0)
			}
		}
	}
	if mask&32 != 0 { // infeasible twist: a floor above what sums allow
		m.AddConstraint("", []Term{{vars[0][0], 1}}, GE, 1.5)
	}
	return m
}

// TestPresolveLatticeAgreesWithUnreduced solves every lattice shape with
// and without presolve and requires matching outcomes: identical
// objectives to 1e-6, infeasibility verdicts in agreement, and both dual
// vectors valid optimality certificates of the same strength (these LPs
// are massively degenerate, so elementwise dual equality is not defined;
// certificate validity plus an equal dual objective is the meaningful
// notion of "the same duals" — elementwise agreement is pinned
// separately on general-position instances).
func TestPresolveLatticeAgreesWithUnreduced(t *testing.T) {
	for _, n := range []int{3, 5} {
		for _, alpha := range []float64{0.5, 0.8} {
			for mask := 0; mask < 64; mask++ {
				m := latticeModel(n, alpha, mask)
				pre, preErr := m.SolveWith(Options{})
				raw, rawErr := latticeModel(n, alpha, mask).SolveWith(Options{NoPresolve: true})
				if (preErr == nil) != (rawErr == nil) {
					t.Fatalf("n=%d a=%g mask=%d: presolved err %v, unreduced err %v",
						n, alpha, mask, preErr, rawErr)
				}
				if preErr != nil {
					if !errors.Is(preErr, ErrInfeasible) || !errors.Is(rawErr, ErrInfeasible) {
						t.Fatalf("n=%d a=%g mask=%d: non-infeasible failures %v / %v",
							n, alpha, mask, preErr, rawErr)
					}
					continue
				}
				if d := math.Abs(pre.Objective - raw.Objective); d > 1e-6*(1+math.Abs(raw.Objective)) {
					t.Fatalf("n=%d a=%g mask=%d: objectives differ by %g (%v vs %v)",
						n, alpha, mask, d, pre.Objective, raw.Objective)
				}
				verifyDualCertificate(t, m, pre, 1e-6)
				verifyDualCertificate(t, m, raw, 1e-6)
				if err := m.CheckFeasible(pre.X, 1e-7); err != nil {
					t.Fatalf("n=%d a=%g mask=%d: presolved point: %v", n, alpha, mask, err)
				}
			}
		}
	}
}

func TestPresolveStatsOnDesignShape(t *testing.T) {
	// The WM-shaped lattice (RM+CM+WH) must show the reductions the
	// serving path relies on: floors folded into bounds and the
	// toward-diagonal ratio rows dropped as dominated.
	m := latticeModel(8, 0.8, 1|2|4)
	sol, err := m.SolveWith(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Presolve.BoundsFolded < 9 {
		t.Fatalf("BoundsFolded = %d, want >= 9 (the WH floors)", sol.Presolve.BoundsFolded)
	}
	if sol.Presolve.DominatedRows < 72 {
		t.Fatalf("DominatedRows = %d, want >= 72 (the dominated ratio rows)", sol.Presolve.DominatedRows)
	}
	if sol.Presolve.Reductions() < 81 {
		t.Fatalf("Reductions() = %d, want >= 81", sol.Presolve.Reductions())
	}
}
