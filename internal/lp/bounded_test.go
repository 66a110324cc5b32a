package lp

import (
	"math"
	"math/rand"
	"testing"
)

// Tests for the bounded-variable revised simplex: native boxes, bound
// flips, fixed variables, crash hints, and cross-validation of boxed
// models against both oracle back ends.

func TestBoundedUpperBoundRespected(t *testing.T) {
	// max x + y  s.t.  x + 2y ≤ 4, x ∈ [0, 1.5]  →  x = 1.5, y = 1.25.
	for _, method := range []Method{MethodSparse, MethodAuto, methodDense, methodUnbounded} {
		m := NewModel("box", Maximize)
		x := m.AddVariable("x")
		y := m.AddVariable("y")
		m.SetObjective(x, 1)
		m.SetObjective(y, 1)
		if err := m.SetBounds(x, 0, 1.5); err != nil {
			t.Fatal(err)
		}
		m.AddConstraint("c", []Term{{x, 1}, {y, 2}}, LE, 4)
		sol, err := m.solveBy(Options{Method: method})
		if err != nil {
			t.Fatalf("method %d: %v", method, err)
		}
		if math.Abs(sol.Value(x)-1.5) > 1e-8 || math.Abs(sol.Value(y)-1.25) > 1e-8 {
			t.Fatalf("method %d: x=%v y=%v, want 1.5, 1.25", method, sol.Value(x), sol.Value(y))
		}
		if math.Abs(sol.Objective-2.75) > 1e-8 {
			t.Fatalf("method %d: objective %v, want 2.75", method, sol.Objective)
		}
	}
}

func TestBoundedLowerBoundShift(t *testing.T) {
	// min x + y  s.t.  x + y ≥ 5, x ≥ 2, y ∈ [1, 2]  →  x = 3, y = 2 or
	// x = 4, y = 1 — both cost 5; the objective is what's pinned.
	for _, method := range []Method{MethodSparse, MethodAuto, methodDense, methodUnbounded} {
		m := NewModel("shift", Minimize)
		x := m.AddVariable("x")
		y := m.AddVariable("y")
		m.SetObjective(x, 1)
		m.SetObjective(y, 1)
		m.SetBounds(x, 2, math.Inf(1))
		m.SetBounds(y, 1, 2)
		m.AddConstraint("c", []Term{{x, 1}, {y, 1}}, GE, 5)
		sol, err := m.solveBy(Options{Method: method})
		if err != nil {
			t.Fatalf("method %d: %v", method, err)
		}
		if math.Abs(sol.Objective-5) > 1e-8 {
			t.Fatalf("method %d: objective %v, want 5", method, sol.Objective)
		}
		if err := m.CheckFeasible(sol.X, 1e-8); err != nil {
			t.Fatalf("method %d: %v", method, err)
		}
	}
}

func TestBoundedFixedVariable(t *testing.T) {
	// x fixed at 2 contributes 2y ≤ 6 − 2 to the row; optimum y = 2.
	for _, method := range []Method{MethodSparse, MethodAuto, methodDense} {
		m := NewModel("fix", Maximize)
		x := m.AddVariable("x")
		y := m.AddVariable("y")
		m.SetObjective(y, 1)
		m.SetBounds(x, 2, 2)
		m.AddConstraint("c", []Term{{x, 1}, {y, 2}}, LE, 6)
		sol, err := m.solveBy(Options{Method: method})
		if err != nil {
			t.Fatalf("method %d: %v", method, err)
		}
		if math.Abs(sol.Value(x)-2) > 1e-9 || math.Abs(sol.Value(y)-2) > 1e-8 {
			t.Fatalf("method %d: x=%v y=%v, want 2, 2", method, sol.Value(x), sol.Value(y))
		}
	}
}

func TestBoundedBoundFlips(t *testing.T) {
	// Many boxed variables under one loose row: the optimum sends every
	// variable to its upper bound, which the bounded engine reaches by
	// flipping columns across their boxes without basis changes.
	m := NewModel("flips", Maximize)
	const k = 12
	terms := make([]Term, 0, k)
	for i := 0; i < k; i++ {
		v := m.AddVariable("")
		m.SetObjective(v, 1+float64(i%3))
		m.SetBounds(v, 0, 1)
		terms = append(terms, Term{v, 1})
	}
	m.AddConstraint("cap", terms, LE, float64(k))
	sol, err := m.SolveWith(Options{Method: MethodSparse, NoPresolve: true})
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < k; v++ {
		if math.Abs(sol.Value(v)-1) > 1e-8 {
			t.Fatalf("x[%d] = %v, want 1", v, sol.Value(v))
		}
	}
	if sol.BoundFlips == 0 {
		t.Fatal("expected at least one bound flip on the all-upper optimum")
	}
}

func TestBoundedInfeasibleBox(t *testing.T) {
	// Rows force x ≥ 3 against a box hi of 2: presolve proves it, and
	// the oracle agrees via phase 1.
	for _, method := range []Method{MethodAuto, methodDense} {
		m := NewModel("inf", Minimize)
		x := m.AddVariable("x")
		m.SetObjective(x, 1)
		m.SetBounds(x, 0, 2)
		m.AddConstraint("f", []Term{{x, 1}}, GE, 3)
		_, err := m.solveBy(Options{Method: method})
		if err == nil {
			t.Fatalf("method %d: expected infeasible", method)
		}
	}
}

// randomBoxedLP is randomGeneralPositionLP with genuine variable boxes
// instead of (as well as) box rows, so the bounded three-state logic and
// the oracle bound-expansion both run.
func randomBoxedLP(rng *rand.Rand) *Model {
	nv := 2 + rng.Intn(6)
	nc := 2 + rng.Intn(8)
	m := NewModel("boxval", Maximize)
	vars := make([]int, nv)
	for i := range vars {
		vars[i] = m.AddVariable("")
		m.SetObjective(vars[i], 0.25+rng.Float64())
		lo := 0.0
		if rng.Float64() < 0.4 {
			lo = rng.Float64() / 2
		}
		hi := math.Inf(1)
		if rng.Float64() < 0.7 {
			hi = lo + 0.5 + 2*rng.Float64()
		}
		m.SetBounds(vars[i], lo, hi)
	}
	for k := 0; k < nc; k++ {
		terms := make([]Term, 0, nv)
		for _, v := range vars {
			if rng.Float64() < 0.7 {
				terms = append(terms, Term{v, 0.1 + rng.Float64()})
			}
		}
		if len(terms) == 0 {
			continue
		}
		m.AddConstraint("", terms, LE, 1+19*rng.Float64())
	}
	// Keep unbounded rays out: any variable without a finite hi gets a
	// box row (also exercising singleton folding against native boxes).
	for _, v := range vars {
		if _, hi := m.Bounds(v); math.IsInf(hi, 1) {
			m.AddConstraint("", []Term{{v, 1}}, LE, 2+5*rng.Float64())
		}
	}
	return m
}

// TestBoundedDenseCrossValidation pins the bounded engine to both oracle
// back ends on random boxed models: objectives and duals to 1e-6
// (general position makes the optimal duals unique almost surely), and
// the returned point feasible for the boxed model.
func TestBoundedDenseCrossValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 120; trial++ {
		m := randomBoxedLP(rng)
		dense, err := m.solveBy(Options{Method: methodDense})
		if err != nil {
			t.Fatalf("trial %d: dense: %v", trial, err)
		}
		unb, err := m.solveBy(Options{Method: methodUnbounded})
		if err != nil {
			t.Fatalf("trial %d: unbounded-sparse: %v", trial, err)
		}
		bounded, err := m.SolveWith(Options{Method: MethodSparse})
		if err != nil {
			t.Fatalf("trial %d: bounded: %v", trial, err)
		}
		for name, sol := range map[string]*Solution{"unbounded-sparse": unb, "bounded": bounded} {
			if d := math.Abs(dense.Objective - sol.Objective); d > 1e-6*(1+math.Abs(dense.Objective)) {
				t.Fatalf("trial %d: %s objective differs by %g: dense %v vs %v",
					trial, name, d, dense.Objective, sol.Objective)
			}
			for i := range dense.Duals {
				if d := math.Abs(dense.Duals[i] - sol.Duals[i]); d > 1e-6*(1+math.Abs(dense.Duals[i])) {
					t.Fatalf("trial %d: %s dual %d differs by %g: dense %v vs %v",
						trial, name, i, d, dense.Duals[i], sol.Duals[i])
				}
			}
			if err := m.CheckFeasible(sol.X, 1e-7); err != nil {
				t.Fatalf("trial %d: %s: %v", trial, name, err)
			}
		}
	}
}

// TestCrashRowsHint solves a design-shaped model with the tight-row hint
// the design layer would provide and requires the same optimum as the
// cold solve, in strictly fewer iterations.
func TestCrashRowsHint(t *testing.T) {
	n := 24
	alpha := 0.8
	m := NewModel("crash", Minimize)
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
	var crash []int
	for j := 0; j <= n; j++ {
		terms := make([]Term, 0, n+1)
		for i := 0; i <= n; i++ {
			terms = append(terms, Term{vars[i][j], 1})
		}
		row, _ := m.AddConstraint("", terms, EQ, 1)
		crash = append(crash, row)
	}
	for i := 0; i <= n; i++ {
		for j := 0; j < n; j++ {
			row, _ := m.AddConstraint("", []Term{{vars[i][j+1], alpha}, {vars[i][j], -1}}, LE, 0)
			if j < i {
				crash = append(crash, row)
			}
			row, _ = m.AddConstraint("", []Term{{vars[i][j], alpha}, {vars[i][j+1], -1}}, LE, 0)
			if j >= i {
				crash = append(crash, row)
			}
		}
	}

	cold, err := m.SolveWith(Options{})
	if err != nil {
		t.Fatal(err)
	}
	hinted, err := m.SolveWith(Options{CrashRows: crash})
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(cold.Objective - hinted.Objective); d > 1e-8 {
		t.Fatalf("objectives differ by %g: cold %v, hinted %v", d, cold.Objective, hinted.Objective)
	}
	// The unconstrained BASICDP optimum at L0 is the geometric mechanism
	// (Theorem 3) — the hinted basis is essentially optimal already.
	if hinted.Iterations*4 > cold.Iterations {
		t.Fatalf("crash hint should cut pivots at least 4x: hinted %d, cold %d",
			hinted.Iterations, cold.Iterations)
	}
}

func TestSetBoundsValidation(t *testing.T) {
	m := NewModel("b", Minimize)
	x := m.AddVariable("x")
	if err := m.SetBounds(x, -1, 2); err == nil {
		t.Fatal("negative lower bound should be rejected")
	}
	if err := m.SetBounds(x, 3, 2); err == nil {
		t.Fatal("crossed box should be rejected")
	}
	if err := m.SetBounds(x, math.Inf(1), math.Inf(1)); err == nil {
		t.Fatal("infinite lower bound should be rejected")
	}
	if err := m.SetBounds(99, 0, 1); err == nil {
		t.Fatal("out-of-range variable should be rejected")
	}
	if err := m.SetBounds(x, 0.5, math.Inf(1)); err != nil {
		t.Fatal(err)
	}
	if lo, hi := m.Bounds(x); lo != 0.5 || !math.IsInf(hi, 1) {
		t.Fatalf("Bounds = [%v, %v]", lo, hi)
	}
}
