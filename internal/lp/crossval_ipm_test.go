package lp

import (
	"errors"
	"math"
	"testing"
)

// The tests in this file pin the interior point engine to the simplex
// back ends the same way crossval_test.go pins sparse to dense: forced
// MethodIPM must reproduce the simplex objective to 1e-6 on every
// feasible shape of the property lattice, return a valid dual
// optimality certificate of the same strength, and agree on the
// infeasibility and unboundedness verdicts. (Elementwise dual equality
// is not defined on these massively degenerate LPs — non-unique optimal
// duals — so certificate validity plus an equal dual objective is the
// meaningful notion of "duals agree"; see verifyDualCertificate.)

// TestIPMLatticeCrossValidation sweeps the 64-shape §IV-A property
// lattice (row/column monotonicity, honesty floors, fairness ties,
// symmetry equalities, and the deliberately infeasible twist) at two
// sizes and two α and cross-validates forced IPM against the bounded
// simplex. The symmetry masks matter most: their equality rows
// duplicate column sums, making the normal equations rank-deficient —
// the exact shape the iterative refinement in newtonSolve exists for.
func TestIPMLatticeCrossValidation(t *testing.T) {
	for _, n := range []int{3, 5} {
		for _, alpha := range []float64{0.5, 0.8} {
			for mask := 0; mask < 64; mask++ {
				mIPM := latticeModel(n, alpha, mask)
				ipm, ipmErr := mIPM.SolveWith(Options{Method: MethodIPM})
				ref, refErr := latticeModel(n, alpha, mask).SolveWith(Options{Method: MethodSparse})
				if (ipmErr == nil) != (refErr == nil) {
					t.Errorf("n=%d a=%g mask=%d: ipm err %v, simplex err %v", n, alpha, mask, ipmErr, refErr)
					continue
				}
				if ipmErr != nil {
					// The infeasible twist (mask bit 32): both engines must
					// classify it, not just fail.
					if !errors.Is(ipmErr, ErrInfeasible) {
						t.Errorf("n=%d a=%g mask=%d: ipm err %v, want ErrInfeasible", n, alpha, mask, ipmErr)
					}
					if !errors.Is(refErr, ErrInfeasible) {
						t.Errorf("n=%d a=%g mask=%d: simplex err %v, want ErrInfeasible", n, alpha, mask, refErr)
					}
					continue
				}
				if d := math.Abs(ipm.Objective - ref.Objective); d > 1e-6*(1+math.Abs(ref.Objective)) {
					t.Errorf("n=%d a=%g mask=%d: objective diff %g (ipm %v route %s, simplex %v)",
						n, alpha, mask, d, ipm.Objective, ipm.Route, ref.Objective)
					continue
				}
				if err := mIPM.CheckFeasible(ipm.X, 1e-7); err != nil {
					t.Errorf("n=%d a=%g mask=%d: ipm point infeasible: %v", n, alpha, mask, err)
					continue
				}
				if ipm.Route == "ipm" {
					verifyDualCertificate(t, mIPM, ipm, 1e-6)
				}
			}
		}
	}
}

// TestIPMSolvesMostLatticeShapes guards against the forced-IPM route
// silently degrading into "always fall back to simplex": across the
// feasible lattice the interior point engine itself must produce the
// accepted solution on the overwhelming majority of shapes.
func TestIPMSolvesMostLatticeShapes(t *testing.T) {
	ipmRoute, total := 0, 0
	for _, alpha := range []float64{0.5, 0.8} {
		for mask := 0; mask < 32; mask++ {
			sol, err := latticeModel(5, alpha, mask).SolveWith(Options{Method: MethodIPM})
			if err != nil {
				t.Fatalf("a=%g mask=%d: %v", alpha, mask, err)
			}
			total++
			if sol.Route == "ipm" {
				ipmRoute++
			}
		}
	}
	if ipmRoute*10 < total*9 {
		t.Errorf("ipm served %d/%d feasible lattice shapes; forced MethodIPM is mostly falling back", ipmRoute, total)
	}
}

// TestIPMBealeDegenerate runs Beale's cycling example through the
// interior point engine. Degeneracy is what makes this instance cycle a
// naive simplex; an IPM's iteration count is indifferent to it, and the
// known optimum −1/20 must come back within the engine's tolerance.
func TestIPMBealeDegenerate(t *testing.T) {
	m := NewModel("beale", Minimize)
	x1 := m.AddVariable("x1")
	x2 := m.AddVariable("x2")
	x3 := m.AddVariable("x3")
	x4 := m.AddVariable("x4")
	m.SetObjective(x1, -0.75)
	m.SetObjective(x2, 150)
	m.SetObjective(x3, -0.02)
	m.SetObjective(x4, 6)
	m.AddConstraint("c1", []Term{{x1, 0.25}, {x2, -60}, {x3, -0.04}, {x4, 9}}, LE, 0)
	m.AddConstraint("c2", []Term{{x1, 0.5}, {x2, -90}, {x3, -0.02}, {x4, 3}}, LE, 0)
	m.AddConstraint("c3", []Term{{x3, 1}}, LE, 1)
	sol, err := m.SolveWith(Options{Method: MethodIPM})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.Objective-(-0.05)) > 1e-6 {
		t.Fatalf("objective %v, want -0.05", sol.Objective)
	}
}

// TestIPMUnboundedVerdict cross-validates the unboundedness verdict: a
// ray along which the objective improves forever must surface as
// ErrUnbounded from the forced-IPM route exactly as it does from the
// simplex back ends.
func TestIPMUnboundedVerdict(t *testing.T) {
	build := func() *Model {
		m := NewModel("ray", Maximize)
		x := m.AddVariable("x")
		y := m.AddVariable("y")
		m.SetObjective(x, 1)
		m.SetObjective(y, 1)
		// x − y ≤ 1 leaves the diagonal ray free.
		m.AddConstraint("c", []Term{{x, 1}, {y, -1}}, LE, 1)
		return m
	}
	for _, method := range []Method{MethodIPM, MethodSparse} {
		if _, err := build().SolveWith(Options{Method: method}); !errors.Is(err, ErrUnbounded) {
			t.Errorf("method %d: err = %v, want ErrUnbounded", method, err)
		}
	}
}

// TestIPMMatchesPerturbedWarmStart pins the α-sweep scenario the design
// layer runs: solve the perturbed neighbouring-α (0.72) model of a
// design-shaped LP cold on the simplex, and require the interior point
// engine to reproduce that optimum from nothing — no crash hint — to
// 1e-6. This is the agreement that lets minimax builds (which have no
// crash vertex to offer) trust the IPM.
func TestIPMMatchesPerturbedWarmStart(t *testing.T) {
	cold, err := designLikeLP(0.72).SolveWith(Options{Method: MethodSparse})
	if err != nil {
		t.Fatal(err)
	}
	ipm, err := designLikeLP(0.72).SolveWith(Options{Method: MethodIPM})
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(ipm.Objective - cold.Objective); d > 1e-6*(1+math.Abs(cold.Objective)) {
		t.Fatalf("ipm objective %v, cold simplex %v (diff %g)", ipm.Objective, cold.Objective, d)
	}
}
