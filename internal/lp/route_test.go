package lp

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// Tests for the production route's ends: the direct solve of models
// with no constraint rows left, and the Method values SolveWith accepts.

// randomSingletonLP builds a model whose every row touches one variable,
// so presolve folds all of them into boxes and the reduced model has no
// rows. Rows on one variable carry distinct right-hand sides, which
// keeps the optimal duals unique; some variables also get a native box,
// some costs are zero or negative, and nothing stops a draw from being
// infeasible or unbounded.
func randomSingletonLP(rng *rand.Rand) *Model {
	sense := Minimize
	if rng.Intn(2) == 0 {
		sense = Maximize
	}
	m := NewModel("singleton", sense)
	nv := 1 + rng.Intn(6)
	for v := 0; v < nv; v++ {
		m.AddVariable("")
		switch c := rng.Intn(5); c {
		case 0:
			// zero cost: the variable rests at its lower bound
		default:
			m.SetObjective(v, float64(c-2)+rng.Float64())
		}
		if rng.Float64() < 0.3 {
			lo := rng.Float64()
			m.SetBounds(v, lo, lo+1+3*rng.Float64())
		}
		for k, rows := 0, rng.Intn(3); k < rows; k++ {
			coeff := 0.5 + rng.Float64()
			if rng.Intn(2) == 0 {
				coeff = -coeff
			}
			op := []Op{LE, GE, EQ}[rng.Intn(3)]
			m.AddConstraint("", []Term{{v, coeff}}, op, coeff*(float64(k)+0.5+2*rng.Float64()))
		}
	}
	return m
}

// TestRowFreeModelsMatchOracles pins the direct solve of a model with no
// rows left to both test oracles, which solve the unreduced model: the
// same verdict, and on optimal draws the same objective and duals.
func TestRowFreeModelsMatchOracles(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	optimal := 0
	for trial := 0; trial < 300; trial++ {
		m := randomSingletonLP(rng)
		sol, err := m.SolveWith(Options{})
		if err == nil || errors.Is(err, ErrUnbounded) {
			if sol.Route != "presolve" {
				t.Fatalf("trial %d: route %q, want presolve", trial, sol.Route)
			}
			if sol.Presolve.RowsOut != 0 {
				t.Fatalf("trial %d: %d rows survived presolve", trial, sol.Presolve.RowsOut)
			}
		}
		for _, method := range []Method{methodDense, methodUnbounded} {
			ref, refErr := m.solveBy(Options{Method: method})
			if Cause(err) != Cause(refErr) {
				t.Fatalf("trial %d method %d: verdict %v, oracle %v", trial, method, err, refErr)
			}
			if err != nil {
				continue
			}
			if d := math.Abs(sol.Objective - ref.Objective); d > 1e-9*(1+math.Abs(ref.Objective)) {
				t.Fatalf("trial %d method %d: objective %v, oracle %v", trial, method, sol.Objective, ref.Objective)
			}
			if len(sol.Duals) != len(ref.Duals) {
				t.Fatalf("trial %d method %d: %d duals, oracle %d", trial, method, len(sol.Duals), len(ref.Duals))
			}
			for i := range ref.Duals {
				if d := math.Abs(sol.Duals[i] - ref.Duals[i]); d > 1e-9*(1+math.Abs(ref.Duals[i])) {
					t.Fatalf("trial %d method %d: dual %d = %v, oracle %v", trial, method, i, sol.Duals[i], ref.Duals[i])
				}
			}
		}
		if err == nil {
			optimal++
			if ferr := m.CheckFeasible(sol.X, 1e-9); ferr != nil {
				t.Fatalf("trial %d: %v", trial, ferr)
			}
		}
	}
	if optimal < 100 {
		t.Fatalf("only %d/300 draws were optimal; the generator no longer exercises the direct solve", optimal)
	}
}

// TestRowFreeWithoutPresolve covers a model built with no rows at all,
// solved as given: the direct solve puts each variable at its preferred
// bound, and a cost pulling a variable towards an infinite bound is
// reported unbounded.
func TestRowFreeWithoutPresolve(t *testing.T) {
	m := NewModel("boxes", Maximize)
	x := m.AddVariable("x")
	y := m.AddVariable("y")
	z := m.AddVariable("z")
	m.SetObjective(x, 2)
	m.SetObjective(y, -1)
	m.SetBounds(x, 0, 3)
	m.SetBounds(y, 1, 4)
	m.SetBounds(z, 0.5, math.Inf(1))
	for _, method := range []Method{MethodAuto, MethodSparse, MethodIPM} {
		sol, err := m.SolveWith(Options{Method: method, NoPresolve: true})
		if err != nil {
			t.Fatalf("method %d: %v", method, err)
		}
		if sol.Route != "presolve" || sol.Value(x) != 3 || sol.Value(y) != 1 || sol.Value(z) != 0.5 {
			t.Fatalf("method %d: route %q x=%v y=%v z=%v, want presolve 3 1 0.5",
				method, sol.Route, sol.Value(x), sol.Value(y), sol.Value(z))
		}
		if sol.Objective != 5 || len(sol.Duals) != 0 {
			t.Fatalf("method %d: objective %v duals %v, want 5 and none", method, sol.Objective, sol.Duals)
		}
	}
	dense, err := m.solveBy(Options{Method: methodDense})
	if err != nil || math.Abs(dense.Objective-5) > 1e-9 {
		t.Fatalf("dense oracle: %v, %v", dense, err)
	}

	m.SetObjective(z, 1)
	sol, err := m.SolveWith(Options{NoPresolve: true})
	if !errors.Is(err, ErrUnbounded) || sol == nil || sol.Status != StatusUnbounded {
		t.Fatalf("unbounded box: %v, %v", sol, err)
	}
	if _, err := m.solveBy(Options{Method: methodUnbounded}); !errors.Is(err, ErrUnbounded) {
		t.Fatalf("unbounded oracle: %v", err)
	}
}

// TestSolveWithRejectsUnknownMethods pins the three production methods:
// any other value, the test oracles' included, is a malformed request.
func TestSolveWithRejectsUnknownMethods(t *testing.T) {
	for _, method := range []Method{methodDense, methodUnbounded, -1} {
		if _, err := buildChain(t, 8).SolveWith(Options{Method: method}); !errors.Is(err, ErrBadModel) {
			t.Errorf("method %d: err = %v, want ErrBadModel", method, err)
		}
	}
}
