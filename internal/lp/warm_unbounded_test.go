package lp

import (
	"math"
	"testing"
)

// TestUnboundedWarmStartResolve covers the legacy unbounded engine's
// warm path: a basis token from a cold methodUnbounded solve must
// re-solve a coefficient-perturbed model of the same shape to the same
// optimum the bounded engine finds, and do it in fewer pivots than its
// own cold start. (The bounded engine's warm path has its own tests;
// the unbounded route stays alive as a cross-validation oracle, so its
// warm machinery needs exercising too.)
func TestUnboundedWarmStartResolve(t *testing.T) {
	cold, err := designLikeLP(0.7).solveBy(Options{Method: methodUnbounded})
	if err != nil {
		t.Fatal(err)
	}
	coldNext, err := designLikeLP(0.72).solveBy(Options{Method: methodUnbounded})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := designLikeLP(0.72).solveBy(Options{Method: methodUnbounded, Basis: cold.Basis})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(warm.Objective-coldNext.Objective) > 1e-6*(1+math.Abs(coldNext.Objective)) {
		t.Fatalf("warm objective %v != cold objective %v", warm.Objective, coldNext.Objective)
	}
	ref, err := designLikeLP(0.72).SolveWith(Options{Method: MethodSparse})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(warm.Objective-ref.Objective) > 1e-6*(1+math.Abs(ref.Objective)) {
		t.Fatalf("unbounded warm %v disagrees with bounded engine %v", warm.Objective, ref.Objective)
	}
	if warm.Iterations >= coldNext.Iterations {
		t.Fatalf("warm start took %d pivots, cold took %d — basis hint not engaged",
			warm.Iterations, coldNext.Iterations)
	}
}
