package design

import (
	"context"
	"fmt"

	"privcount/internal/core"
	"privcount/internal/lp"
)

// This file implements constrained design under the minimax objective
// O_{p,max} of Definition 3 (⊕ = max): minimise the worst per-input
// expected penalty instead of the average. Gupte and Sundararajan's
// universality result (§II-B) concerns exactly these losses, so the
// solver doubles as a harness for comparing the average-case and
// worst-case design philosophies. The LP uses the standard epigraph
// form: minimise t subject to each column's weighted loss ≤ t.

// SolveMinimax optimises min_P max_j w_j·Σ_i |i−j|^p·P[i][j] subject to
// BASICDP plus the requested properties. Weights follow the same
// convention as Solve (nil = uniform).
func SolveMinimax(p Problem) (*Result, error) {
	return SolveMinimaxCtx(context.Background(), p)
}

// SolveMinimaxCtx is SolveMinimax under a context, with the same prompt
// cancellation and cache-hygiene guarantees as SolveCtx. The epigraph
// LPs are the slowest designs this package builds (no crash vertex), so
// cancellability matters most here: an abandoned minimax build stops
// mid-pivot instead of running cold for minutes.
func SolveMinimaxCtx(ctx context.Context, p Problem) (*Result, error) {
	r, err := solveLP(ctx, p, "design: minimax", poseMinimax)
	if err != nil {
		return nil, err
	}
	r.Mechanism = r.Mechanism.Rename(fmt.Sprintf("MM[%s]", core.PropertySetString(p.Props)))
	return r, nil
}

// poseMinimax poses the epigraph form: an objective variable t and one
// row per column bounding its weighted loss by t.
func poseMinimax(b *builder, obj Objective) lp.Options {
	t := b.model.AddVariable("")
	b.note(b.model.SetObjective(t, 1))
	for j := 0; j <= b.n; j++ {
		terms := make([]lp.Term, 0, b.n+2)
		for i := 0; i <= b.n; i++ {
			if c := obj.Weights[j] * penalty(obj.P, i, j); c != 0 {
				terms = append(terms, lp.Term{Var: b.varOf(i, j), Coeff: c})
			}
		}
		terms = append(terms, lp.Term{Var: t, Coeff: -1})
		b.row(terms, lp.LE, 0)
	}
	// No crash hint here: the geometric-vertex guess (plus any one
	// epigraph row to fix the cardinality) is primal-infeasible in the
	// dual — a minimax optimum spreads its objective duals across every
	// worst-case column — so the simplex would reject it after paying
	// for a basis factorization. Minimax solves therefore go to the
	// interior point engine instead, whose iteration count is indifferent
	// to the degenerate vertex structure that stalls a cold simplex on
	// these LPs (tens of minutes at n=128; ~1.4 s via IPM).
	b.crash = nil
	return lp.Options{Method: lp.MethodIPM}
}
