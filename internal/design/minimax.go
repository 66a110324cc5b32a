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
	if p.N < 1 {
		return nil, fmt.Errorf("design: minimax: n=%d, want >= 1", p.N)
	}
	if p.Alpha <= 0 || p.Alpha >= 1 {
		return nil, fmt.Errorf("design: minimax: alpha=%v, want 0 < alpha < 1", p.Alpha)
	}
	obj := p.objective()
	if len(obj.Weights) != p.N+1 {
		return nil, fmt.Errorf("design: minimax: %d weights for n=%d", len(obj.Weights), p.N)
	}
	reduce := p.ReduceSymmetry && p.Props&core.Symmetry != 0
	if reduce && !symmetricWeights(obj.Weights) {
		return nil, fmt.Errorf("design: minimax: ReduceSymmetry requires symmetric weights")
	}

	b := newBuilder(p.N, p.Alpha, reduce)
	if err := b.addBasicDP(); err != nil {
		return nil, err
	}
	if err := b.addProperties(p.Props); err != nil {
		return nil, err
	}

	// Epigraph variable t carries the objective.
	t := b.model.AddVariable("t")
	if err := b.model.SetObjective(t, 1); err != nil {
		return nil, err
	}
	for j := 0; j <= p.N; j++ {
		terms := make([]lp.Term, 0, p.N+2)
		for i := 0; i <= p.N; i++ {
			c := obj.Weights[j] * penalty(obj.P, i, j)
			if c != 0 {
				terms = append(terms, lp.Term{Var: b.varOf(i, j), Coeff: c})
			}
		}
		terms = append(terms, lp.Term{Var: t, Coeff: -1})
		if _, err := b.model.AddConstraint(fmt.Sprintf("mm_%d", j), terms, lp.LE, 0); err != nil {
			return nil, err
		}
	}
	// No crash hint here: the geometric-vertex guess (plus any one
	// epigraph row to fix the cardinality) is primal-infeasible in the
	// dual — a minimax optimum spreads its objective duals across every
	// worst-case column — so the simplex would reject it after paying
	// for a basis factorization. Minimax solves therefore go to the
	// interior point engine instead, whose iteration count is indifferent
	// to the degenerate vertex structure that stalls a cold simplex on
	// these LPs (tens of minutes at n=128; ~1.4 s via IPM).
	b.finishModel()
	sol, err := b.model.SolveCtx(ctx, lp.Options{Method: lp.MethodIPM})
	if err != nil {
		return nil, fmt.Errorf("design: minimax n=%d alpha=%g props=%s: %w",
			p.N, p.Alpha, core.PropertySetString(p.Props), err)
	}
	m, err := b.extract(sol, p)
	if err != nil {
		return nil, err
	}
	return &Result{
		Mechanism:  m.Rename(fmt.Sprintf("MM[%s]", core.PropertySetString(p.Props))),
		Cost:       sol.Objective,
		Iterations: sol.Iterations,
		Variables:  b.model.NumVariables(),
		Rows:       b.model.NumConstraints(),
	}, nil
}
