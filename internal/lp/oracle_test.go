package lp

import (
	"context"
	"errors"
	"fmt"
)

// Test-only back ends: the two cross-validation oracles, numbered past
// the production methods so oracle-parameterised tests keep one method
// list. SolveWith rejects both values; solveBy runs them.
const (
	// methodDense runs the dense tableau (oracle_tableau_test.go).
	methodDense Method = MethodIPM + 1 + iota
	// methodUnbounded runs the unbounded revised simplex
	// (oracle_revised_test.go), and the dense tableau on a model it
	// declines.
	methodUnbounded
)

// solveBy is SolveWith, except that methodDense and methodUnbounded run
// an oracle on the model exactly as given: variable boxes become
// explicit singleton rows (whose duals are sliced back off) and no
// presolve reduction applies.
func (m *Model) solveBy(opts Options) (*Solution, error) {
	if opts.Method != methodDense && opts.Method != methodUnbounded {
		return m.SolveWith(opts)
	}
	if ctxErr(opts.ctx) != nil {
		return &Solution{Status: StatusCanceled}, canceledErr(opts.ctx)
	}
	em, extra := m.expandBounds()
	cf := canonicalize(em)
	opts = opts.withDefaults(cf.m, cf.totalCols, cf.nnz())

	var sol *Solution
	var err error
	route := "dense"
	if opts.Method == methodDense {
		sol, err = em.solveDense(cf, opts)
	} else {
		route = "sparse-unbounded"
		sol, err = em.solveSparse(cf, opts)
		if errors.Is(err, ErrCanceled) {
			return sol, err
		}
		if errors.Is(err, errSparseFallback) {
			if cf.m*(cf.totalCols+1) > maxDenseCells {
				return nil, fmt.Errorf("lp: sparse oracle declined the model and it is too large for the dense one: %w", ErrBadModel)
			}
			route = "dense"
			sol, err = em.solveDense(cf, opts)
		}
	}
	if sol != nil {
		sol.Route = route
	}
	if err != nil {
		return sol, err
	}
	if extra > 0 && len(sol.Duals) >= len(m.cons) {
		sol.Duals = sol.Duals[:len(m.cons)]
	}
	m.finishSolution(sol, opts)
	return sol, nil
}

// solveCtxBy is solveBy under a context, as SolveCtx is SolveWith's.
func (m *Model) solveCtxBy(ctx context.Context, opts Options) (*Solution, error) {
	opts.ctx = ctx
	return m.solveBy(opts)
}
