package lp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
)

// Status reports the outcome of a solve.
type Status int

// Solve outcomes.
const (
	StatusOptimal Status = iota
	StatusInfeasible
	StatusUnbounded
	StatusIterLimit
	// StatusCanceled reports that the SolveCtx context was cancelled
	// before the solve finished; the paired error wraps ErrCanceled.
	StatusCanceled
)

func (s Status) String() string {
	switch s {
	case StatusOptimal:
		return "optimal"
	case StatusInfeasible:
		return "infeasible"
	case StatusUnbounded:
		return "unbounded"
	case StatusCanceled:
		return "canceled"
	default:
		return "iteration-limit"
	}
}

// Cause names the termination class of a solve error for display
// ("canceled", "iteration-limit", "infeasible", "unbounded",
// "bad-model"), or "" for a nil error and "error" for anything else.
func Cause(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, ErrCanceled):
		return "canceled"
	case errors.Is(err, ErrIterationLimit):
		return "iteration-limit"
	case errors.Is(err, ErrInfeasible):
		return "infeasible"
	case errors.Is(err, ErrUnbounded):
		return "unbounded"
	case errors.Is(err, ErrBadModel):
		return "bad-model"
	default:
		return "error"
	}
}

// Solution holds the result of solving a Model.
type Solution struct {
	Status     Status
	X          []float64 // values of the structural variables
	Objective  float64   // objective value in the model's original sense
	Duals      []float64 // one dual per constraint, in the model's original sense
	Iterations int
	// BoundFlips counts bounded-simplex iterations that moved a nonbasic
	// variable across its box without a basis change.
	BoundFlips int
	// Refactorizations counts basis refactorizations performed by the
	// bounded revised simplex. On the interior point route it counts LDLᵀ factorizations of the normal equations
	// — one per predictor-corrector iteration.
	Refactorizations int
	// Presolve reports the reductions applied before the solve (zero
	// under Options.NoPresolve).
	Presolve PresolveStats
	// Route names the solver path that produced the solution: "bounded",
	// "dual", "ipm", or "presolve" (no constraint rows were left to
	// solve, so each variable was set to its preferred bound directly).
	Route string
	// Gap is the relative duality gap at termination on the interior
	// point route (zero on the simplex routes, which terminate at a
	// vertex where the gap is exact by construction).
	Gap float64
}

// Value returns the solved value of variable v. A v outside [0, len(X))
// yields NaN, not an error — callers that cannot guarantee the index is
// in range should use ValueChecked instead.
func (s *Solution) Value(v int) float64 {
	if v < 0 || v >= len(s.X) {
		return math.NaN()
	}
	return s.X[v]
}

// ValueChecked returns the solved value of variable v, or an error
// (wrapping ErrBadModel) when v is out of range.
func (s *Solution) ValueChecked(v int) (float64, error) {
	if v < 0 || v >= len(s.X) {
		return 0, fmt.Errorf("lp: Solution.Value: variable %d out of range [0,%d): %w", v, len(s.X), ErrBadModel)
	}
	return s.X[v], nil
}

// Method selects the solver back end.
type Method int

// Solver back ends.
const (
	// MethodAuto (the zero value) presolves the model, then tries the
	// interior point method on large unhinted models and the dual route
	// on tall ones, and ends at the bounded-variable revised simplex.
	MethodAuto Method = iota
	// MethodSparse forces the bounded-variable revised simplex (with
	// presolve unless Options.NoPresolve is set; no dual route).
	MethodSparse
	// MethodIPM forces the primal-dual interior point method (Mehrotra
	// predictor-corrector on the normal equations, sparse LDLᵀ with
	// fill-reducing ordering). Presolve still applies unless disabled.
	// Shapes the method declines continue on MethodAuto's simplex routes.
	MethodIPM
)

// Options tunes a solve. The zero value selects defaults. Nothing
// carries over from one solve to the next: the result is a function of
// the model and these options alone.
type Options struct {
	// MaxIterations bounds total pivots across both phases. 0 scales the
	// budget with the model: max(20000, 200·(rows+cols), 25·nonzeros),
	// where nonzeros counts the canonical matrix including slack columns
	// — so large sparse models get headroom proportional to their actual
	// size rather than tripping a fixed floor.
	MaxIterations int
	// Tol is the numeric tolerance for feasibility, pivoting, and reduced
	// costs. 0 means 1e-9.
	Tol float64
	// Method picks the solver back end; the zero value is MethodAuto.
	Method Method
	// NoPresolve skips the presolve reductions, so the engines see the
	// model as built. Used by tests that pin the presolved and unreduced
	// solves against each other.
	NoPresolve bool
	// CrashRows lists constraints the caller expects to be tight at the
	// optimum (original row indices). The dual route seeds its advanced
	// basis from them when they determine one exactly; a hint that does
	// not fit — wrong cardinality after presolve, singular, or primal
	// infeasible — is ignored and the solve cold-starts, so a wrong guess
	// costs nothing but the attempt. design uses this to start the
	// BASICDP LPs at the geometric-mechanism vertex (column sums plus the
	// away-from-diagonal ratio rows), which cuts cold-solve pivot counts
	// by an order of magnitude.
	CrashRows []int

	// ctx carries the cancellation signal set by SolveCtx. Every solver
	// loop — the bounded revised simplex, the interior point method, and
	// their factorizations — checks it at iteration boundaries and
	// abandons the solve with ErrCanceled when it fires. nil means no
	// cancellation (Solve / SolveWith).
	ctx context.Context
}

// ctxErr returns the context's cause if ctx is cancelled, else nil. The
// Done-channel select avoids taking the context mutex on the per-pivot
// hot path.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	select {
	case <-ctx.Done():
		return context.Cause(ctx)
	default:
		return nil
	}
}

// canceledErr wraps the context's cause in ErrCanceled, so errors.Is
// matches both the lp sentinel and the underlying context error.
func canceledErr(ctx context.Context) error {
	cause := context.Canceled
	if ctx != nil {
		if c := context.Cause(ctx); c != nil {
			cause = c
		}
	}
	return errors.Join(ErrCanceled, cause)
}

func (o Options) withDefaults(rows, cols, nnz int) Options {
	if o.Tol == 0 {
		o.Tol = 1e-9
	}
	if o.MaxIterations == 0 {
		o.MaxIterations = 200 * (rows + cols)
		if byNNZ := 25 * nnz; byNNZ > o.MaxIterations {
			o.MaxIterations = byNNZ
		}
		if o.MaxIterations < 20000 {
			o.MaxIterations = 20000
		}
	}
	return o
}

// Solve optimises the model with default options.
func (m *Model) Solve() (*Solution, error) {
	return m.SolveWith(Options{})
}

// SolveCtx is SolveWith under a context: the solver loops check ctx at
// iteration boundaries (pivots, bound flips, factorization columns) and
// abandon the solve with an error wrapping ErrCanceled — and a Solution
// carrying StatusCanceled — as soon as it fires. Partial factorizations
// and eta files are dropped on the floor; no fallback route runs after a
// cancellation, so a dead caller stops burning CPU within one pivot.
func (m *Model) SolveCtx(ctx context.Context, opts Options) (*Solution, error) {
	opts.ctx = ctx
	return m.SolveWith(opts)
}

// SolveWith optimises the model. On the auto method it presolves the
// model, then runs one route: the interior point method (ipm.go) for
// large models without crash hints, the dual route (dual.go) for
// tall ones, and the bounded-variable revised simplex (bounded.go),
// which ends the route; a model presolve reduces to no rows is solved
// directly. The interior point and dual routes hand the model on to the
// next when they decline it or return a point that fails the 1e-7
// feasibility check. Every solve starts cold, from the crash hint when
// Options.CrashRows supplies one that applies.
//
// It returns ErrInfeasible, ErrUnbounded, or ErrIterationLimit for those
// outcomes (with a Solution carrying the matching Status), ErrCanceled
// when SolveCtx's context fires, an error wrapping ErrBadModel when the
// model is malformed or the bounded simplex declines it or cannot reach
// a point feasible to 1e-5, and nil for an optimal solution.
//
// The mechanism-design LPs are massively degenerate (hundreds of
// homogeneous ratio rows meet at every vertex), which both stalls the
// simplex and lets numerical drift choose bad bases. The simplex
// therefore runs its primary solve on right-hand sides carrying a tiny
// deterministic perturbation — making the polytope simple — after which
// the true data is restored and the solution re-derived against it, with
// an unperturbed solve as fallback.
func (m *Model) SolveWith(opts Options) (*Solution, error) {
	if opts.Tol == 0 {
		opts.Tol = 1e-9
	}
	if err := ctxErr(opts.ctx); err != nil {
		return &Solution{Status: StatusCanceled}, canceledErr(opts.ctx)
	}
	switch opts.Method {
	case MethodAuto, MethodSparse, MethodIPM:
	default:
		return nil, fmt.Errorf("lp: unknown Method %d: %w", opts.Method, ErrBadModel)
	}

	target := m
	var pre *presolved
	if !opts.NoPresolve {
		var err error
		pre, err = presolve(m)
		if err != nil {
			return &Solution{Status: StatusInfeasible}, err
		}
		target = pre.reduced
		if len(opts.CrashRows) > 0 {
			// Crash hints follow the rows into the reduced index space;
			// hints on rows presolve removed are dropped (the dual route
			// rejects a hint set that no longer determines a basis).
			mapped := make([]int, 0, len(opts.CrashRows))
			for _, r := range opts.CrashRows {
				if red, ok := slices.BinarySearch(pre.rowMap, r); ok {
					mapped = append(mapped, red)
				}
			}
			opts.CrashRows = mapped
		}
	}
	sol, err := target.solveReduced(opts)
	if sol != nil && pre != nil {
		sol.Presolve = pre.stats
		if err == nil && sol.Status == StatusOptimal {
			pre.postsolve(sol)
		}
	}
	if err != nil {
		return sol, err
	}
	m.finishSolution(sol, opts)
	return sol, nil
}

// solveReduced runs the production route on a presolved model: the
// interior point method when forced or when the auto method picks it,
// then on the auto method the dual route for tall shapes, then the
// bounded simplex, whose failure is the solve's failure. A model with no
// rows left is solved directly.
func (m *Model) solveReduced(opts Options) (*Solution, error) {
	if len(m.cons) == 0 {
		return m.solveRowFree()
	}
	cf := canonicalize(m)
	opts = opts.withDefaults(cf.m, cf.totalCols, cf.nnz())

	// Interior point first: forced by MethodIPM, or auto-picked for
	// models past the normal-equations crossover that carry no crash
	// hint (a hinted basis makes the simplex nearly free, which no cold
	// IPM matches). On the auto route only an optimal,
	// feasibility-checked point is accepted — IPM infeasibility and
	// unboundedness verdicts come from iterate divergence, so the
	// simplex chain re-derives them with its Farkas-definitive tests.
	if opts.Method == MethodIPM || (opts.Method == MethodAuto && wantIPM(cf, opts)) {
		sol, err := m.solveIPM(cf, opts)
		if errors.Is(err, ErrCanceled) {
			return sol, err
		}
		if err == nil && m.CheckFeasible(sol.X, 1e-7) == nil {
			return sol, nil
		}
		if opts.Method == MethodIPM {
			if err != nil && !errors.Is(err, errSparseFallback) {
				return sol, err
			}
			// A declined forced-IPM solve continues down the same chain
			// the auto method would run, dual route included.
			opts.Method = MethodAuto
		}
	}

	// Tall models solve far faster through their dual: every
	// revised-simplex cost scales with the basis dimension (= rows).
	// dualErr keeps why the dual route declined, for the error message
	// should the bounded simplex fail too.
	var dualErr error
	if opts.Method == MethodAuto && wantDual(cf) {
		sol, err := m.solveViaDual(opts)
		if errors.Is(err, ErrCanceled) {
			return sol, err
		}
		if err == nil {
			err = m.CheckFeasible(sol.X, 1e-7)
		}
		if err == nil {
			sol.Route = "dual"
			return sol, nil
		}
		dualErr = err
	}
	sol, err := m.solveBounded(cf, opts, nil)
	if errors.Is(err, ErrCanceled) {
		// A cancellation is not a verdict about the model: return it
		// rather than re-deriving anything on a fallback route.
		return sol, err
	}
	if err != nil {
		if errors.Is(err, errSparseFallback) {
			// Never leak the unexported sentinel to callers.
			return nil, fmt.Errorf("lp: bounded simplex declined the model (%s)%s: %w",
				flatErr(err), dualDeclineNote(dualErr), ErrBadModel)
		}
		// Infeasible, unbounded and iteration-limit verdicts were
		// confirmed on a fresh factorization.
		return sol, err
	}
	// Every route's points pass a 1e-7 feasibility check. Residuals grow
	// with model size, so an optimal-status point that just misses it is
	// still accepted under a looser absolute bound before the solve is
	// declared a failure.
	if ferr := m.CheckFeasible(sol.X, 1e-5); ferr != nil {
		return nil, fmt.Errorf("lp: bounded simplex returned an infeasible point (%v)%s: %w",
			ferr, dualDeclineNote(dualErr), ErrBadModel)
	}
	sol.Route = "bounded"
	return sol, nil
}

// dualDeclineNote names why the dual route declined a model, for an
// error the bounded simplex then returns; it is empty when the dual
// route did not run.
func dualDeclineNote(dualErr error) string {
	if dualErr == nil {
		return ""
	}
	return "; the dual route declined it first (" + flatErr(dualErr) + ")"
}

// flatErr renders err on one line: errors.Join separates its parts with
// newlines.
func flatErr(err error) string {
	return strings.ReplaceAll(err.Error(), "\n", ": ")
}

// solveRowFree solves a model with no constraint rows — what presolve
// leaves when it folds or drops every row — directly: each variable
// rests at the end of its box that its cost prefers (the lower end on a
// tie), and a variable whose cost pulls it towards an infinite upper
// bound makes the model unbounded. Postsolve then rebuilds the folded
// rows' duals from the variables' reduced costs, as after an engine
// solve.
func (m *Model) solveRowFree() (*Solution, error) {
	sol := &Solution{
		Status: StatusOptimal,
		X:      make([]float64, len(m.obj)),
		Duals:  []float64{},
		Route:  "presolve",
	}
	for v, c := range m.obj {
		if m.sense == Maximize {
			c = -c
		}
		sol.X[v] = m.lo[v]
		if c < 0 {
			if math.IsInf(m.hi[v], 1) {
				return &Solution{Status: StatusUnbounded, Route: "presolve"},
					fmt.Errorf("%w: variable %s improves the objective without bound", ErrUnbounded, m.VariableName(v))
			}
			sol.X[v] = m.hi[v]
		}
	}
	return sol, nil
}

// finishSolution rounds values a hair outside their box back onto it —
// so downstream probability checks do not trip over -1e-15 — and
// evaluates the objective at the returned point.
func (m *Model) finishSolution(sol *Solution, opts Options) {
	for i, v := range sol.X {
		lo, hi := m.lo[i], m.hi[i]
		if v < lo && v > lo-opts.Tol*10 {
			sol.X[i] = lo
		} else if v > hi && v < hi+opts.Tol*10 {
			sol.X[i] = hi
		}
	}
	sol.Objective = m.EvalObjective(sol.X)
}
