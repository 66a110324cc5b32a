package lp

import (
	"context"
	"errors"
	"fmt"
	"math"
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
	// variable across its box without a basis change (zero on the oracle
	// paths, which have no native bounds).
	BoundFlips int
	// Refactorizations counts basis refactorizations performed by the
	// sparse revised simplex (zero on the dense path). On the interior
	// point route it counts LDLᵀ factorizations of the normal equations
	// — one per predictor-corrector iteration.
	Refactorizations int
	// Basis is an opaque warm-start token: the final basis of whichever
	// solver route produced this solution (for the automatic dual route
	// it indexes the dual's canonical columns, not this model's, and
	// after presolve it indexes the reduced model's rows). Feed it to
	// Options.Basis of a solve with the identical constraint shape and
	// the same Method — e.g. the same design LP at a neighbouring α —
	// where presolve and route selection repeat deterministically; a
	// basis that does not fit the shape is ignored and the solve
	// cold-starts.
	Basis []int
	// Presolve reports the reductions applied before the solve (zero on
	// the oracle methods, which always solve the model as given).
	Presolve PresolveStats
	// Route names the solver path that produced the solution: "bounded",
	// "dual", "ipm", "sparse-unbounded", or "dense".
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
	// MethodAuto (the zero value) presolves the model, dualizes it when
	// tall, runs the bounded-variable revised simplex, and falls back to
	// the oracle paths if the sparse engine declines the model or returns
	// an infeasible-looking point.
	MethodAuto Method = iota
	// MethodSparse forces the bounded-variable revised simplex (with
	// presolve unless Options.NoPresolve is set; no dual route).
	MethodSparse
	// MethodDense forces the dense tableau simplex, solving the model
	// exactly as given (bounds become explicit rows, no presolve). It is
	// one of the two independent cross-validation oracles.
	MethodDense
	// MethodUnboundedSparse forces the original unbounded revised simplex
	// (bounds become explicit rows, no presolve) — the second oracle.
	MethodUnboundedSparse
	// MethodIPM forces the primal-dual interior point method (Mehrotra
	// predictor-corrector on the normal equations, sparse LDLᵀ with
	// fill-reducing ordering). Presolve still applies unless disabled.
	// Shapes the method declines fall through to the simplex chain.
	MethodIPM
)

// Options tunes the simplex solver. The zero value selects defaults.
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
	// Basis warm-starts the sparse solver from a previous Solution.Basis.
	// It must come from a solve of a model with the identical canonical
	// constraint shape (same rows, columns, and operators — coefficients
	// may differ) under the same Method, so the token was produced by
	// the same solver route; a basis that does not apply is ignored and
	// the solve cold-starts.
	Basis []int
	// NoPresolve skips the presolve reductions on the default methods
	// (the oracle methods never presolve). Used by tests that pin the
	// presolved and unreduced solves against each other.
	NoPresolve bool
	// CrashRows lists constraints the caller expects to be tight at the
	// optimum (original row indices). The dual route seeds its advanced
	// basis from them when they determine one exactly; a hint that does
	// not fit — wrong cardinality after presolve, singular, or primal
	// infeasible — is ignored and the solve cold-starts, so a wrong guess
	// costs nothing but the attempt. design uses this to start the
	// BASICDP LPs at the geometric-mechanism vertex (column sums plus the
	// away-from-diagonal ratio rows), which cuts cold-solve pivot counts
	// by an order of magnitude. An explicit Options.Basis wins over the
	// hint.
	CrashRows []int

	// ctx carries the cancellation signal set by SolveCtx. Every solver
	// loop — dense tableau, unbounded revised, bounded revised, and the
	// basis factorizations — checks it at iteration boundaries and
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

// SolveWith optimises the model. The default back end is the sparse
// revised simplex (see revised.go); the dense two-phase tableau remains
// as an independent oracle and fallback. It returns ErrInfeasible,
// ErrUnbounded, or ErrIterationLimit for those outcomes (with a Solution
// carrying the matching Status), and nil for an optimal solution.
//
// The mechanism-design LPs are massively degenerate (hundreds of
// homogeneous ratio rows meet at every vertex), which both stalls the
// simplex and lets numerical drift choose bad bases. Both back ends
// therefore run their primary solve on right-hand sides carrying a tiny
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
	case MethodDense, MethodUnboundedSparse:
		return m.solveOracle(opts)
	}

	// Default path: presolve (unless disabled), then the bounded sparse
	// engine on the reduced model, with the dual route for tall shapes
	// and the oracle paths as fallback.
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
			origToRed := make(map[int]int, len(pre.rowMap))
			for red, orig := range pre.rowMap {
				origToRed[orig] = red
			}
			mapped := make([]int, 0, len(opts.CrashRows))
			for _, r := range opts.CrashRows {
				if red, ok := origToRed[r]; ok {
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

// solveOracle runs one of the two independent oracle back ends on the
// model exactly as given: variable boxes become explicit singleton rows
// (whose duals are sliced back off) and no presolve reduction applies.
func (m *Model) solveOracle(opts Options) (*Solution, error) {
	em, extra := m.expandBounds()
	cf := canonicalize(em)
	opts = opts.withDefaults(cf.m, cf.totalCols, cf.nnz())

	var sol *Solution
	var err error
	route := "dense"
	if opts.Method == MethodDense {
		sol, err = em.solveDense(cf, opts)
	} else {
		route = "sparse-unbounded"
		sol, err = em.solveSparse(cf, opts)
		if errors.Is(err, ErrCanceled) {
			return sol, err
		}
		if errors.Is(err, errSparseFallback) {
			if cf.m*(cf.totalCols+1) <= maxDenseCells {
				route = "dense"
				sol, err = em.solveDense(cf, opts)
			} else {
				return nil, fmt.Errorf("lp: sparse solver declined the model and it is too large for the dense fallback: %w", ErrBadModel)
			}
		}
	}
	if err != nil {
		if sol != nil {
			sol.Route = route
		}
		return sol, err
	}
	trimBoundRowDuals(sol, m, extra, route)
	m.finishSolution(sol, opts)
	return sol, nil
}

// trimBoundRowDuals drops the duals of the singleton rows expandBounds
// appended (they represent variable bounds, not caller constraints) and
// stamps the route that produced the solution. Every path that solves an
// expanded model funnels through here so the dual-slicing rule lives in
// one place.
func trimBoundRowDuals(sol *Solution, m *Model, extra int, route string) {
	if sol == nil {
		return
	}
	if extra > 0 && len(sol.Duals) >= len(m.cons) {
		sol.Duals = sol.Duals[:len(m.cons)]
	}
	sol.Route = route
}

// solveReduced drives the sparse engine (and, on the auto method, the
// dual route) for a presolved model, falling back to the oracle paths
// where affordable.
func (m *Model) solveReduced(opts Options) (*Solution, error) {
	cf := canonicalize(m)
	opts = opts.withDefaults(cf.m, cf.totalCols, cf.nnz())

	// Interior point first: forced by MethodIPM, or auto-picked for
	// models past the normal-equations crossover that carry no
	// warm-start hints (a hinted basis makes the simplex nearly free,
	// which no cold IPM matches). On the auto route only an optimal,
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
	if opts.Method == MethodAuto && wantDual(cf) {
		sol, err := m.solveViaDual(opts)
		if errors.Is(err, ErrCanceled) {
			return sol, err
		}
		if err == nil && m.CheckFeasible(sol.X, 1e-7) == nil {
			sol.Route = "dual"
			return sol, nil
		}
	}
	sol, err := m.solveBounded(cf, opts)
	if errors.Is(err, ErrCanceled) {
		// A cancellation is not a verdict about the model: return it
		// rather than re-deriving anything on a fallback route.
		return sol, err
	}
	if err == nil && m.CheckFeasible(sol.X, 1e-7) == nil {
		sol.Route = "bounded"
		return sol, nil
	}
	cells := cf.m * (cf.totalCols + 1)
	// A definitive sparse verdict (infeasible, unbounded, iteration
	// limit) was already confirmed on a fresh factorization; beyond
	// oracle size, re-deriving it densely would stall a caller for
	// minutes to re-learn the same answer.
	if err != nil && !errors.Is(err, errSparseFallback) && cells > maxOracleCells {
		return sol, err
	}
	// Otherwise re-run on the oracle paths — declined models, numeric
	// failures, and cheap double-checks. The unbounded revised path picks
	// up shapes the bounded engine declined, but only at oracle size: at
	// serving scale its dense per-pivot sweeps are the minutes-per-solve
	// cost this engine replaced, and stalling a handler to re-learn a
	// marginal verdict is worse than the loose-tolerance acceptance
	// below. The dense tableau is the last resort, affordable only while
	// the O(m·n) working array stays reasonable: past that the allocation
	// alone (m rows × totalCols+1 float64s) would take gigabytes.
	em, extra := m.expandBounds()
	ecf := cf
	if extra > 0 {
		ecf = canonicalize(em)
	}
	if cells <= maxOracleCells {
		sol2, err2 := em.solveSparse(ecf, opts)
		if errors.Is(err2, ErrCanceled) {
			return sol2, err2
		}
		if err2 == nil && em.CheckFeasible(sol2.X, 1e-7) == nil {
			trimBoundRowDuals(sol2, m, extra, "sparse-unbounded")
			return sol2, nil
		}
	}
	if ecf.m*(ecf.totalCols+1) > maxDenseCells {
		if err != nil && !errors.Is(err, errSparseFallback) {
			return sol, err
		}
		// An optimal-status solution that just missed the strict
		// feasibility tolerance is still the best answer available at a
		// size with no dense fallback; residuals scale with model size,
		// so accept it under a looser absolute bound before declaring
		// failure.
		if err == nil && m.CheckFeasible(sol.X, 1e-5) == nil {
			sol.Route = "bounded"
			return sol, nil
		}
		// Never leak the unexported sentinel to callers.
		return nil, fmt.Errorf("lp: sparse solver failed and the model is too large for the dense fallback: %w", ErrBadModel)
	}
	dsol, derr := em.solveDense(ecf, opts)
	trimBoundRowDuals(dsol, m, extra, "dense")
	if derr == nil && dsol.Status == StatusOptimal {
		// The dense tableau is the end of the fallback chain, so its
		// answer ships unchecked unless verified here — and a chain that
		// already burned through two engines is exactly where a
		// numerically confused "optimal" shows up.
		if ferr := m.CheckFeasible(dsol.X, 1e-6); ferr != nil {
			return nil, fmt.Errorf("lp: dense fallback returned an infeasible point (%v): %w", ferr, ErrBadModel)
		}
	}
	return dsol, derr
}

// maxDenseCells bounds the dense tableau's working array (rows ×
// columns); 50M float64 cells is ~400 MB and roughly the n=96 design
// LP, past which the dense fallback would be slower than useful anyway.
const maxDenseCells = 50_000_000

// maxOracleCells bounds the models whose definitive sparse verdicts
// (infeasible/unbounded/iteration limit) still get a dense
// double-check; a dense solve at this size takes well under a second.
const maxOracleCells = 1_000_000

// solveDense is the dense tableau driver: perturbed solve with
// refinement, then an unperturbed retry if the result is infeasible for
// the true data.
func (m *Model) solveDense(cf *canonForm, opts Options) (*Solution, error) {
	t := newTableauFrom(m, cf)
	t.perturbRHS(1e-9)
	sol, err := t.solve(opts)
	if errors.Is(err, ErrCanceled) {
		return sol, err
	}
	if err == nil {
		t.restoreRHS()
		t.refineRHS(opts)
		for i := 0; i < t.m; i++ {
			if b := t.basis[i]; b < t.nStruct {
				sol.X[b] = t.rows[i][t.totalCols]
			}
		}
	}
	if err != nil || m.CheckFeasible(sol.X, 1e-7) != nil {
		// Fallback: solve the pristine problem directly.
		t = newTableauFrom(m, cf)
		pSol, pErr := t.solve(opts)
		if pErr != nil {
			if err == nil {
				// The perturbed solve "succeeded" but infeasibly, and the
				// plain solve failed outright; report the plain failure.
				return pSol, pErr
			}
			return sol, err
		}
		sol, err = pSol, nil
	}
	m.finishSolution(sol, opts)
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

// tableau is the dense simplex working state.
type tableau struct {
	model *Model

	m         int // constraint rows
	nStruct   int // structural variables
	totalCols int // structural + slack + artificial

	// rows[i] has length totalCols+1; last entry is the RHS.
	rows [][]float64

	basis []int // basis[i] = column basic in row i

	// rowScale[i] converts solved duals back to the original row: the
	// original row was multiplied by rowScale[i] during canonicalisation
	// (−1 when the RHS sign was flipped, scaled for conditioning).
	rowScale []float64

	artStart int // first artificial column
	// identCol[i] is the column that started as row i's identity column
	// (its slack, surplus, or artificial), used for dual recovery.
	identCol []int
	// identSign[i] is the coefficient that identCol[i] had in row i
	// (+1 for slack/artificial, −1 for surplus).
	identSign []float64

	// Pristine canonical problem data, kept for iterative refinement of
	// the final solution (the working tableau drifts over long pivot
	// sequences). origCoeffs[i] holds row i's structural coefficients,
	// origRHS[i] its right-hand side; initIdCol[i] is the column that
	// formed row i's slot of the initial identity basis (slack for ≤
	// rows, artificial for ≥/= rows), whose current tableau column is
	// B̃⁻¹·e_i.
	origCoeffs [][]float64
	origRHS    []float64
	initIdCol  []int

	// savedRHS holds the unperturbed origRHS while a perturbed retry is
	// in flight (see perturbRHS).
	savedRHS []float64
}

// newTableau materialises the dense working state from the shared
// canonical standard form (see canonical.go). Artificial columns exist
// only for rows that need one (GE and EQ after canonicalisation); LE
// rows start with their slack basic. This keeps the tableau narrow: the
// mechanism-design LPs are dominated by homogeneous ≤ rows.
func newTableau(m *Model) *tableau {
	return newTableauFrom(m, canonicalize(m))
}

func newTableauFrom(m *Model, cf *canonForm) *tableau {
	t := &tableau{
		model:     m,
		m:         cf.m,
		nStruct:   cf.nStruct,
		artStart:  cf.artStart,
		totalCols: cf.totalCols,
		rowScale:  cf.rowScale,
		identCol:  cf.identCol,
		identSign: cf.identSign,
		initIdCol: cf.initIdCol,
	}

	t.rows = make([][]float64, t.m)
	t.origCoeffs = make([][]float64, t.m)
	t.origRHS = make([]float64, t.m)
	for i := 0; i < t.m; i++ {
		t.rows[i] = make([]float64, t.totalCols+1)
		t.origCoeffs[i] = make([]float64, t.nStruct)
		t.origRHS[i] = cf.b[i]
		t.rows[i][t.totalCols] = cf.b[i]
	}
	for j := 0; j < t.totalCols; j++ {
		idx, val := cf.column(j)
		for p, i := range idx {
			t.rows[i][j] = val[p]
			if j < t.nStruct {
				t.origCoeffs[i][j] = val[p]
			}
		}
	}

	t.basis = make([]int, t.m)
	copy(t.basis, cf.initIdCol)
	return t
}

// isArtificial reports whether column j is an artificial column.
func (t *tableau) isArtificial(j int) bool { return j >= t.artStart }

// perturbRHS nudges every right-hand side by a tiny deterministic,
// row-dependent amount. Degenerate ties (many vertices at identical
// ratios) are what drive the long stalling runs on the design LPs;
// generic perturbation makes the polytope simple so the simplex walks
// through it cleanly. Callers restore the true data with restoreRHS and
// re-refine before extracting the solution.
func (t *tableau) perturbRHS(eps float64) {
	t.savedRHS = make([]float64, t.m)
	h := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < t.m; i++ {
		t.savedRHS[i] = t.origRHS[i]
		h ^= uint64(i+1) * 0xbf58476d1ce4e5b9
		h ^= h >> 27
		h *= 0x94d049bb133111eb
		// delta in [eps, 2eps): strictly positive keeps phase 1 trivially
		// feasible for rows that were feasible before.
		delta := eps * (1 + float64(h%1024)/1024)
		t.origRHS[i] += delta
		t.rows[i][t.totalCols] += delta
	}
}

// restoreRHS undoes perturbRHS on the pristine data (the working tableau
// is corrected by the following refineRHS call).
func (t *tableau) restoreRHS() {
	copy(t.origRHS, t.savedRHS)
	t.savedRHS = nil
}

// reducedCosts computes r[j] = cost[j] − Σ_i cost[basis[i]]·rows[i][j] for
// every column, plus the current objective value z = Σ cost[basis[i]]·rhs.
func (t *tableau) reducedCosts(cost []float64) (r []float64, z float64) {
	r = make([]float64, t.totalCols)
	copy(r, cost)
	for i := 0; i < t.m; i++ {
		cb := cost[t.basis[i]]
		if cb == 0 {
			continue
		}
		row := t.rows[i]
		for j := 0; j < t.totalCols; j++ {
			r[j] -= cb * row[j]
		}
		z += cb * row[t.totalCols]
	}
	return r, z
}

// pivot performs a Gauss-Jordan pivot on (pr, pc), updating the reduced
// cost row r and objective value in place.
func (t *tableau) pivot(pr, pc int, r []float64, z *float64) {
	prow := t.rows[pr]
	pv := prow[pc]
	inv := 1 / pv
	for j := range prow {
		prow[j] *= inv
	}
	prow[pc] = 1 // exact

	for i := 0; i < t.m; i++ {
		if i == pr {
			continue
		}
		row := t.rows[i]
		f := row[pc]
		if f == 0 {
			continue
		}
		for j := range row {
			row[j] -= f * prow[j]
		}
		row[pc] = 0 // exact
	}
	f := r[pc]
	if f != 0 {
		for j := range r {
			r[j] -= f * prow[j]
		}
		r[pc] = 0
		*z += f * prow[len(prow)-1]
	}
	t.basis[pr] = pc
}

// iterate runs primal simplex pivots for the given cost vector until
// optimality, unboundedness, or the iteration budget is exhausted.
// allowed reports whether a column may enter the basis. It returns the
// final objective value.
//
// Robustness measures, each load-bearing on the heavily degenerate
// mechanism-design LPs:
//
//   - the reduced-cost row is recomputed from the cost vector and the
//     current basis every refreshEvery pivots (and when switching to
//     Bland's rule), because the incrementally-updated row accumulates
//     error over long degenerate runs and starts reporting phantom
//     negative reduced costs — the solver would then "improve" forever
//     at a constant objective;
//
//   - pivot elements below pivotTol are never chosen while a larger one
//     is available in the ratio-test tie set, since dividing a row by a
//     near-zero pivot amplifies noise through the whole tableau;
//
//   - after a run of degenerate pivots, the entering rule switches from
//     Dantzig pricing to Bland's smallest-index rule, which cannot cycle;
//
//   - optimality is only declared after it holds on freshly recomputed
//     reduced costs.
func (t *tableau) iterate(cost []float64, allowed func(j int) bool, opts Options, iters *int) (float64, Status) {
	tol := opts.Tol
	const (
		stallLimit   = 64   // consecutive degenerate pivots before Bland's rule
		refreshEvery = 256  // pivots between reduced-cost recomputations
		pivotTol     = 1e-7 // preferred minimum pivot magnitude
	)
	r, z := t.reducedCosts(cost)
	stall := 0
	sinceRefresh := 0
	for {
		if ctxErr(opts.ctx) != nil {
			return z, StatusCanceled
		}
		if *iters >= opts.MaxIterations {
			return z, StatusIterLimit
		}
		bland := stall >= stallLimit
		if sinceRefresh >= refreshEvery || (bland && stall == stallLimit) {
			t.refineRHS(opts)
			r, z = t.reducedCosts(cost)
			sinceRefresh = 0
		}

		// Entering column: Dantzig pricing normally, Bland when stalled.
		pc := -1
		if !bland {
			best := -tol
			for j := 0; j < t.totalCols; j++ {
				if r[j] < best && allowed(j) {
					best = r[j]
					pc = j
				}
			}
		} else {
			for j := 0; j < t.totalCols; j++ {
				if r[j] < -tol && allowed(j) {
					pc = j
					break
				}
			}
		}
		if pc < 0 {
			// Confirm optimality against exact reduced costs; drift can
			// hide an improving column just as it can invent phantom ones.
			if sinceRefresh == 0 {
				return z, StatusOptimal
			}
			r, z = t.reducedCosts(cost)
			sinceRefresh = 0
			continue
		}

		// Ratio test in two passes: find the minimum ratio, then pick the
		// leaving row among near-ties — the numerically largest pivot
		// normally, the smallest basic-variable index (Bland) when
		// stalled, in both cases preferring pivots above pivotTol.
		// Ratios clamp at zero so an RHS that drifted to −1e−15 cannot
		// produce a negative ratio and an infeasible pivot.
		minRatio := math.Inf(1)
		for i := 0; i < t.m; i++ {
			a := t.rows[i][pc]
			if a <= tol {
				continue
			}
			rhs := t.rows[i][t.totalCols]
			if rhs < 0 {
				rhs = 0
			}
			if ratio := rhs / a; ratio < minRatio {
				minRatio = ratio
			}
		}
		if math.IsInf(minRatio, 1) {
			return z, StatusUnbounded
		}
		pr := -1
		prStable := false
		tieBound := minRatio + tol*(1+minRatio)
		for i := 0; i < t.m; i++ {
			a := t.rows[i][pc]
			if a <= tol {
				continue
			}
			rhs := t.rows[i][t.totalCols]
			if rhs < 0 {
				rhs = 0
			}
			if rhs/a > tieBound {
				continue
			}
			if bland {
				// Strict Bland leaving rule: smallest basic-variable
				// index, no overrides — the termination guarantee
				// depends on it.
				if pr < 0 || t.basis[i] < t.basis[pr] {
					pr = i
				}
				continue
			}
			stable := a >= pivotTol
			switch {
			case pr < 0:
				pr, prStable = i, stable
			case stable && !prStable:
				pr, prStable = i, stable
			case !stable && prStable:
				// keep the stable candidate
			case a > t.rows[pr][pc]:
				pr = i
			}
		}
		if minRatio <= tol {
			stall++
		} else {
			stall = 0
		}
		t.pivot(pr, pc, r, &z)
		*iters++
		sinceRefresh++
	}
}

// solve runs the two simplex phases.
func (t *tableau) solve(opts Options) (*Solution, error) {
	iters := 0

	// Phase 1: minimise the sum of artificials that start basic.
	needPhase1 := false
	cost1 := make([]float64, t.totalCols)
	for i := 0; i < t.m; i++ {
		if t.isArtificial(t.basis[i]) {
			cost1[t.basis[i]] = 1
			needPhase1 = true
		}
	}
	if needPhase1 {
		z1, st := t.iterate(cost1, func(j int) bool { return true }, opts, &iters)
		switch st {
		case StatusCanceled:
			return &Solution{Status: StatusCanceled, Iterations: iters}, canceledErr(opts.ctx)
		case StatusIterLimit:
			return &Solution{Status: StatusIterLimit, Iterations: iters}, ErrIterationLimit
		case StatusUnbounded:
			// Phase 1 is bounded below by 0; numeric trouble if we land here.
			return &Solution{Status: StatusInfeasible, Iterations: iters},
				fmt.Errorf("%w: phase 1 reported unbounded", ErrInfeasible)
		}
		if z1 > math.Sqrt(opts.Tol) {
			return &Solution{Status: StatusInfeasible, Iterations: iters},
				fmt.Errorf("%w: phase-1 objective %g", ErrInfeasible, z1)
		}
		t.evictArtificials(opts)
	}

	// Phase 2: the real objective, with artificial columns barred from
	// re-entering. Costs are negated for maximisation.
	cost2 := make([]float64, t.totalCols)
	for v := 0; v < t.nStruct; v++ {
		c := t.model.obj[v]
		if t.model.sense == Maximize {
			c = -c
		}
		cost2[v] = c
	}
	_, st := t.iterate(cost2, func(j int) bool { return !t.isArtificial(j) }, opts, &iters)
	switch st {
	case StatusCanceled:
		return &Solution{Status: StatusCanceled, Iterations: iters}, canceledErr(opts.ctx)
	case StatusIterLimit:
		return &Solution{Status: StatusIterLimit, Iterations: iters}, ErrIterationLimit
	case StatusUnbounded:
		return &Solution{Status: StatusUnbounded, Iterations: iters}, ErrUnbounded
	}

	t.refineRHS(opts)

	sol := &Solution{
		Status:     StatusOptimal,
		X:          make([]float64, t.nStruct),
		Iterations: iters,
		Basis:      append([]int(nil), t.basis...),
	}
	for i := 0; i < t.m; i++ {
		if b := t.basis[i]; b < t.nStruct {
			sol.X[b] = t.rows[i][t.totalCols]
		}
	}
	// Duals come from reduced costs recomputed at the final basis.
	rFinal, _ := t.reducedCosts(cost2)
	sol.Duals = t.extractDuals(rFinal)
	return sol, nil
}

// refineRHS runs iterative refinement of the basic solution against the
// pristine canonical constraint data. The tableau's RHS column drifts
// over long pivot sequences; the columns of the initial identity basis
// hold an approximate B⁻¹, so each pass computes the true residual
// r = b − A·x and applies the correction B̃⁻¹·r to the basic values.
// It runs both periodically during iteration (so ratio tests see honest
// right-hand sides and the search cannot wander into an infeasible
// basis) and once more before the solution is extracted. Two or three
// passes reduce feasibility error from ~1e−4 to ~1e−13 on the hardest
// design LPs.
func (t *tableau) refineRHS(opts Options) {
	// Full solution vector over all columns (basic entries only).
	xFull := make([]float64, t.totalCols)
	for i := 0; i < t.m; i++ {
		xFull[t.basis[i]] = t.rows[i][t.totalCols]
	}
	res := make([]float64, t.m)
	residual := func() float64 {
		worst := 0.0
		for i := 0; i < t.m; i++ {
			r := t.origRHS[i]
			coeffs := t.origCoeffs[i]
			for v, c := range coeffs {
				if c != 0 {
					r -= c * xFull[v]
				}
			}
			r -= t.identSign[i] * xFull[t.identCol[i]]
			if t.initIdCol[i] != t.identCol[i] {
				r -= xFull[t.initIdCol[i]]
			}
			res[i] = r
			if a := math.Abs(r); a > worst {
				worst = a
			}
		}
		return worst
	}

	saved := make([]float64, t.m)
	for pass := 0; pass < 3; pass++ {
		worst := residual()
		if worst < opts.Tol/100 {
			return
		}
		// Correction: x_B += B̃⁻¹·res, where B̃⁻¹'s columns sit at the
		// initial identity positions of the current tableau. The inverse
		// is approximate — a badly conditioned basis can make the
		// correction diverge — so the pass is reverted unless it
		// actually shrinks the residual.
		for k := 0; k < t.m; k++ {
			row := t.rows[k]
			saved[k] = row[t.totalCols]
			var d float64
			for i := 0; i < t.m; i++ {
				if res[i] != 0 {
					d += row[t.initIdCol[i]] * res[i]
				}
			}
			row[t.totalCols] += d
			xFull[t.basis[k]] = row[t.totalCols]
		}
		if after := residual(); !(after < worst*0.5) || math.IsNaN(after) {
			for k := 0; k < t.m; k++ {
				t.rows[k][t.totalCols] = saved[k]
				xFull[t.basis[k]] = saved[k]
			}
			return
		}
	}
}

// evictArtificials pivots basic artificial variables out of the basis
// after phase 1. Rows whose artificial cannot be replaced are redundant
// (all-zero over real columns) and are neutralised.
func (t *tableau) evictArtificials(opts Options) {
	for i := 0; i < t.m; i++ {
		if !t.isArtificial(t.basis[i]) {
			continue
		}
		// The artificial is basic at value ~0 (phase 1 succeeded). Pivot in
		// any usable real column; the pivot is degenerate so feasibility is
		// preserved regardless of reduced costs.
		pivoted := false
		for j := 0; j < t.artStart; j++ {
			if math.Abs(t.rows[i][j]) > math.Sqrt(opts.Tol) {
				dummyR := make([]float64, t.totalCols)
				var dummyZ float64
				t.pivot(i, j, dummyR, &dummyZ)
				pivoted = true
				break
			}
		}
		if !pivoted {
			// Redundant constraint: zero the row so it can never pivot.
			for j := range t.rows[i] {
				t.rows[i][j] = 0
			}
			t.rows[i][t.basis[i]] = 1 // keep the artificial basic at 0
		}
	}
}

// extractDuals recovers one dual value per original constraint from the
// final reduced-cost row. For row i with initial identity column k of sign
// s (slack +1, surplus −1) and zero cost, the reduced cost satisfies
// r[k] = −s·y_i in the canonical problem; undoing row scaling and the
// minimisation canonicalisation yields the caller-facing dual.
func (t *tableau) extractDuals(r []float64) []float64 {
	duals := make([]float64, t.m)
	for i := 0; i < t.m; i++ {
		y := -r[t.identCol[i]] * t.identSign[i]
		// The canonical row equals the original row divided by rowScale;
		// equivalently original = rowScale · canonical, so the dual for the
		// original row is y / rowScale.
		y /= t.rowScale[i]
		if t.model.sense == Maximize {
			y = -y
		}
		duals[i] = y
	}
	return duals
}
