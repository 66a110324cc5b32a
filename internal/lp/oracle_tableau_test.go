package lp

import (
	"errors"
	"fmt"
	"math"
)

// This file is the dense two-phase tableau simplex, kept as a test-only
// cross-validation oracle: it shares nothing with the production engines
// but the canonical form (canonical.go), so agreement between the two on
// objectives, duals and verdicts pins both. The unbounded revised simplex
// (oracle_revised_test.go) is the second oracle; oracle_test.go routes
// tests to either through solveBy.

// maxDenseCells bounds the dense tableau's working array (rows ×
// columns); 50M float64 cells is ~400 MB and roughly the n=96 design
// LP, past which the dense fallback would be slower than useful anyway.
const maxDenseCells = 50_000_000

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
