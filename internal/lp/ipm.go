package lp

import (
	"errors"
	"fmt"
	"math"

	"privcount/internal/mat"
)

// This file implements a primal-dual interior-point method (Mehrotra's
// predictor-corrector) over the bounded canonical form, as an
// alternative engine to the revised simplex. The two have opposite cost
// profiles: simplex pays per pivot and wins whenever a warm or crash
// basis starts it near the optimum (the design α-sweeps), while the
// interior point method pays a fixed ~20–40 iterations of one sparse
// symmetric factorization each, independent of how degenerate the
// vertex structure is — which is exactly where cold large-model simplex
// runs drown (the minimax LPs stall in the tens of thousands of pivots
// on massively degenerate bases). Each iteration eliminates the Newton
// system down to the normal equations A·Θ·Aᵀ·Δy = r, assembled and
// factored by the sparse LDLᵀ kernel in internal/mat under a
// fill-reducing AMD ordering computed once per solve (the pattern never
// changes, only Θ).
//
// The implementation solves
//
//	min cᵀx  s.t.  A·x = b,  0 ≤ x_j ≤ u_j
//
// with the upper bounds handled as a second complementarity pair
// (w = u − x with dual v), never as rows. Artificial columns and fixed
// (zero-width) boxes are frozen out of the iteration entirely.
// Termination is by direct high-accuracy convergence — relative primal
// and dual residuals and duality gap all under ipmTol — rather than by
// crossover to a basis; the simplex remains the engine of choice when a
// basis (warm or crash) is wanted.

// ipmTol is the relative convergence target for residuals and duality
// gap. It sits well under the 1e-6 agreement the cross-validation suite
// demands so that rounding in postsolve/objective evaluation never eats
// the margin.
const ipmTol = 1e-9

// ipmAcceptTol is the looser bound accepted when the iteration stalls
// (numerical floor reached) after having essentially converged.
const ipmAcceptTol = 5e-8

// ipmMaxIter bounds interior-point iterations. Well-posed LPs converge
// in 10–40; the bound only trips on numerically hopeless models, which
// then fall back to the simplex chain.
const ipmMaxIter = 200

// ipmDivergence is the iterate magnitude that triggers an
// infeasible/unbounded verdict instead of further iteration.
const ipmDivergence = 1e13

// ipmMinRows is the row count past which MethodAuto considers the
// interior point method for hint-free models (see wantIPM).
const ipmMinRows = 20000

// wantIPM reports whether the auto method should try the interior
// point engine first: large models with no basis to exploit. Warm and
// crash hints keep the simplex (a hinted solve is a few hundred pivots
// — far cheaper than any from-scratch method), and small models solve
// in milliseconds either way.
func wantIPM(cf *canonForm, opts Options) bool {
	if len(opts.Basis) > 0 || len(opts.CrashRows) > 0 {
		return false
	}
	return cf.m >= ipmMinRows
}

// ipmState carries one interior-point iterate and its workspaces.
type ipmState struct {
	cf   *canonForm
	opts Options

	alive []bool // column participates in the iteration
	boxed []bool // alive with a finite upper bound

	c []float64 // minimization cost over canonical columns

	x, z []float64 // primal iterate and its lower-bound dual, > 0 on alive
	w, v []float64 // upper-bound slack and dual, > 0 on boxed
	y    []float64 // row duals

	theta []float64 // diagonal scaling, 0 on frozen columns

	perm    []int // AMD ordering of the normal-equations pattern
	factors int

	// Newton scratch.
	rb, rc, ru       []float64
	dx, dz, dw, dv   []float64
	dy               []float64
	rhs, rcw         []float64
	cxz, cwv         []float64
	refN, refM       []float64
	bInfNorm, cInfNo float64
}

// solveIPM runs the interior point method on the canonical form.
// Returns errSparseFallback when the model shape is outside what the
// method handles (no rows, nothing to optimize) so the caller can
// continue down the simplex chain.
func (m *Model) solveIPM(cf *canonForm, opts Options) (*Solution, error) {
	if cf.m == 0 {
		return nil, errSparseFallback
	}
	st := &ipmState{cf: cf, opts: opts}
	n := cf.totalCols
	st.alive = make([]bool, n)
	st.boxed = make([]bool, n)
	nAlive := 0
	for j := 0; j < n; j++ {
		if cf.isArtificial(j) || cf.ub[j] == 0 {
			continue
		}
		st.alive[j] = true
		nAlive++
		if !math.IsInf(cf.ub[j], 1) {
			st.boxed[j] = true
		}
	}
	if nAlive == 0 {
		return nil, errSparseFallback
	}
	st.c = make([]float64, n)
	for j := 0; j < cf.nStruct; j++ {
		coeff := m.obj[j]
		if m.sense == Maximize {
			coeff = -coeff
		}
		st.c[j] = coeff
	}
	for _, bi := range cf.b {
		if a := math.Abs(bi); a > st.bInfNorm {
			st.bInfNorm = a
		}
	}
	for j := 0; j < n; j++ {
		if st.alive[j] {
			if a := math.Abs(st.c[j]); a > st.cInfNo {
				st.cInfNo = a
			}
		}
	}
	alloc := func() []float64 { return make([]float64, n) }
	st.x, st.z, st.w, st.v = alloc(), alloc(), alloc(), alloc()
	st.theta = alloc()
	st.rc, st.ru = alloc(), alloc()
	st.dx, st.dz, st.dw, st.dv = alloc(), alloc(), alloc(), alloc()
	st.cxz, st.cwv, st.rcw = alloc(), alloc(), alloc()
	st.rb = make([]float64, cf.m)
	st.dy = make([]float64, cf.m)
	st.rhs = make([]float64, cf.m)
	st.y = make([]float64, cf.m)
	st.refN = alloc()
	st.refM = make([]float64, cf.m)

	sol, err := st.run(m)
	if sol != nil {
		sol.Refactorizations = st.factors
	}
	return sol, err
}

// mulA computes out = A·x over alive columns.
func (st *ipmState) mulA(x, out []float64) {
	for i := range out {
		out[i] = 0
	}
	for j := range st.alive {
		if !st.alive[j] || x[j] == 0 {
			continue
		}
		idx, val := st.cf.column(j)
		for p, i := range idx {
			out[i] += x[j] * val[p]
		}
	}
}

// mulAT computes out_j = (Aᵀ·y)_j for alive j.
func (st *ipmState) mulAT(y, out []float64) {
	for j := range st.alive {
		if !st.alive[j] {
			out[j] = 0
			continue
		}
		var s float64
		idx, val := st.cf.column(j)
		for p, i := range idx {
			s += y[i] * val[p]
		}
		out[j] = s
	}
}

// factorNormal assembles and factors A·Θ·Aᵀ + δI for the current Θ.
func (st *ipmState) factorNormal() (*mat.SymFactor, error) {
	maxTheta := 0.0
	for j := range st.theta {
		if st.theta[j] > maxTheta {
			maxTheta = st.theta[j]
		}
	}
	delta := 1e-16 * (1 + maxTheta)
	s, err := mat.NormalProduct(st.cf.m, st.cf.colPtr, st.cf.rowIdx, st.cf.val, st.theta, delta)
	if err != nil {
		return nil, err
	}
	if st.perm == nil {
		st.perm = mat.AMDOrder(s)
	}
	maxDiag := delta
	for j := 0; j < s.N; j++ {
		for p := s.Ptr[j]; p < s.Ptr[j+1]; p++ {
			if int(s.Idx[p]) == j && s.Val[p] > maxDiag {
				maxDiag = s.Val[p]
			}
		}
	}
	f, err := mat.FactorSymCtx(st.opts.ctx, s, st.perm, 1e-14*maxDiag)
	if err != nil {
		return nil, err
	}
	st.factors++
	return f, nil
}

// newtonSolve computes (Δy, Δx) for the reduced Newton system given the
// current factorization, the primal residual rb, and the collapsed dual
// residual rcHat (over alive columns):
//
//	A·Θ·Aᵀ·Δy = rb + A·Θ·rcHat,   Δx = Θ·(Aᵀ·Δy − rcHat)
func (st *ipmState) newtonSolve(f *mat.SymFactor, rcHat []float64) error {
	cf := st.cf
	for i := range st.rhs {
		st.rhs[i] = st.rb[i]
	}
	for j := range st.alive {
		if !st.alive[j] {
			continue
		}
		t := st.theta[j] * rcHat[j]
		if t == 0 {
			continue
		}
		idx, val := cf.column(j)
		for p, i := range idx {
			st.rhs[i] += t * val[p]
		}
	}
	copy(st.dy, st.rhs)
	if err := f.SolveVec(st.dy); err != nil {
		return err
	}
	// Iterative refinement against the unregularized operator. The δ
	// shift and any bumped pivots trade accuracy for factorability —
	// dependent row sets (symmetry equalities duplicating column sums)
	// make both routine — and the lost digits land directly in the
	// primal residual, so polish Δy until the normal-equations residual
	// sits at rounding level.
	for round := 0; round < 8; round++ {
		st.mulAT(st.dy, st.refN)
		for j := range st.refN {
			st.refN[j] *= st.theta[j]
		}
		st.mulA(st.refN, st.refM)
		var rnorm, rhsNorm float64
		for i := range st.refM {
			r := st.rhs[i] - st.refM[i]
			st.refM[i] = r
			if a := math.Abs(r); a > rnorm {
				rnorm = a
			}
			if a := math.Abs(st.rhs[i]); a > rhsNorm {
				rhsNorm = a
			}
		}
		if rnorm <= 1e-15*(1+rhsNorm) {
			break
		}
		if err := f.SolveVec(st.refM); err != nil {
			return err
		}
		for i := range st.dy {
			st.dy[i] += st.refM[i]
		}
	}
	st.mulAT(st.dy, st.dx)
	for j := range st.alive {
		if st.alive[j] {
			st.dx[j] = st.theta[j] * (st.dx[j] - rcHat[j])
		} else {
			st.dx[j] = 0
		}
	}
	return nil
}

// run is the Mehrotra predictor-corrector loop.
func (st *ipmState) run(m *Model) (*Solution, error) {
	cf := st.cf
	if err := st.initialPoint(); err != nil {
		return nil, err
	}

	bestGap := math.Inf(1)
	stall := 0
	var relRb, relRc, relGap float64
	// Best-iterate snapshot. Near μ = 0 the scaling matrix spans enough
	// orders of magnitude that further steps can degrade the primal
	// residual after it has already converged, so the iterate worth
	// returning is not necessarily the last one.
	var bestX, bestY []float64
	bestScore := math.Inf(1)
	var bestRb, bestRc, bestG float64
	for iter := 0; iter < ipmMaxIter; iter++ {
		if err := ctxErr(st.opts.ctx); err != nil {
			return &Solution{Status: StatusCanceled, Iterations: iter}, canceledErr(st.opts.ctx)
		}

		// Residuals and convergence state.
		st.mulA(st.x, st.rb)
		for i := range st.rb {
			st.rb[i] = cf.b[i] - st.rb[i]
		}
		st.mulAT(st.y, st.rc)
		pobj, dobj := 0.0, 0.0
		for i := range st.y {
			dobj += st.y[i] * cf.b[i]
		}
		var mu float64
		pairs := 0
		maxX, maxYZ := 0.0, 0.0
		for i := range st.y {
			if a := math.Abs(st.y[i]); a > maxYZ {
				maxYZ = a
			}
		}
		for j := range st.alive {
			if !st.alive[j] {
				continue
			}
			st.rc[j] = st.c[j] - st.rc[j] - st.z[j]
			if st.boxed[j] {
				st.rc[j] += st.v[j]
				st.ru[j] = cf.ub[j] - st.x[j] - st.w[j]
				mu += st.w[j] * st.v[j]
				dobj -= cf.ub[j] * st.v[j]
				pairs++
			}
			pobj += st.c[j] * st.x[j]
			mu += st.x[j] * st.z[j]
			pairs++
			if st.x[j] > maxX {
				maxX = st.x[j]
			}
			if a := math.Abs(st.z[j]); a > maxYZ {
				maxYZ = a
			}
		}
		mu /= float64(pairs)

		relRb = infNorm(st.rb) / (1 + st.bInfNorm)
		relRc = 0.0
		for j := range st.alive {
			if st.alive[j] {
				if a := math.Abs(st.rc[j]); a > relRc {
					relRc = a
				}
			}
		}
		relRc /= 1 + st.cInfNo
		relGap = math.Abs(pobj-dobj) / (1 + math.Abs(pobj))

		if score := math.Max(relRb, math.Max(relRc, relGap)); score < bestScore {
			bestScore = score
			bestRb, bestRc, bestG = relRb, relRc, relGap
			if bestX == nil {
				bestX = make([]float64, len(st.x))
				bestY = make([]float64, len(st.y))
			}
			copy(bestX, st.x)
			copy(bestY, st.y)
		}
		if relRb <= ipmTol && relRc <= ipmTol && relGap <= ipmTol {
			return st.extract(m, iter, relGap)
		}
		// Stall acceptance: essentially converged but pinned at the
		// numerical floor.
		total := relRb + relRc + relGap
		if total < bestGap*(1-1e-3) {
			bestGap = total
			stall = 0
		} else {
			stall++
			if stall >= 8 && bestRb <= ipmAcceptTol && bestRc <= ipmAcceptTol && bestG <= ipmAcceptTol {
				copy(st.x, bestX)
				copy(st.y, bestY)
				return st.extract(m, iter, bestG)
			}
			if stall >= 20 {
				break
			}
		}

		// Divergence verdicts. An unbounded primal runs x off to
		// infinity while staying (relatively) feasible; an infeasible
		// primal runs the duals off to infinity chasing a Farkas ray.
		if maxX > ipmDivergence {
			if relRb <= 1e-6 {
				return &Solution{Status: StatusUnbounded, Iterations: iter, Route: "ipm"}, ErrUnbounded
			}
			// x diverged while primal-infeasible. An unbounded primal can
			// drift off the affine hull on the way out just as easily as an
			// infeasible one, so this is not a certificate either way: let
			// the simplex chain classify with its Farkas-definitive tests.
			return &Solution{Status: StatusIterLimit, Iterations: iter, Route: "ipm"},
				errors.Join(errSparseFallback, fmt.Errorf("lp: ipm iterates diverged with primal residual %.3g", relRb))
		}
		if maxYZ > ipmDivergence {
			return &Solution{Status: StatusInfeasible, Iterations: iter, Route: "ipm"},
				errors.Join(ErrInfeasible, errors.New("lp: ipm dual iterates diverged"))
		}
		if mu < 1e-14 && relRb > 1e-6 {
			// Complementarity closed but the primal residual is stuck.
			// That pattern covers genuine infeasibility AND feasible
			// models whose dependent rows defeat the regularized normal
			// equations, so it is not a certificate: hand the model to
			// the simplex chain for a definitive verdict.
			return &Solution{Status: StatusIterLimit, Iterations: iter, Route: "ipm"},
				errors.Join(errSparseFallback, fmt.Errorf("lp: ipm gap closed with primal residual %.3g", relRb))
		}

		// Scaling for this iteration's two Newton solves.
		for j := range st.alive {
			if !st.alive[j] {
				st.theta[j] = 0
				continue
			}
			d := st.z[j] / st.x[j]
			if st.boxed[j] {
				d += st.v[j] / st.w[j]
			}
			st.theta[j] = 1 / d
		}
		f, err := st.factorNormal()
		if err != nil {
			if errors.Is(err, ErrCanceled) || ctxErr(st.opts.ctx) != nil {
				return &Solution{Status: StatusCanceled, Iterations: iter}, canceledErr(st.opts.ctx)
			}
			return nil, errors.Join(errSparseFallback, err)
		}

		// Affine (predictor) direction: pure Newton on the KKT residuals.
		for j := range st.alive {
			if !st.alive[j] {
				continue
			}
			st.cxz[j] = -st.x[j] * st.z[j]
			if st.boxed[j] {
				st.cwv[j] = -st.w[j] * st.v[j]
			}
		}
		if err := st.directions(f); err != nil {
			return nil, errors.Join(errSparseFallback, err)
		}
		alphaP, alphaD := st.stepLengths()
		muAff := st.muAfter(alphaP, alphaD, pairs)

		// Centering weight and Mehrotra correction, then the combined
		// corrector direction.
		sigma := muAff / mu
		sigma = sigma * sigma * sigma
		if sigma < 1e-8 {
			sigma = 1e-8
		} else if sigma > 0.99 {
			sigma = 0.99
		}
		target := sigma * mu
		for j := range st.alive {
			if !st.alive[j] {
				continue
			}
			st.cxz[j] = target - st.x[j]*st.z[j] - st.dx[j]*st.dz[j]
			if st.boxed[j] {
				st.cwv[j] = target - st.w[j]*st.v[j] - st.dw[j]*st.dv[j]
			}
		}
		if err := st.directions(f); err != nil {
			return nil, errors.Join(errSparseFallback, err)
		}
		alphaP, alphaD = st.stepLengths()

		// Step with the fraction-to-boundary damping.
		const eta = 0.9995
		alphaP *= eta
		alphaD *= eta
		if alphaP > 1 {
			alphaP = 1
		}
		if alphaD > 1 {
			alphaD = 1
		}
		for j := range st.alive {
			if !st.alive[j] {
				continue
			}
			st.x[j] += alphaP * st.dx[j]
			st.z[j] += alphaD * st.dz[j]
			if st.boxed[j] {
				st.w[j] += alphaP * st.dw[j]
				st.v[j] += alphaD * st.dv[j]
			}
		}
		for i := range st.y {
			st.y[i] += alphaD * st.dy[i]
		}
	}
	// Out of iterations (or stalled short of the acceptance bound): the
	// best snapshot decides, not the final iterate.
	if bestX != nil && bestRb <= ipmAcceptTol && bestRc <= ipmAcceptTol && bestG <= ipmAcceptTol {
		copy(st.x, bestX)
		copy(st.y, bestY)
		return st.extract(m, ipmMaxIter, bestG)
	}
	return &Solution{Status: StatusIterLimit, Iterations: ipmMaxIter, Route: "ipm"},
		errors.Join(errSparseFallback, fmt.Errorf("lp: ipm did not converge (best rb %.3g rc %.3g gap %.3g)", bestRb, bestRc, bestG))
}

// directions solves the Newton system for the current complementarity
// targets in cxz/cwv and the residuals rb/rc/ru, leaving the result in
// dx/dy/dz/dw/dv.
func (st *ipmState) directions(f *mat.SymFactor) error {
	// Collapse the complementarity and box rows into the dual residual:
	// rcHat_j = rc_j − cxz_j/x_j + cwv_j/w_j − (v_j/w_j)·ru_j.
	for j := range st.alive {
		if !st.alive[j] {
			st.rcw[j] = 0
			continue
		}
		r := st.rc[j] - st.cxz[j]/st.x[j]
		if st.boxed[j] {
			r += st.cwv[j]/st.w[j] - (st.v[j]/st.w[j])*st.ru[j]
		}
		st.rcw[j] = r
	}
	if err := st.newtonSolve(f, st.rcw); err != nil {
		return err
	}
	for j := range st.alive {
		if !st.alive[j] {
			st.dz[j], st.dw[j], st.dv[j] = 0, 0, 0
			continue
		}
		st.dz[j] = (st.cxz[j] - st.z[j]*st.dx[j]) / st.x[j]
		if st.boxed[j] {
			st.dw[j] = st.ru[j] - st.dx[j]
			st.dv[j] = (st.cwv[j] - st.v[j]*st.dw[j]) / st.w[j]
		}
	}
	return nil
}

// stepLengths returns the largest primal and dual multiples of the
// current direction that keep every positive variable positive.
func (st *ipmState) stepLengths() (alphaP, alphaD float64) {
	alphaP, alphaD = math.Inf(1), math.Inf(1)
	for j := range st.alive {
		if !st.alive[j] {
			continue
		}
		if st.dx[j] < 0 {
			if r := -st.x[j] / st.dx[j]; r < alphaP {
				alphaP = r
			}
		}
		if st.dz[j] < 0 {
			if r := -st.z[j] / st.dz[j]; r < alphaD {
				alphaD = r
			}
		}
		if st.boxed[j] {
			if st.dw[j] < 0 {
				if r := -st.w[j] / st.dw[j]; r < alphaP {
					alphaP = r
				}
			}
			if st.dv[j] < 0 {
				if r := -st.v[j] / st.dv[j]; r < alphaD {
					alphaD = r
				}
			}
		}
	}
	return alphaP, alphaD
}

// muAfter evaluates the complementarity average at the (capped) affine
// step, Mehrotra's probe for the centering weight.
func (st *ipmState) muAfter(alphaP, alphaD float64, pairs int) float64 {
	if alphaP > 1 {
		alphaP = 1
	}
	if alphaD > 1 {
		alphaD = 1
	}
	var mu float64
	for j := range st.alive {
		if !st.alive[j] {
			continue
		}
		mu += (st.x[j] + alphaP*st.dx[j]) * (st.z[j] + alphaD*st.dz[j])
		if st.boxed[j] {
			mu += (st.w[j] + alphaP*st.dw[j]) * (st.v[j] + alphaD*st.dv[j])
		}
	}
	return mu / float64(pairs)
}

// initialPoint builds Mehrotra's least-squares starting point: the
// minimum-norm primal satisfying A·x = b and the least-squares duals,
// both shifted strictly inside the cone (boxed variables are clamped
// into their boxes and given both bound duals).
func (st *ipmState) initialPoint() error {
	cf := st.cf
	for j := range st.theta {
		if st.alive[j] {
			st.theta[j] = 1
		}
	}
	f, err := st.factorNormal()
	if err != nil {
		return errors.Join(errSparseFallback, err)
	}
	// x̂ = Aᵀ·(A·Aᵀ)⁻¹·b
	copy(st.rhs, cf.b)
	if err := f.SolveVec(st.rhs); err != nil {
		return err
	}
	st.mulAT(st.rhs, st.x)
	// ŷ = (A·Aᵀ)⁻¹·A·c, ẑ = c − Aᵀ·ŷ
	st.mulA(st.c, st.rhs)
	if err := f.SolveVec(st.rhs); err != nil {
		return err
	}
	copy(st.y, st.rhs)
	st.mulAT(st.y, st.z)
	minX, minZ := math.Inf(1), math.Inf(1)
	for j := range st.alive {
		if !st.alive[j] {
			continue
		}
		st.z[j] = st.c[j] - st.z[j]
		if st.x[j] < minX {
			minX = st.x[j]
		}
		if st.z[j] < minZ {
			minZ = st.z[j]
		}
	}
	dp := math.Max(-1.5*minX, 0) + 0.1
	dd := math.Max(-1.5*minZ, 0) + 0.1
	var sumXZ, sumX, sumZ float64
	for j := range st.alive {
		if !st.alive[j] {
			continue
		}
		sumXZ += (st.x[j] + dp) * (st.z[j] + dd)
		sumX += st.x[j] + dp
		sumZ += st.z[j] + dd
	}
	dp += 0.5 * sumXZ / sumZ
	dd += 0.5 * sumXZ / sumX
	for j := range st.alive {
		if !st.alive[j] {
			continue
		}
		st.x[j] += dp
		st.z[j] += dd
		if st.boxed[j] {
			u := cf.ub[j]
			margin := 0.1 * u
			if margin > 1 {
				margin = 1
			}
			if st.x[j] > u-margin {
				st.x[j] = u - margin
			}
			if st.x[j] < margin {
				st.x[j] = margin
			}
			st.w[j] = u - st.x[j]
			st.v[j] = dd
		}
	}
	return nil
}

// extract builds the Solution from the converged iterate.
func (st *ipmState) extract(m *Model, iters int, gap float64) (*Solution, error) {
	cf := st.cf
	sol := &Solution{
		Status:     StatusOptimal,
		X:          make([]float64, cf.nStruct),
		Duals:      make([]float64, cf.m),
		Iterations: iters,
		Route:      "ipm",
		Gap:        gap,
	}
	for j := 0; j < cf.nStruct; j++ {
		v := 0.0
		if st.alive[j] {
			v = st.x[j]
			// An interior iterate converges to a bound without ever
			// reaching it; snap the residual distance away.
			if v < st.opts.Tol*10 {
				v = 0
			} else if u := cf.ub[j]; !math.IsInf(u, 1) && v > u-st.opts.Tol*10 {
				v = u
			}
		}
		if cf.shift != nil {
			v += cf.shift[j]
		}
		sol.X[j] = v
	}
	for i := 0; i < cf.m; i++ {
		y := st.y[i] / cf.rowScale[i]
		if m.sense == Maximize {
			y = -y
		}
		sol.Duals[i] = y
	}
	return sol, nil
}

func infNorm(v []float64) float64 {
	var worst float64
	for _, x := range v {
		if a := math.Abs(x); a > worst {
			worst = a
		}
	}
	return worst
}
