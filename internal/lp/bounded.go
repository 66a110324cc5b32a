package lp

import (
	"errors"
	"math"

	"privcount/internal/mat"
)

// This file is the bounded-variable revised simplex, the engine every
// production route ends at. It extends the classic revised method (kept
// as the unbounded test oracle in oracle_revised_test.go) in three
// ways that together move the design LPs from n≈96 to n≥256 inside the
// serving budget:
//
//   - three-state nonbasic logic. Every canonical column carries a box
//     [0, ub] (lower bounds were shifted into the right-hand sides by
//     canonicalize, upper bounds come from presolve or the caller), and a
//     nonbasic column rests at either end. The ratio test gains the
//     symmetric "basic variable hits its upper bound" case and the bound
//     flip: when the entering column's own box is the binding limit it
//     jumps to its other bound with no basis change at all — no eta, no
//     refactorization, just a sparse right-hand-side update.
//
//   - hyper-sparse linear algebra. The transformed entering column
//     w = B⁻¹·a_q and the pricing row ρ = B⁻ᵀ·e_r are computed as sparse
//     vectors with explicit nonzero patterns (mat.FtranSparse/BtranSparse
//     walk only the reachable part of the LU factors), and the eta file,
//     ratio test, basic-value update, and pivot application all iterate
//     over those patterns. On the design LPs the patterns hold tens of
//     entries while the basis holds tens of thousands of rows, which is
//     where the order-of-magnitude win over the dense-sweep oracle lives.
//     A vector whose pattern fills past the sparsity cutover degrades
//     gracefully to the dense code path for that iteration.
//
//   - partial, sweepless pricing. A full reduced-cost scan per pivot is
//     O(columns) and dominates once models have 10⁵ columns — and so does
//     maintaining the reduced-cost vector itself, because one pivot's
//     tableau row can touch most columns. Small models keep the classic
//     incrementally-maintained devex vector with a full scan. Large
//     models switch to sweepless mode: the duals y are updated per pivot
//     in O(|ρ|), reduced costs are computed on demand only for the
//     columns a pricing scan actually visits (each column has a handful
//     of nonzeros), and candidate selection rotates over column
//     sections. (A persistent shortlist of previously-seen improving
//     columns was tried and measured slower end-to-end: it biases the
//     entering choice toward a stale pool, and the resulting bases drag
//     denser FTRAN/BTRAN patterns than the spread the rotation gives.)
//     Optimality is only ever declared after a full scan over duals
//     recomputed on a fresh factorization, exactly as in the test
//     oracles.

// errSparseFallback marks a model or basis an engine declines: a shape
// it does not handle (e.g. no constraint rows) or a basis the LU cannot
// factorize. The interior point and dual routes hand such a model on to
// the bounded simplex; SolveWith never returns the sentinel itself.
var errSparseFallback = errors.New("lp: sparse path fallback")

// errRestoreInfeasible reports that the basis found for the perturbed
// problem is not feasible for the true right-hand sides.
var errRestoreInfeasible = errors.New("lp: perturbed basis infeasible after restore")

// refactorEvery bounds the eta file length before the basis is
// refactorized from scratch.
const refactorEvery = 60

// eta is one product-form basis update: entering column q replaced the
// basic variable in row r, with w = B⁻¹·a_q the transformed column. idx
// and val are capped windows of the bounded run's eta arena.
type eta struct {
	r    int
	diag float64 // w_r, the pivot element
	idx  []int32 // rows i ≠ r with w_i ≠ 0
	val  []float64
}

// bounded is the working state of one bounded-simplex run.
type bounded struct {
	model *Model
	cf    *canonForm
	opts  Options

	b     []float64 // working canonical RHS (carries the perturbation)
	trueB []float64 // unperturbed canonical RHS

	// rhsWork = b − Σ_{j nonbasic at upper} ub_j·a_j; basic values are
	// xB = B⁻¹·rhsWork.
	rhsWork []float64

	basis    []int
	basisPos []int  // column -> row position, -1 when nonbasic
	atUpper  []bool // nonbasic column rests at its upper bound

	// lu is the basis factorization, refactored in place; nil after a
	// failed refactorization. The eta file's entries live in one arena,
	// etaIdx/etaVal, reset with it at each refactorization.
	lu     *mat.SparseLU
	etas   []eta
	etaIdx []int32
	etaVal []float64
	etaNNZ int

	xB []float64 // values of the basic variables, by row position
	y  []float64 // dual scratch (dense BTRAN, refactorization-rate only)

	// Sparse working vectors: dense scatter + pattern + visit marks.
	// dense==true means the pattern overflowed and the scatter holds a
	// full dense vector.
	w        []float64
	wPat     []int32
	wMark    []int32
	wStamp   int32
	wDense   bool
	rho      []float64
	rhoPat   []int32
	rhoMark  []int32
	rhoStamp int32
	rhoDense bool

	// Pricing state. In sweepless mode d and gamma are unused: y is
	// maintained incrementally and reduced costs come straight from it.
	sweepless bool
	cost      []float64 // current phase cost vector
	d         []float64 // reduced costs (0 for basic columns)
	gamma     []float64 // devex reference weights
	alphaV    []float64 // scatter accumulator for the tableau row α
	touched   []int32

	cursor int // partial-pricing rotation cursor

	iters   int
	flips   int
	refacts int
}

// fullScanCols is the column count under which pricing always scans
// everything (small models lose nothing and keep exact devex behaviour).
const fullScanCols = 8192

func newBounded(m *Model, cf *canonForm, opts Options, perturb bool) *bounded {
	bv := &bounded{
		model:    m,
		cf:       cf,
		opts:     opts,
		b:        append([]float64(nil), cf.b...),
		trueB:    cf.b,
		rhsWork:  make([]float64, cf.m),
		basis:    append([]int(nil), cf.initIdCol...),
		basisPos: make([]int, cf.totalCols),
		atUpper:  make([]bool, cf.totalCols),
		xB:       make([]float64, cf.m),
		y:        make([]float64, cf.m),
		w:        make([]float64, cf.m),
		wPat:     make([]int32, 0, cf.m),
		wMark:    make([]int32, cf.m),
		rho:      make([]float64, cf.m),
		rhoPat:   make([]int32, 0, cf.m),
		rhoMark:  make([]int32, cf.m),
		d:        make([]float64, cf.totalCols),
		gamma:    make([]float64, cf.totalCols),
		alphaV:   make([]float64, cf.totalCols),
		touched:  make([]int32, 0, cf.totalCols),
	}
	bv.sweepless = cf.totalCols > fullScanCols
	for j := range bv.basisPos {
		bv.basisPos[j] = -1
	}
	for i, j := range bv.basis {
		bv.basisPos[j] = i
	}
	if perturb {
		// Same deterministic scheme as the test oracles.
		const eps = 1e-9
		h := uint64(0x9e3779b97f4a7c15)
		for i := range bv.b {
			h ^= uint64(i+1) * 0xbf58476d1ce4e5b9
			h ^= h >> 27
			h *= 0x94d049bb133111eb
			bv.b[i] += eps * (1 + float64(h%1024)/1024)
		}
	}
	return bv
}

// fixed reports whether column j is pinned to its (zero-width) box.
func (bv *bounded) fixed(j int) bool { return bv.cf.ub[j] == 0 }

// computeRhsWork rebuilds rhsWork from the working RHS and the at-upper
// nonbasic set.
func (bv *bounded) computeRhsWork() {
	copy(bv.rhsWork, bv.b)
	for j := 0; j < bv.cf.totalCols; j++ {
		if !bv.atUpper[j] || bv.basisPos[j] >= 0 {
			continue
		}
		u := bv.cf.ub[j]
		if u == 0 {
			continue
		}
		idx, val := bv.cf.column(j)
		for p, i := range idx {
			bv.rhsWork[i] -= u * val[p]
		}
	}
}

// shiftRhsWork adds delta·a_j to rhsWork (sparse column update), used
// when column j enters or leaves the at-upper set.
func (bv *bounded) shiftRhsWork(j int, delta float64) {
	idx, val := bv.cf.column(j)
	for p, i := range idx {
		bv.rhsWork[i] += delta * val[p]
	}
}

// refactorize factors the current basis into bv.lu's storage and
// empties the eta file. A failed factorization leaves bv.lu nil: every
// caller either returns the error or refactorizes again.
func (bv *bounded) refactorize() error {
	lu := bv.lu
	bv.lu = nil
	if lu == nil {
		lu = new(mat.SparseLU)
	}
	err := lu.Refactor(bv.opts.ctx, bv.cf.m, func(k int) ([]int32, []float64) {
		return bv.cf.column(bv.basis[k])
	})
	if err != nil {
		if ctxErr(bv.opts.ctx) != nil {
			return canceledErr(bv.opts.ctx)
		}
		return errors.Join(errSparseFallback, err)
	}
	bv.lu = lu
	bv.etas = bv.etas[:0]
	bv.etaIdx = bv.etaIdx[:0]
	bv.etaVal = bv.etaVal[:0]
	bv.etaNNZ = 0
	bv.refacts++
	return nil
}

func (bv *bounded) recomputeXB() {
	copy(bv.xB, bv.rhsWork)
	bv.ftranDense(bv.xB)
}

// ftranDense overwrites x with B⁻¹·x (dense; refactorization-rate only).
func (bv *bounded) ftranDense(x []float64) {
	bv.lu.SolveVec(x)
	bv.etaApplyDense(x)
}

// btranDense overwrites y with B⁻ᵀ·y (dense; refactorization-rate only).
func (bv *bounded) btranDense(y []float64) {
	for k := len(bv.etas) - 1; k >= 0; k-- {
		e := &bv.etas[k]
		s := y[e.r]
		for p, i := range e.idx {
			s -= e.val[p] * y[i]
		}
		y[e.r] = s / e.diag
	}
	bv.lu.SolveTransposeVec(y)
}

// ftranColumn computes w = B⁻¹·a_q as a sparse vector (pattern in wPat)
// unless it fills in, in which case wDense is set and w holds the dense
// result.
func (bv *bounded) ftranColumn(q int) {
	if bv.wDense {
		for i := range bv.w {
			bv.w[i] = 0
		}
	} else {
		for _, i := range bv.wPat {
			bv.w[i] = 0
		}
	}
	bv.wPat = bv.wPat[:0]
	bv.wDense = false
	idx, val := bv.cf.column(q)
	for p, i := range idx {
		bv.w[i] = val[p]
		bv.wPat = append(bv.wPat, i)
	}
	pat := bv.lu.FtranSparse(bv.w, bv.wPat)
	if pat == nil {
		bv.wDense = true
		bv.etaApplyDense(bv.w)
		return
	}
	bv.wPat = append(bv.wPat[:0], pat...)
	bv.etaApplySparse()
}

// etaApplyDense folds the eta file into a dense vector.
func (bv *bounded) etaApplyDense(x []float64) {
	for k := range bv.etas {
		e := &bv.etas[k]
		t := x[e.r]
		if t == 0 {
			continue
		}
		t /= e.diag
		for p, i := range e.idx {
			x[i] -= e.val[p] * t
		}
		x[e.r] = t
	}
}

// etaApplySparse folds the eta file into the sparse w, growing its
// pattern as fill appears and degrading to dense past the cutover.
func (bv *bounded) etaApplySparse() {
	m := bv.cf.m
	bv.wStamp++
	for _, i := range bv.wPat {
		bv.wMark[i] = bv.wStamp
	}
	for k := range bv.etas {
		e := &bv.etas[k]
		t := bv.w[e.r]
		if t == 0 {
			continue
		}
		t /= e.diag
		for p, i := range e.idx {
			if bv.w[i] == 0 && bv.wMark[i] != bv.wStamp {
				bv.wMark[i] = bv.wStamp
				bv.wPat = append(bv.wPat, i)
			}
			bv.w[i] -= e.val[p] * t
		}
		bv.w[e.r] = t
		if len(bv.wPat)*4 > m {
			bv.wDense = true
			for kk := k + 1; kk < len(bv.etas); kk++ {
				e := &bv.etas[kk]
				t := bv.w[e.r]
				if t == 0 {
					continue
				}
				t /= e.diag
				for p, i := range e.idx {
					bv.w[i] -= e.val[p] * t
				}
				bv.w[e.r] = t
			}
			return
		}
	}
}

// btranRow computes ρ = B⁻ᵀ·e_r as a sparse vector in rho/rhoPat (or
// dense with rhoDense set).
func (bv *bounded) btranRow(r int) {
	if bv.rhoDense {
		for i := range bv.rho {
			bv.rho[i] = 0
		}
	} else {
		for _, i := range bv.rhoPat {
			bv.rho[i] = 0
		}
	}
	bv.rhoPat = bv.rhoPat[:0]
	bv.rhoDense = false
	bv.rho[r] = 1
	bv.rhoPat = append(bv.rhoPat, int32(r))

	// Reverse eta passes first (BTRAN order), tracking fill.
	m := bv.cf.m
	bv.rhoStamp++
	bv.rhoMark[r] = bv.rhoStamp
	for k := len(bv.etas) - 1; k >= 0; k-- {
		e := &bv.etas[k]
		s := bv.rho[e.r]
		for p, i := range e.idx {
			if v := bv.rho[i]; v != 0 {
				s -= e.val[p] * v
			}
		}
		s /= e.diag
		if s != 0 && bv.rho[e.r] == 0 && bv.rhoMark[e.r] != bv.rhoStamp {
			bv.rhoMark[e.r] = bv.rhoStamp
			bv.rhoPat = append(bv.rhoPat, int32(e.r))
		}
		bv.rho[e.r] = s
		if len(bv.rhoPat)*4 > m {
			for kk := k - 1; kk >= 0; kk-- {
				e := &bv.etas[kk]
				s := bv.rho[e.r]
				for p, i := range e.idx {
					s -= e.val[p] * bv.rho[i]
				}
				bv.rho[e.r] = s / e.diag
			}
			bv.lu.SolveTransposeVec(bv.rho)
			bv.rhoDense = true
			return
		}
	}
	pat := bv.lu.BtranSparse(bv.rho, bv.rhoPat)
	if pat == nil {
		bv.rhoDense = true
		return
	}
	bv.rhoPat = append(bv.rhoPat[:0], pat...)
}

func (bv *bounded) computeDuals(cost []float64) {
	for i, j := range bv.basis {
		bv.y[i] = cost[j]
	}
	bv.btranDense(bv.y)
}

func (bv *bounded) reducedCost(cost []float64, j int) float64 {
	d := cost[j]
	idx, val := bv.cf.column(j)
	for p, i := range idx {
		d -= bv.y[i] * val[p]
	}
	return d
}

// refreshPricing recomputes the pricing state from fresh duals (phase
// entry and refactorization-rate): the full reduced-cost vector in sweep
// mode, just the duals in sweepless mode.
func (bv *bounded) refreshPricing(cost []float64) {
	bv.cost = cost
	bv.computeDuals(cost)
	if bv.sweepless {
		return
	}
	for j := 0; j < bv.cf.totalCols; j++ {
		if bv.basisPos[j] >= 0 {
			bv.d[j] = 0
			continue
		}
		bv.d[j] = bv.reducedCost(cost, j)
	}
}

// dAt returns the current reduced cost of nonbasic column j: maintained
// in sweep mode, computed from the maintained duals in sweepless mode.
func (bv *bounded) dAt(j int) float64 {
	if !bv.sweepless {
		return bv.d[j]
	}
	return bv.reducedCost(bv.cost, j)
}

func (bv *bounded) resetDevex() {
	for j := range bv.gamma {
		bv.gamma[j] = 1
	}
}

// improvingDir is the one copy of the three-state entering test: it
// reports whether nonbasic column j can improve the objective, the
// direction it would move in (+1 off its lower bound, −1 off its upper
// bound), and its reduced cost (computed exactly once — in sweepless
// mode that is a column dot product worth not repeating).
func (bv *bounded) improvingDir(j int, tol float64) (d, dir float64, ok bool) {
	if bv.basisPos[j] >= 0 || bv.fixed(j) {
		return 0, 0, false
	}
	d = bv.dAt(j)
	if bv.atUpper[j] {
		if d > tol {
			return d, -1, true
		}
		return 0, 0, false
	}
	if d < -tol {
		return d, 1, true
	}
	return 0, 0, false
}

// improving is improvingDir without the reduced cost.
func (bv *bounded) improving(j int, tol float64) (float64, bool) {
	_, dir, ok := bv.improvingDir(j, tol)
	return dir, ok
}

// pickEntering selects the entering column, or -1 when no candidate
// improves. Bland mode does a strict lowest-index full scan (the
// anti-cycling guarantee needs it); normal mode scans everything on
// small models and rotates over sections on large ones, advancing until
// a section yields an improving column or the scan wraps.
func (bv *bounded) pickEntering(barArt bool, tol float64, bland bool) (q int, dir float64) {
	total := bv.cf.totalCols
	allowed := func(j int) bool { return !barArt || !bv.cf.isArtificial(j) }
	if bland {
		for j := 0; j < total; j++ {
			if !allowed(j) {
				continue
			}
			if dj, ok := bv.improving(j, tol); ok {
				return j, dj
			}
		}
		return -1, 0
	}

	best, bestJ, bestDir := 0.0, -1, 0.0
	consider := func(j int) bool {
		if !allowed(j) {
			return false
		}
		d, dj, ok := bv.improvingDir(j, tol)
		if !ok {
			return false
		}
		if s := d * d / bv.gamma[j]; s > best {
			best, bestJ, bestDir = s, j, dj
		}
		return true
	}

	if total <= fullScanCols {
		for j := 0; j < total; j++ {
			consider(j)
		}
		return bestJ, bestDir
	}

	// Rotate sections until something improves or the scan wraps.
	section := total / 64
	if section < 2048 {
		section = 2048
	}
	scanned := 0
	for scanned < total {
		run := section
		if rem := total - bv.cursor; run > rem {
			run = rem
		}
		end := bv.cursor + run
		for j := bv.cursor; j < end; j++ {
			consider(j)
		}
		scanned += run
		bv.cursor = end
		if bv.cursor >= total {
			bv.cursor = 0
		}
		if bestJ >= 0 {
			break
		}
	}
	return bestJ, bestDir
}

// ratioResult carries the ratio-test outcome.
type ratioResult struct {
	pr          int  // leaving row, -1 for a bound flip or unbounded ray
	flip        bool // entering column jumps to its other bound
	forced      bool // zero-step artificial eviction
	leaveAtUp   bool // leaving variable exits at its upper bound
	theta       float64
	unboundedOK bool // neither a blocking row nor a finite box: a true ray
}

// ratioTest picks the step limit for entering column q moving in
// direction dir, scanning only w's nonzero pattern in the sparse case.
func (bv *bounded) ratioTest(q int, dir float64, bland, barArtificial bool, tol float64) ratioResult {
	cf := bv.cf
	const pivotTol = 1e-7

	rowVal := func(i int) float64 { return bv.w[i] * dir }
	scan := func(f func(i int)) {
		if bv.wDense {
			for i := 0; i < cf.m; i++ {
				if bv.w[i] != 0 {
					f(i)
				}
			}
		} else {
			for _, i := range bv.wPat {
				f(int(i))
			}
		}
	}

	if barArtificial {
		// A basic artificial the step would drive positive leaves first
		// with a zero-length step (same guard as the oracle paths; the
		// pivot element must clear the magnitude floor).
		forced := -1
		scan(func(i int) {
			if forced >= 0 {
				return
			}
			if cf.isArtificial(bv.basis[i]) && rowVal(i) < -pivotTol {
				forced = i
			}
		})
		if forced >= 0 {
			return ratioResult{pr: forced, forced: true}
		}
	}

	minRatio := math.Inf(1)
	scan(func(i int) {
		a := rowVal(i)
		x := bv.xB[i]
		ub := cf.ub[bv.basis[i]]
		if a > tol {
			if x < 0 {
				x = 0
			}
			if r := x / a; r < minRatio {
				minRatio = r
			}
		} else if a < -tol && !math.IsInf(ub, 1) {
			room := ub - x
			if room < 0 {
				room = 0
			}
			if r := room / -a; r < minRatio {
				minRatio = r
			}
		}
	})

	flipLimit := cf.ub[q] // entering column's own box width
	if math.IsInf(minRatio, 1) {
		if math.IsInf(flipLimit, 1) {
			return ratioResult{pr: -1, unboundedOK: true}
		}
		return ratioResult{pr: -1, flip: true, theta: flipLimit}
	}
	if flipLimit < minRatio-tol*(1+minRatio) {
		return ratioResult{pr: -1, flip: true, theta: flipLimit}
	}

	// Leaving-row selection among near-ties: numerically largest pivot
	// normally (preferring pivots above the stability floor), smallest
	// basic index under Bland.
	tieBound := minRatio + tol*(1+minRatio)
	pr := -1
	prStable := false
	prUp := false
	prMag := 0.0
	scan(func(i int) {
		a := rowVal(i)
		x := bv.xB[i]
		ub := cf.ub[bv.basis[i]]
		var ratio float64
		var toUpper bool
		if a > tol {
			if x < 0 {
				x = 0
			}
			ratio = x / a
		} else if a < -tol && !math.IsInf(ub, 1) {
			room := ub - x
			if room < 0 {
				room = 0
			}
			ratio = room / -a
			toUpper = true
		} else {
			return
		}
		if ratio > tieBound {
			return
		}
		if bland {
			if pr < 0 || bv.basis[i] < bv.basis[pr] {
				pr, prUp = i, toUpper
			}
			return
		}
		mag := math.Abs(a)
		stable := mag >= pivotTol
		switch {
		case pr < 0:
			pr, prStable, prUp, prMag = i, stable, toUpper, mag
		case stable && !prStable:
			pr, prStable, prUp, prMag = i, stable, toUpper, mag
		case !stable && prStable:
			// keep the stable candidate
		case mag > prMag:
			pr, prUp, prMag = i, toUpper, mag
		}
	})
	if pr < 0 {
		// Every blocking row was rejected by tolerance jitter; treat the
		// entering box as the limit if it is finite.
		if math.IsInf(flipLimit, 1) {
			return ratioResult{pr: -1, unboundedOK: true}
		}
		return ratioResult{pr: -1, flip: true, theta: flipLimit}
	}
	return ratioResult{pr: pr, leaveAtUp: prUp, theta: minRatio}
}

// stepBasics moves the basic values theta along direction dir of the
// entering column, whose FTRAN image ftranColumn left in w.
func (bv *bounded) stepBasics(theta, dir float64) {
	if theta == 0 {
		return
	}
	step := theta * dir
	if bv.wDense {
		for i := 0; i < bv.cf.m; i++ {
			if bv.w[i] != 0 {
				bv.xB[i] -= step * bv.w[i]
			}
		}
	} else {
		for _, i := range bv.wPat {
			bv.xB[i] -= step * bv.w[i]
		}
	}
}

// applyFlip moves nonbasic column q across its box without a basis
// change.
func (bv *bounded) applyFlip(q int, dir float64, theta float64) {
	bv.stepBasics(theta, dir)
	u := bv.cf.ub[q]
	if bv.atUpper[q] {
		bv.atUpper[q] = false
		bv.shiftRhsWork(q, u)
	} else {
		bv.atUpper[q] = true
		bv.shiftRhsWork(q, -u)
	}
	bv.flips++
}

// updatePricing folds one pivot (entering q, leaving row pr) into the
// reduced costs and devex weights; must run before applyPivot (it needs
// the pre-pivot basis and factors). The tableau row αᵀ = e_prᵀ·B⁻¹·A
// comes from a sparse BTRAN plus a CSR sweep over ρ's nonzero rows.
func (bv *bounded) updatePricing(pr, q int) {
	cf := bv.cf
	bv.btranRow(pr)

	if bv.sweepless {
		// Dual update only: y += g·ρ, after which every on-demand reduced
		// cost reflects the pivot. O(|ρ|) instead of a sweep over every
		// column the tableau row touches.
		g := bv.dAt(q) / bv.w[pr]
		if bv.rhoDense {
			for i, r := range bv.rho {
				if r != 0 {
					bv.y[i] += g * r
				}
			}
		} else {
			for _, i := range bv.rhoPat {
				bv.y[i] += g * bv.rho[i]
			}
		}
		return
	}

	bv.touched = bv.touched[:0]
	sweep := func(i int, r float64) {
		for p := cf.rowPtr[i]; p < cf.rowPtr[i+1]; p++ {
			j := cf.colIdx[p]
			if bv.alphaV[j] == 0 {
				bv.touched = append(bv.touched, j)
			}
			bv.alphaV[j] += r * cf.rowVal[p]
		}
	}
	if bv.rhoDense {
		for i, r := range bv.rho {
			if r != 0 {
				sweep(i, r)
			}
		}
	} else {
		for _, i := range bv.rhoPat {
			if r := bv.rho[i]; r != 0 {
				sweep(int(i), r)
			}
		}
	}

	wr := bv.w[pr]
	g := bv.d[q] / wr
	gq := bv.gamma[q]
	for _, j := range bv.touched {
		a := bv.alphaV[j]
		bv.alphaV[j] = 0
		if a == 0 || bv.basisPos[j] >= 0 {
			continue
		}
		bv.d[j] -= g * a
		t := a / wr
		if s := t * t * gq; s > bv.gamma[j] {
			bv.gamma[j] = s
		}
	}
	l := bv.basis[pr]
	bv.d[l] = -g
	if gl := gq / (wr * wr); gl > 1 {
		bv.gamma[l] = gl
	} else {
		bv.gamma[l] = 1
	}
	bv.d[q] = 0
	if bv.gamma[l] > 1e10 || gq > 1e10 {
		bv.resetDevex()
	}
}

// applyPivot executes the basis change for entering q (direction dir)
// against leaving row pr with step theta.
func (bv *bounded) applyPivot(pr, q int, dir, theta float64, leaveAtUp bool) {
	bv.stepBasics(theta, dir)
	if dir > 0 {
		bv.xB[pr] = theta
	} else {
		bv.xB[pr] = bv.cf.ub[q] - theta
	}

	// Record the eta from the raw transformed column, appended to the
	// arena. Each window is capped at its own length, so an append to one
	// can never write into the next.
	start := len(bv.etaIdx)
	if bv.wDense {
		for i, v := range bv.w {
			if v != 0 && i != pr {
				bv.etaIdx = append(bv.etaIdx, int32(i))
				bv.etaVal = append(bv.etaVal, v)
			}
		}
	} else {
		for _, i := range bv.wPat {
			if v := bv.w[i]; v != 0 && int(i) != pr {
				bv.etaIdx = append(bv.etaIdx, i)
				bv.etaVal = append(bv.etaVal, v)
			}
		}
	}
	end := len(bv.etaIdx)
	bv.etas = append(bv.etas, eta{
		r:    pr,
		diag: bv.w[pr],
		idx:  bv.etaIdx[start:end:end],
		val:  bv.etaVal[start:end:end],
	})
	bv.etaNNZ += end - start

	l := bv.basis[pr]
	bv.basisPos[l] = -1
	if leaveAtUp && !math.IsInf(bv.cf.ub[l], 1) {
		bv.atUpper[l] = true
		bv.shiftRhsWork(l, -bv.cf.ub[l])
	} else {
		bv.atUpper[l] = false
	}
	if bv.atUpper[q] {
		// The entering column stops contributing its upper bound to the
		// right-hand side once it is basic.
		bv.atUpper[q] = false
		bv.shiftRhsWork(q, bv.cf.ub[q])
	}
	bv.basis[pr] = q
	bv.basisPos[q] = pr
}

func (bv *bounded) needRefactor() bool {
	return len(bv.etas) >= refactorEvery || bv.etaNNZ > 2*bv.lu.NNZ()+4*bv.cf.m
}

// runPhase drives pivots for one cost vector until optimality,
// unboundedness, or the shared iteration budget runs out.
func (bv *bounded) runPhase(cost []float64, barArt, barArtificialRatio bool) (Status, error) {
	tol := bv.opts.Tol
	const stallLimit = 64
	stall := 0
	bv.resetDevex()
	bv.refreshPricing(cost)
	for {
		if ctxErr(bv.opts.ctx) != nil {
			return StatusCanceled, nil
		}
		if bv.iters >= bv.opts.MaxIterations {
			return StatusIterLimit, nil
		}
		bland := stall >= stallLimit
		q, dir := bv.pickEntering(barArt, tol, bland)
		if q < 0 {
			// Optimality must hold on freshly recomputed reduced costs over
			// a fresh factorization, confirmed by a full scan.
			if len(bv.etas) == 0 && bv.priceConfirmOptimal(barArt, tol) {
				return StatusOptimal, nil
			}
			if err := bv.refactorize(); err != nil {
				return 0, err
			}
			bv.recomputeXB()
			bv.refreshPricing(cost)
			if q, dir = bv.pickEnteringFull(barArt, tol); q < 0 {
				return StatusOptimal, nil
			}
		}

		bv.ftranColumn(q)
		rr := bv.ratioTest(q, dir, bland, barArtificialRatio, tol)
		if rr.unboundedOK {
			// An unbounded verdict is only trusted on a fresh
			// factorization: on the massively degenerate design LPs a
			// stale eta file can distort w enough to hide every blocking
			// row.
			if len(bv.etas) > 0 {
				if err := bv.refactorize(); err != nil {
					return 0, err
				}
				bv.recomputeXB()
				bv.refreshPricing(cost)
				continue
			}
			return StatusUnbounded, nil
		}
		if rr.flip {
			bv.applyFlip(q, dir, rr.theta)
			bv.iters++
			if rr.theta <= tol {
				stall++
			} else {
				stall = 0
			}
			continue
		}
		pr := rr.pr
		if !rr.forced && math.Abs(bv.w[pr]) < 1e-7 && len(bv.etas) > 0 {
			// Tiny pivot on a stale eta file: refactorize and retry the
			// whole step with honest numbers.
			if err := bv.refactorize(); err != nil {
				return 0, err
			}
			bv.recomputeXB()
			bv.refreshPricing(cost)
			continue
		}

		theta := 0.0
		if !rr.forced {
			theta = rr.theta
			if theta < 0 {
				theta = 0
			}
		}
		bv.updatePricing(pr, q)
		bv.applyPivot(pr, q, dir, theta, rr.leaveAtUp)
		bv.iters++
		if theta <= tol {
			stall++
		} else {
			stall = 0
		}
		if bv.needRefactor() {
			if err := bv.refactorize(); err != nil {
				return 0, err
			}
			bv.recomputeXB()
			bv.refreshPricing(cost)
		}
	}
}

// priceConfirmOptimal does the full improving-column scan that partial
// pricing may have skipped.
func (bv *bounded) priceConfirmOptimal(barArt bool, tol float64) bool {
	q, _ := bv.pickEnteringFull(barArt, tol)
	return q < 0
}

// pickEnteringFull is pickEntering with the rotation disabled: a full
// deterministic scan, used for optimality confirmation.
func (bv *bounded) pickEnteringFull(barArt bool, tol float64) (int, float64) {
	best, bestJ, bestDir := 0.0, -1, 0.0
	for j := 0; j < bv.cf.totalCols; j++ {
		if barArt && bv.cf.isArtificial(j) {
			continue
		}
		d, dj, ok := bv.improvingDir(j, tol)
		if !ok {
			continue
		}
		if s := d * d / bv.gamma[j]; s > best {
			best, bestJ, bestDir = s, j, dj
		}
	}
	return bestJ, bestDir
}

// evictArtificials pivots zero-valued basic artificials out after phase
// 1 (rows whose artificial cannot be replaced are redundant and keep it
// basic at zero, barred by the phase-2 ratio guard).
func (bv *bounded) evictArtificials() error {
	cf := bv.cf
	tol := math.Sqrt(bv.opts.Tol)
	for i := 0; i < cf.m; i++ {
		if !cf.isArtificial(bv.basis[i]) {
			continue
		}
		if ctxErr(bv.opts.ctx) != nil {
			return canceledErr(bv.opts.ctx)
		}
		bv.btranRow(i)
		rowAt := func(j int) float64 {
			var v float64
			idx, val := cf.column(j)
			if bv.rhoDense {
				for p, r := range idx {
					v += bv.rho[r] * val[p]
				}
			} else {
				for p, r := range idx {
					if bv.rho[r] != 0 {
						v += bv.rho[r] * val[p]
					}
				}
			}
			return v
		}
		for j := 0; j < cf.artStart; j++ {
			if bv.basisPos[j] >= 0 || bv.fixed(j) {
				continue
			}
			v := rowAt(j)
			if math.Abs(v) <= tol {
				continue
			}
			bv.ftranColumn(j)
			dir := 1.0
			if bv.atUpper[j] {
				dir = -1
			}
			theta := bv.xB[i] / (bv.w[i] * dir)
			if theta < 0 {
				theta = 0
			}
			bv.applyPivot(i, j, dir, theta, false)
			if len(bv.etas) >= refactorEvery {
				if err := bv.refactorize(); err != nil {
					return err
				}
				bv.recomputeXB()
			}
			break
		}
	}
	return nil
}

func (bv *bounded) phase2Cost() []float64 {
	cost := make([]float64, bv.cf.totalCols)
	for v := 0; v < bv.cf.nStruct; v++ {
		c := bv.model.obj[v]
		if bv.model.sense == Maximize {
			c = -c
		}
		cost[v] = c
	}
	return cost
}

// feasibleXB checks the basic values against both ends of their boxes.
func (bv *bounded) feasibleXB(tol float64) bool {
	for i, v := range bv.xB {
		if v < -tol {
			return false
		}
		if u := bv.cf.ub[bv.basis[i]]; !math.IsInf(u, 1) && v > u+tol {
			return false
		}
	}
	return true
}

// finish restores the true right-hand sides, refactorizes, recomputes
// the basic values exactly, and extracts the solution and duals.
func (bv *bounded) finish(cost []float64) (*Solution, error) {
	copy(bv.b, bv.trueB)
	bv.computeRhsWork()
	if err := bv.refactorize(); err != nil {
		return nil, err
	}
	bv.recomputeXB()
	if !bv.feasibleXB(1e-7) {
		return nil, errRestoreInfeasible
	}

	sol := &Solution{
		Status:           StatusOptimal,
		X:                make([]float64, bv.cf.nStruct),
		Iterations:       bv.iters,
		BoundFlips:       bv.flips,
		Refactorizations: bv.refacts,
	}
	for j := 0; j < bv.cf.nStruct; j++ {
		var v float64
		if pos := bv.basisPos[j]; pos >= 0 {
			v = bv.xB[pos]
		} else if bv.atUpper[j] {
			v = bv.cf.ub[j]
		}
		if bv.cf.shift != nil {
			v += bv.cf.shift[j]
		}
		sol.X[j] = v
	}
	bv.computeDuals(cost)
	sol.Duals = make([]float64, bv.cf.m)
	for i := 0; i < bv.cf.m; i++ {
		y := bv.y[i] / bv.cf.rowScale[i]
		if bv.model.sense == Maximize {
			y = -y
		}
		sol.Duals[i] = y
	}
	return sol, nil
}

// run executes the full two-phase solve.
func (bv *bounded) run() (*Solution, error) {
	bv.computeRhsWork()
	if err := bv.refactorize(); err != nil {
		return nil, err
	}
	bv.recomputeXB()

	needPhase1 := false
	cost1 := make([]float64, bv.cf.totalCols)
	for _, j := range bv.basis {
		if bv.cf.isArtificial(j) {
			cost1[j] = 1
			needPhase1 = true
		}
	}
	if needPhase1 {
		st, err := bv.runPhase(cost1, false, false)
		if err != nil {
			return nil, err
		}
		switch st {
		case StatusCanceled:
			return &Solution{Status: StatusCanceled, Iterations: bv.iters}, canceledErr(bv.opts.ctx)
		case StatusIterLimit:
			return &Solution{Status: StatusIterLimit, Iterations: bv.iters}, ErrIterationLimit
		case StatusUnbounded:
			return &Solution{Status: StatusInfeasible, Iterations: bv.iters},
				errors.Join(ErrInfeasible, errors.New("phase 1 reported unbounded"))
		}
		var z1 float64
		for i, j := range bv.basis {
			if bv.cf.isArtificial(j) {
				z1 += bv.xB[i]
			}
		}
		if z1 > math.Sqrt(bv.opts.Tol) {
			return &Solution{Status: StatusInfeasible, Iterations: bv.iters},
				errors.Join(ErrInfeasible, errors.New("phase-1 objective nonzero"))
		}
		if err := bv.evictArtificials(); err != nil {
			return nil, err
		}
	}

	cost2 := bv.phase2Cost()
	st, err := bv.runPhase(cost2, true, true)
	if err != nil {
		return nil, err
	}
	switch st {
	case StatusCanceled:
		return &Solution{Status: StatusCanceled, Iterations: bv.iters}, canceledErr(bv.opts.ctx)
	case StatusIterLimit:
		return &Solution{Status: StatusIterLimit, Iterations: bv.iters}, ErrIterationLimit
	case StatusUnbounded:
		return &Solution{Status: StatusUnbounded, Iterations: bv.iters}, ErrUnbounded
	}
	return bv.finish(cost2)
}

// shiftToFeasible clamps every out-of-box basic value into its box and
// folds the matching B·Δ into the working RHS, so the current basis is
// exactly feasible for the shifted problem. Returns the total absolute
// violation absorbed.
func (bv *bounded) shiftToFeasible() float64 {
	var total float64
	for i, v := range bv.xB {
		j := bv.basis[i]
		target := v
		if v < 0 {
			target = 0
		} else if u := bv.cf.ub[j]; !math.IsInf(u, 1) && v > u {
			target = u
		}
		if target == v {
			continue
		}
		delta := target - v
		total += math.Abs(delta)
		idx, val := bv.cf.column(j)
		for p, r := range idx {
			bv.b[r] += delta * val[p]
		}
		bv.xB[i] = target
	}
	bv.computeRhsWork()
	return total
}

// warmRepairRounds bounds the shift/optimise/restore repair loop for
// warm starts whose basis is not primal feasible as given.
const warmRepairRounds = 50

// dualRepairPivots bounds the dual-simplex repair pass. Warm-start
// violations are few and each pivot retires at least the worst one, so
// a run that needs more than this is not converging.
const dualRepairPivots = 2000

// dualRepair removes primal infeasibilities from a dual-feasible basis
// with bounded-variable dual simplex pivots against the current working
// right-hand sides. This is the repair the RHS shift cannot perform:
// once the basis is optimal for the shifted problem, restoring the true
// data reinstates the identical violations (reduced costs do not depend
// on b), and only a basis change can move them. Each iteration picks
// the most-violated basic variable as the leaving row, prices the
// tableau row over the CSR mirror, and runs the standard dual ratio
// test (smallest |d_j/α_rj| keeps every other column dual feasible,
// largest |α_rj| among near-ties keeps the pivot stable). Returns true
// once the basic values are primal feasible; false when a violated row
// has no eligible column (primal infeasible), a pivot collapses
// numerically, or the pivot budget runs out.
func (bv *bounded) dualRepair(cost []float64) bool {
	cf := bv.cf
	tol := bv.opts.Tol
	const pivotTol = 1e-9
	bv.computeDuals(cost)
	for piv := 0; piv < dualRepairPivots; piv++ {
		if ctxErr(bv.opts.ctx) != nil {
			return false
		}

		// Leaving row: the largest box violation among the basics.
		r, above := -1, false
		worst := 1e-9
		for i, v := range bv.xB {
			if -v > worst {
				worst, r, above = -v, i, false
				continue
			}
			if u := cf.ub[bv.basis[i]]; !math.IsInf(u, 1) && v-u > worst {
				worst, r, above = v-u, i, true
			}
		}
		if r < 0 {
			return true
		}

		// Tableau row α = e_rᵀ·B⁻¹·A over ρ's nonzero rows.
		bv.btranRow(r)
		bv.touched = bv.touched[:0]
		sweep := func(i int, rv float64) {
			for p := cf.rowPtr[i]; p < cf.rowPtr[i+1]; p++ {
				j := cf.colIdx[p]
				if bv.alphaV[j] == 0 {
					bv.touched = append(bv.touched, j)
				}
				bv.alphaV[j] += rv * cf.rowVal[p]
			}
		}
		if bv.rhoDense {
			for i, rv := range bv.rho {
				if rv != 0 {
					sweep(i, rv)
				}
			}
		} else {
			for _, i := range bv.rhoPat {
				if rv := bv.rho[i]; rv != 0 {
					sweep(int(i), rv)
				}
			}
		}

		// Dual ratio test. sgn orients the row so eligibility reads the
		// same for both violation directions: entering at-lower needs
		// sgn·α < 0, entering at-upper needs sgn·α > 0.
		sgn := 1.0
		if above {
			sgn = -1
		}
		bestQ, bestRatio, bestMag := -1, math.Inf(1), 0.0
		for _, j := range bv.touched {
			a := bv.alphaV[j]
			bv.alphaV[j] = 0
			if a == 0 || bv.basisPos[int(j)] >= 0 || bv.fixed(int(j)) || cf.isArtificial(int(j)) {
				continue
			}
			sa := sgn * a
			up := bv.atUpper[j]
			if (!up && sa >= -tol) || (up && sa <= tol) {
				continue
			}
			mag := math.Abs(a)
			ratio := math.Abs(bv.reducedCost(cost, int(j))) / mag
			switch {
			case ratio < bestRatio*(1-1e-9)-tol:
				bestQ, bestRatio, bestMag = int(j), ratio, mag
			case ratio <= bestRatio*(1+1e-9)+tol && mag > bestMag:
				bestQ, bestRatio, bestMag = int(j), ratio, mag
			}
		}
		if bestQ < 0 {
			// No column can absorb the violation: with exact duals this
			// certifies primal infeasibility, but a warm repair only needs
			// to know the basis cannot be fixed here.
			return false
		}

		bv.ftranColumn(bestQ)
		if math.Abs(bv.w[r]) < pivotTol {
			if len(bv.etas) > 0 {
				// Stale eta file distorting the pivot: retry on honest
				// numbers.
				if err := bv.refactorize(); err != nil {
					return false
				}
				bv.recomputeXB()
				bv.computeDuals(cost)
				continue
			}
			return false
		}

		// Dual update first (needs the pre-pivot ρ and reduced cost):
		// y += (d_q/α_rq)·ρ keeps y the duals of the post-pivot basis.
		g := bv.reducedCost(cost, bestQ) / bv.w[r]
		if bv.rhoDense {
			for i, rv := range bv.rho {
				if rv != 0 {
					bv.y[i] += g * rv
				}
			}
		} else {
			for _, i := range bv.rhoPat {
				bv.y[i] += g * bv.rho[i]
			}
		}

		dir := 1.0
		if bv.atUpper[bestQ] {
			dir = -1
		}
		target := 0.0
		if above {
			target = cf.ub[bv.basis[r]]
		}
		theta := (bv.xB[r] - target) / (bv.w[r] * dir)
		if theta < 0 {
			theta = 0
		}
		bv.applyPivot(r, bestQ, dir, theta, above)
		bv.iters++
		if bv.needRefactor() {
			if err := bv.refactorize(); err != nil {
				return false
			}
			bv.recomputeXB()
			bv.computeDuals(cost)
		}
	}
	return false
}

// runWarm solves from a caller-provided basis (all nonbasics start at
// their lower bounds). ok=false sends the caller to a cold start.
//
// A hinted basis is rarely primal feasible exactly as given — an
// extrapolated advanced basis lands near the optimal vertex with a
// sprinkling of basic values outside their boxes. Discarding it would
// send the caller to a cold start that is orders of magnitude slower on
// the models that carry hints, so instead the violations are shifted
// into the working RHS (the same device the anti-degeneracy
// perturbation uses), the shifted problem is optimised, and the true
// RHS is restored; any residual violations at the new vertex shrink
// geometrically, and the loop repeats until the restore lands feasible
// or the violation stops decreasing.
func (bv *bounded) runWarm(warm []int) (sol *Solution, ok bool) {
	cf := bv.cf
	if len(warm) != cf.m {
		return nil, false
	}
	seen := make([]bool, cf.totalCols)
	for _, j := range warm {
		if j < 0 || j >= cf.totalCols || cf.isArtificial(j) || seen[j] {
			return nil, false
		}
		seen[j] = true
	}
	for j := range bv.basisPos {
		bv.basisPos[j] = -1
		bv.atUpper[j] = false
	}
	copy(bv.basis, warm)
	for i, j := range bv.basis {
		bv.basisPos[j] = i
	}
	bv.computeRhsWork()
	if err := bv.refactorize(); err != nil {
		return nil, false
	}
	bv.recomputeXB()

	cost2 := bv.phase2Cost()
	prevViol := math.Inf(1)
	for round := 0; round <= warmRepairRounds; round++ {
		if !bv.feasibleXB(1e-7) {
			viol := bv.shiftToFeasible()
			if viol >= prevViol {
				// The shift has stalled: the basis is already optimal for
				// the shifted problem, so restoring the true data
				// reinstates the identical violations. That state — dual
				// feasible, primal infeasible — is exactly what the dual
				// simplex removes; drop the shift and pivot the violations
				// out against the true right-hand sides.
				copy(bv.b, bv.trueB)
				bv.computeRhsWork()
				if err := bv.refactorize(); err != nil {
					return nil, false
				}
				bv.recomputeXB()
				if !bv.dualRepair(cost2) {
					return nil, false
				}
				prevViol = math.Inf(1)
			} else {
				prevViol = viol
			}
		}
		st, err := bv.runPhase(cost2, true, true)
		if err != nil || st != StatusOptimal {
			return nil, false
		}
		sol, err = bv.finish(cost2)
		if err == nil {
			return sol, true
		}
		if !errors.Is(err, errRestoreInfeasible) {
			return nil, false
		}
		// finish restored the true RHS on a fresh factorization and
		// recomputed xB; loop to shift the remaining violations away.
	}
	return nil, false
}

// solveBounded runs the bounded-variable revised simplex on the
// canonical form: started from the basis warm when it applies (the dual
// route's crash-seeded start; nil for none), otherwise the perturbed
// two-phase solve with an unperturbed retry.
func (m *Model) solveBounded(cf *canonForm, opts Options, warm []int) (*Solution, error) {
	if cf.m == 0 {
		return nil, errSparseFallback
	}
	if warm != nil {
		// Warm runs carry the same anti-degeneracy perturbation as cold
		// ones: a crash basis can still be thousands of pivots from the
		// optimum, and finish() restores the true data either way. A
		// basis that is already optimal re-solves in zero pivots
		// regardless (reduced costs do not depend on the right-hand
		// side).
		bv := newBounded(m, cf, opts, true)
		if sol, ok := bv.runWarm(warm); ok {
			return sol, nil
		}
		if ctxErr(opts.ctx) != nil {
			return &Solution{Status: StatusCanceled}, canceledErr(opts.ctx)
		}
	}
	bv := newBounded(m, cf, opts, true)
	sol, err := bv.run()
	if errors.Is(err, errRestoreInfeasible) {
		bv = newBounded(m, cf, opts, false)
		sol, err = bv.run()
		if errors.Is(err, errRestoreInfeasible) {
			return nil, errSparseFallback
		}
	}
	return sol, err
}
