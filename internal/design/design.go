// Package design finds optimal constrained mechanisms by linear
// programming, following §III and §IV of the paper: the BASICDP
// constraints (entries are probabilities, columns sum to one, α-DP ratio
// bounds along rows) plus any subset of the structural properties of
// §IV-A encoded as linear constraints, minimising an O_{p,Σ} objective.
//
// A design with the Symmetry property can optionally be solved on a
// reduced variable set that identifies ρ[i][j] with ρ[n−i][n−j]
// (justified by Theorem 1), roughly halving the LP and making the paper's
// parameter sweeps tractable.
package design

import (
	"context"
	"errors"
	"fmt"
	"math"

	"privcount/internal/core"
	"privcount/internal/lp"
	"privcount/internal/mat"
)

// Objective selects the loss to minimise: Σ_j w_j Σ_i |i−j|^p ρ[i][j],
// with the L0 convention at p = 0 (wrong answers cost 1). A nil Weights
// slice means the uniform prior.
type Objective struct {
	P       float64
	Weights []float64
}

// L0Objective is the paper's default objective.
var L0Objective = Objective{P: 0}

// Problem specifies one constrained mechanism-design instance.
type Problem struct {
	N     int
	Alpha float64
	// Props is the set of structural properties to enforce on top of
	// BASICDP. Zero means the unconstrained §III problem.
	Props core.PropertySet
	// Objective defaults to L0Objective when zero.
	Objective Objective
	// ReduceSymmetry solves on the folded variable set when Symmetry is
	// requested (or implied); it requires symmetric weights. It is an
	// optimisation only — results agree with the full LP within tolerance.
	ReduceSymmetry bool
}

// Result carries the designed mechanism along with LP diagnostics.
type Result struct {
	Mechanism *Mechanism
	// Cost is the objective value of the LP (in the problem's loss, not
	// rescaled; use Mechanism.L0 etc. for the paper's rescaled scores).
	Cost       float64
	Iterations int
	Variables  int
	Rows       int
}

// Mechanism aliases core.Mechanism for readability of this package's API.
type Mechanism = core.Mechanism

func (p Problem) objective() Objective {
	o := p.Objective
	if o.Weights == nil {
		o.Weights = core.UniformWeights(p.N)
	}
	return o
}

// penalty returns the objective coefficient for cell (i, j).
func penalty(p float64, i, j int) float64 {
	if p == 0 {
		if i == j {
			return 0
		}
		return 1
	}
	return math.Pow(math.Abs(float64(i-j)), p)
}

// symmetricWeights reports whether w[j] == w[n−j] for all j.
func symmetricWeights(w []float64) bool {
	for j, k := 0, len(w)-1; j < k; j, k = j+1, k-1 {
		if math.Abs(w[j]-w[k]) > 1e-12 {
			return false
		}
	}
	return true
}

// Solve builds and optimises the LP for the problem, returning the
// optimal mechanism. Properties implied by requested ones are pruned from
// the constraint set (e.g. RH rows are dropped when RM is requested), so
// cost-equivalent requests produce identical LPs.
func Solve(p Problem) (*Result, error) {
	return SolveCtx(context.Background(), p)
}

// SolveCtx is Solve under a context: the LP engine checks ctx at every
// pivot and factorization boundary, so cancelling it abandons the solve
// promptly with an error wrapping lp.ErrCanceled. Every solve starts
// cold from the problem's crash hint, so the result is a function of the
// problem alone: no earlier solve, finished or cancelled, can change it.
func SolveCtx(ctx context.Context, p Problem) (*Result, error) {
	if p.N < 1 {
		return nil, fmt.Errorf("design: n=%d, want >= 1", p.N)
	}
	if p.Alpha <= 0 || p.Alpha >= 1 {
		return nil, fmt.Errorf("design: alpha=%v, want 0 < alpha < 1", p.Alpha)
	}
	obj := p.objective()
	if len(obj.Weights) != p.N+1 {
		return nil, fmt.Errorf("design: %d weights for n=%d", len(obj.Weights), p.N)
	}

	reduce := p.ReduceSymmetry && p.Props&core.Symmetry != 0
	if reduce && !symmetricWeights(obj.Weights) {
		return nil, fmt.Errorf("design: ReduceSymmetry requires symmetric weights")
	}

	if bandEligible(p, obj, reduce) {
		r, err := solveBand(ctx, p, obj)
		if err == nil {
			return r, nil
		}
		if errors.Is(err, lp.ErrCanceled) {
			return nil, err
		}
		// Any other band failure — a depth that stopped fitting, a
		// numerically hostile deep band — falls through to the full LP,
		// which stays the correctness path of record.
	}

	b := newBuilder(p.N, p.Alpha, reduce)
	if err := b.addBasicDP(); err != nil {
		return nil, err
	}
	if err := b.addProperties(p.Props); err != nil {
		return nil, err
	}
	for _, cell := range b.cells() {
		i, j := cell.i, cell.j
		c := obj.Weights[j] * penalty(obj.P, i, j)
		if c != 0 {
			v := b.varOf(i, j)
			if err := b.model.SetObjective(v, b.model.ObjectiveCoeff(v)+c); err != nil {
				return nil, err
			}
		}
	}

	crash := b.finishModel()
	sol, err := b.model.SolveCtx(ctx, lp.Options{CrashRows: crash})
	if err != nil {
		return nil, fmt.Errorf("design: n=%d alpha=%g props=%s: %w",
			p.N, p.Alpha, core.PropertySetString(p.Props), err)
	}

	m, err := b.extract(sol, p)
	if err != nil {
		return nil, err
	}
	return &Result{
		Mechanism:  m,
		Cost:       sol.Objective,
		Iterations: sol.Iterations,
		Variables:  b.model.NumVariables(),
		Rows:       b.model.NumConstraints(),
	}, nil
}

// cell is one matrix position.
type cell struct{ i, j int }

// builder assembles the LP, optionally folding symmetric cells onto a
// single variable.
type builder struct {
	n      int
	alpha  float64
	reduce bool
	model  *lp.Model
	vars   map[cell]int
	// crash collects the rows expected tight at a GM-like optimum — the
	// column sums and the away-from-diagonal α-ratio rows — which
	// together pick out exactly one constraint per variable: the
	// geometric-mechanism vertex. Passed to the LP layer as
	// Options.CrashRows, it starts the dual simplex an order of magnitude
	// closer to the constrained optimum than a cold basis; a hint the
	// solver cannot use is ignored.
	crash []int
}

func newBuilder(n int, alpha float64, reduce bool) *builder {
	b := &builder{
		n:      n,
		alpha:  alpha,
		reduce: reduce,
		model:  lp.NewModel(fmt.Sprintf("design-n%d", n), lp.Minimize),
		vars:   make(map[cell]int, (n+1)*(n+1)),
	}
	for i := 0; i <= n; i++ {
		for j := 0; j <= n; j++ {
			r := b.rep(i, j)
			if _, ok := b.vars[r]; !ok {
				b.vars[r] = b.model.AddVariable(fmt.Sprintf("r_%d_%d", r.i, r.j))
			}
		}
	}
	return b
}

// rep returns the canonical representative of cell (i, j) under the
// centro-symmetry identification when folding is enabled.
func (b *builder) rep(i, j int) cell {
	if !b.reduce {
		return cell{i, j}
	}
	mirror := cell{b.n - i, b.n - j}
	me := cell{i, j}
	if mirror.i < me.i || (mirror.i == me.i && mirror.j < me.j) {
		return mirror
	}
	return me
}

func (b *builder) varOf(i, j int) int { return b.vars[b.rep(i, j)] }

// cells lists every matrix position (not just representatives) so
// objective coefficients accumulate over folded cells.
func (b *builder) cells() []cell {
	out := make([]cell, 0, (b.n+1)*(b.n+1))
	for i := 0; i <= b.n; i++ {
		for j := 0; j <= b.n; j++ {
			out = append(out, cell{i, j})
		}
	}
	return out
}

// addBasicDP adds the §III constraints: column sums (Eq 5) and the α
// ratio bounds (Eq 6). Non-negativity is native to the solver and upper
// bounds are implied by the column sums. The sums and the ratio rows
// pointing away from the diagonal (the ones a geometric mechanism makes
// tight) are recorded as crash hints for the solver.
func (b *builder) addBasicDP() error {
	n, alpha := b.n, b.alpha
	for j := 0; j <= n; j++ {
		terms := make([]lp.Term, 0, n+1)
		for i := 0; i <= n; i++ {
			terms = append(terms, lp.Term{Var: b.varOf(i, j), Coeff: 1})
		}
		row, err := b.model.AddConstraint(fmt.Sprintf("sum_%d", j), terms, lp.EQ, 1)
		if err != nil {
			return err
		}
		b.crash = append(b.crash, row)
	}
	for i := 0; i <= n; i++ {
		for j := 0; j < n; j++ {
			// ρ[i][j] ≥ α·ρ[i][j+1]  ⇒  α·ρ[i][j+1] − ρ[i][j] ≤ 0
			row, err := b.model.AddConstraint(
				fmt.Sprintf("dpA_%d_%d", i, j),
				[]lp.Term{{Var: b.varOf(i, j+1), Coeff: alpha}, {Var: b.varOf(i, j), Coeff: -1}},
				lp.LE, 0)
			if err != nil {
				return err
			}
			if j < i {
				b.crash = append(b.crash, row) // left tail decays at rate α
			}
			// ρ[i][j+1] ≥ α·ρ[i][j]
			row, err = b.model.AddConstraint(
				fmt.Sprintf("dpB_%d_%d", i, j),
				[]lp.Term{{Var: b.varOf(i, j), Coeff: alpha}, {Var: b.varOf(i, j+1), Coeff: -1}},
				lp.LE, 0)
			if err != nil {
				return err
			}
			if j >= i {
				b.crash = append(b.crash, row) // right tail decays at rate α
			}
		}
	}
	return nil
}

// finishModel dedupes the folded model's duplicate rows (remapping the
// crash hints through the surviving indices) and returns the solver
// options carrying the hints.
func (b *builder) finishModel() []int {
	if b.reduce {
		_, remap := b.model.DedupeConstraints()
		seen := make(map[int]bool, len(b.crash))
		kept := b.crash[:0]
		for _, r := range b.crash {
			nr := remap[r]
			if !seen[nr] {
				seen[nr] = true
				kept = append(kept, nr)
			}
		}
		b.crash = kept
	}
	return b.crash
}

// addProperties encodes the requested structural properties, pruning ones
// implied by stronger requested ones.
func (b *builder) addProperties(ps core.PropertySet) error {
	n := b.n
	effective := ps
	if effective&core.RowMonotone != 0 {
		effective &^= core.RowHonesty
	}
	if effective&core.ColumnMonotone != 0 {
		effective &^= core.ColumnHonesty
	}
	if ps&(core.ColumnMonotone|core.ColumnHonesty) != 0 {
		effective &^= core.WeakHonesty
	}

	addLE := func(name string, hi, lo cellRef) error {
		_, err := b.model.AddConstraint(name,
			[]lp.Term{{Var: b.varOf(hi.i, hi.j), Coeff: 1}, {Var: b.varOf(lo.i, lo.j), Coeff: -1}},
			lp.LE, 0)
		return err
	}

	if effective&core.RowHonesty != 0 {
		for i := 0; i <= n; i++ {
			for j := 0; j <= n; j++ {
				if i == j {
					continue
				}
				if err := addLE(fmt.Sprintf("rh_%d_%d", i, j), cellRef{i, j}, cellRef{i, i}); err != nil {
					return err
				}
			}
		}
	}
	if effective&core.RowMonotone != 0 {
		for i := 0; i <= n; i++ {
			for j := 1; j <= i; j++ {
				if err := addLE(fmt.Sprintf("rmL_%d_%d", i, j), cellRef{i, j - 1}, cellRef{i, j}); err != nil {
					return err
				}
			}
			for j := i; j < n; j++ {
				if err := addLE(fmt.Sprintf("rmR_%d_%d", i, j), cellRef{i, j + 1}, cellRef{i, j}); err != nil {
					return err
				}
			}
		}
	}
	if effective&core.ColumnHonesty != 0 {
		for j := 0; j <= n; j++ {
			for i := 0; i <= n; i++ {
				if i == j {
					continue
				}
				if err := addLE(fmt.Sprintf("ch_%d_%d", i, j), cellRef{i, j}, cellRef{j, j}); err != nil {
					return err
				}
			}
		}
	}
	if effective&core.ColumnMonotone != 0 {
		for j := 0; j <= n; j++ {
			for i := 1; i <= j; i++ {
				if err := addLE(fmt.Sprintf("cmU_%d_%d", i, j), cellRef{i - 1, j}, cellRef{i, j}); err != nil {
					return err
				}
			}
			for i := j; i < n; i++ {
				if err := addLE(fmt.Sprintf("cmD_%d_%d", i, j), cellRef{i + 1, j}, cellRef{i, j}); err != nil {
					return err
				}
			}
		}
	}
	if effective&core.Fairness != 0 {
		for i := 1; i <= n; i++ {
			if _, err := b.model.AddConstraint(fmt.Sprintf("fair_%d", i),
				[]lp.Term{{Var: b.varOf(i, i), Coeff: 1}, {Var: b.varOf(0, 0), Coeff: -1}},
				lp.EQ, 0); err != nil {
				return err
			}
		}
	}
	if effective&core.WeakHonesty != 0 {
		// The weak-honesty floor is a pure lower bound — exactly what the
		// bounded simplex absorbs without a constraint row.
		floor := 1 / float64(n+1)
		for i := 0; i <= n; i++ {
			if err := b.model.SetBounds(b.varOf(i, i), floor, math.Inf(1)); err != nil {
				return err
			}
		}
	}
	if effective&core.Symmetry != 0 && !b.reduce {
		for i := 0; i <= n; i++ {
			for j := 0; j <= n; j++ {
				mi, mj := n-i, n-j
				if mi < i || (mi == i && mj <= j) {
					continue
				}
				if _, err := b.model.AddConstraint(fmt.Sprintf("sym_%d_%d", i, j),
					[]lp.Term{{Var: b.varOf(i, j), Coeff: 1}, {Var: b.varOf(mi, mj), Coeff: -1}},
					lp.EQ, 0); err != nil {
					return err
				}
			}
		}
	}
	if effective&core.OutputDP != 0 {
		alpha := b.alpha
		for j := 0; j <= n; j++ {
			for i := 0; i < n; i++ {
				if _, err := b.model.AddConstraint(fmt.Sprintf("odpA_%d_%d", i, j),
					[]lp.Term{{Var: b.varOf(i+1, j), Coeff: alpha}, {Var: b.varOf(i, j), Coeff: -1}},
					lp.LE, 0); err != nil {
					return err
				}
				if _, err := b.model.AddConstraint(fmt.Sprintf("odpB_%d_%d", i, j),
					[]lp.Term{{Var: b.varOf(i, j), Coeff: alpha}, {Var: b.varOf(i+1, j), Coeff: -1}},
					lp.LE, 0); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

type cellRef struct{ i, j int }

// extract converts the LP solution into a validated Mechanism, repairing
// the tiny numeric drift a simplex basis can leave (clamping negatives of
// magnitude ≤ 1e-9 and renormalising columns).
func (b *builder) extract(sol *lp.Solution, p Problem) (*Mechanism, error) {
	n := b.n
	px := mat.NewDense(n+1, n+1)
	for i := 0; i <= n; i++ {
		for j := 0; j <= n; j++ {
			px.Set(i, j, sol.Value(b.varOf(i, j)))
		}
	}
	return finishMatrix(px, p)
}

// finishMatrix validates a candidate mechanism matrix (no negative mass
// beyond numeric drift, columns summing to one within tolerance), clamps
// and renormalises it, and wraps it as a Mechanism. Shared by the full
// LP extraction and the band-path stitch.
func finishMatrix(px *mat.Dense, p Problem) (*Mechanism, error) {
	n := p.N
	for i := 0; i <= n; i++ {
		for j := 0; j <= n; j++ {
			v := px.At(i, j)
			if v < 0 {
				if v < -1e-7 {
					return nil, fmt.Errorf("design: solution has negative probability %g at (%d,%d)", v, i, j)
				}
				px.Set(i, j, 0)
			}
		}
	}
	for j := 0; j <= n; j++ {
		var s float64
		for i := 0; i <= n; i++ {
			s += px.At(i, j)
		}
		if math.Abs(s-1) > 1e-6 {
			return nil, fmt.Errorf("design: column %d sums to %g", j, s)
		}
		for i := 0; i <= n; i++ {
			px.Set(i, j, px.At(i, j)/s)
		}
	}
	name := fmt.Sprintf("LP[%s]", core.PropertySetString(p.Props))
	return core.New(name, n, p.Alpha, px)
}
