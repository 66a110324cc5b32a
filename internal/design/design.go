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
	return solveLP(ctx, p, "design", nil)
}

// check validates p for the entry point named by label and returns its
// objective, uniform weights filled in, and whether to fold symmetric
// cells.
func (p Problem) check(label string) (Objective, bool, error) {
	if p.N < 1 {
		return Objective{}, false, fmt.Errorf("%s: n=%d, want >= 1", label, p.N)
	}
	if !(p.Alpha > 0 && p.Alpha < 1) {
		return Objective{}, false, fmt.Errorf("%s: alpha=%v, want 0 < alpha < 1", label, p.Alpha)
	}
	obj := p.objective()
	if len(obj.Weights) != p.N+1 {
		return Objective{}, false, fmt.Errorf("%s: %d weights for n=%d", label, len(obj.Weights), p.N)
	}
	reduce := p.ReduceSymmetry && p.Props&core.Symmetry != 0
	if reduce && !symmetricWeights(obj.Weights) {
		return Objective{}, false, fmt.Errorf("%s: ReduceSymmetry requires symmetric weights", label)
	}
	return obj, reduce, nil
}

// A poseFunc poses one design objective on a built BASICDP+property
// model: objective coefficients and, for minimax, the epigraph variable
// and rows. It returns the solver options the objective needs; the
// pipeline adds the builder's crash rows.
type poseFunc func(b *builder, obj Objective) lp.Options

// solveModel runs one design LP. Tests swap it to fingerprint the
// models the design layer poses.
var solveModel = (*lp.Model).SolveCtx

// solveLP is the one path every full design LP takes: validate the
// problem, build BASICDP (§III) plus the requested §IV-A property rows,
// pose the objective, dedupe a folded model, solve, and read the
// mechanism back. label names the entry point in errors. A nil pose
// means the problem's own O_{p,Σ} objective, which the band path also
// solves: a WM-shaped problem then tries that path first.
func solveLP(ctx context.Context, p Problem, label string, pose poseFunc) (*Result, error) {
	obj, reduce, err := p.check(label)
	if err != nil {
		return nil, err
	}
	if pose == nil {
		if bandEligible(p, obj, reduce) {
			r, err := solveBand(ctx, p, obj)
			if err == nil || errors.Is(err, lp.ErrCanceled) {
				return r, err
			}
			// Any other band failure — a depth that stopped fitting, a
			// numerically hostile deep band — falls through to the full
			// LP, which stays the correctness path of record.
		}
		pose = poseSum
	}
	b := newBuilder(p, reduce)
	opts := pose(b, obj)
	if b.err != nil {
		return nil, b.err
	}
	opts.CrashRows = b.finishModel()
	sol, err := solveModel(b.model, ctx, opts)
	if err != nil {
		return nil, fmt.Errorf("%s: n=%d alpha=%g props=%s: %w",
			label, p.N, p.Alpha, core.PropertySetString(p.Props), err)
	}
	m, err := b.extract(sol, p)
	if err != nil {
		return nil, err
	}
	return newResult(m, sol, b.model, sol.Objective), nil
}

// newResult wraps a designed mechanism with its LP's diagnostics.
func newResult(m *Mechanism, sol *lp.Solution, model *lp.Model, cost float64) *Result {
	return &Result{
		Mechanism:  m,
		Cost:       cost,
		Iterations: sol.Iterations,
		Variables:  model.NumVariables(),
		Rows:       model.NumConstraints(),
	}
}

// poseSum poses the O_{p,Σ} objective Σ_j w_j Σ_i |i−j|^p ρ[i][j].
func poseSum(b *builder, obj Objective) lp.Options {
	b.addObjective(func(i, j int) float64 { return obj.Weights[j] * penalty(obj.P, i, j) })
	return lp.Options{}
}

// builder assembles the design LP, optionally folding symmetric cells
// onto a single variable. Its rows and variables carry no names: the
// lp model renders them as c<k> and x<k> on read.
type builder struct {
	n      int
	alpha  float64
	reduce bool
	model  *lp.Model
	// v[i*(n+1)+j] is the variable of cell (i, j). Folding identifies a
	// cell with its mirror (n−i, n−j), which sits at the reversed index;
	// the earlier of the two in row-major order owns the variable.
	v []int
	// crash collects the rows expected tight at a GM-like optimum — the
	// column sums and the away-from-diagonal α-ratio rows — which
	// together pick out exactly one constraint per variable: the
	// geometric-mechanism vertex. Passed to the LP layer as
	// Options.CrashRows, it starts the dual simplex an order of magnitude
	// closer to the constrained optimum than a cold basis; a hint the
	// solver cannot use is ignored.
	crash []int
	// err is the first error the model refused an addition with; the
	// pipeline reports it before solving.
	err error
}

// newBuilder assembles BASICDP plus p's properties, the variables
// created in row-major order of their owning cells.
func newBuilder(p Problem, reduce bool) *builder {
	b := &builder{
		n:      p.N,
		alpha:  p.Alpha,
		reduce: reduce,
		model:  lp.NewModel(fmt.Sprintf("design-n%d", p.N), lp.Minimize),
		v:      make([]int, (p.N+1)*(p.N+1)),
	}
	for k := range b.v {
		if mirror := len(b.v) - 1 - k; reduce && mirror < k {
			b.v[k] = b.v[mirror]
		} else {
			b.v[k] = b.model.AddVariable("")
		}
	}
	b.addBasicDP()
	b.addProperties(p.Props)
	return b
}

func (b *builder) varOf(i, j int) int { return b.v[i*(b.n+1)+j] }

// note records err in b.err unless an earlier error is there.
func (b *builder) note(err error) {
	if b.err == nil {
		b.err = err
	}
}

// row adds the row Σ terms op rhs and returns its index.
func (b *builder) row(terms []lp.Term, op lp.Op, rhs float64) int {
	r, err := b.model.AddConstraint("", terms, op, rhs)
	b.note(err)
	return r
}

// pair adds the row ca·x_a + cc·x_c op 0 and returns its index.
func (b *builder) pair(a int, ca float64, c int, cc float64, op lp.Op) int {
	return b.row([]lp.Term{{Var: a, Coeff: ca}, {Var: c, Coeff: cc}}, op, 0)
}

// addObjective adds cost(i, j) to the objective coefficient of every
// cell's variable, so a folded variable collects its mirror's cost too.
func (b *builder) addObjective(cost func(i, j int) float64) {
	for i := 0; i <= b.n; i++ {
		for j := 0; j <= b.n; j++ {
			if c := cost(i, j); c != 0 {
				v := b.varOf(i, j)
				b.note(b.model.SetObjective(v, b.model.ObjectiveCoeff(v)+c))
			}
		}
	}
}

// addBasicDP adds the §III constraints: column sums (Eq 5) and the α
// ratio bounds (Eq 6). Non-negativity is native to the solver and upper
// bounds are implied by the column sums. The sums and the ratio rows
// pointing away from the diagonal (the ones a geometric mechanism makes
// tight) are recorded as crash hints for the solver.
func (b *builder) addBasicDP() {
	n, alpha := b.n, b.alpha
	for j := 0; j <= n; j++ {
		terms := make([]lp.Term, 0, n+1)
		for i := 0; i <= n; i++ {
			terms = append(terms, lp.Term{Var: b.varOf(i, j), Coeff: 1})
		}
		b.crash = append(b.crash, b.row(terms, lp.EQ, 1))
	}
	for i := 0; i <= n; i++ {
		for j := 0; j < n; j++ {
			// ρ[i][j] ≥ α·ρ[i][j+1]  ⇒  α·ρ[i][j+1] − ρ[i][j] ≤ 0
			r := b.pair(b.varOf(i, j+1), alpha, b.varOf(i, j), -1, lp.LE)
			if j < i {
				b.crash = append(b.crash, r) // left tail decays at rate α
			}
			// ρ[i][j+1] ≥ α·ρ[i][j]
			r = b.pair(b.varOf(i, j), alpha, b.varOf(i, j+1), -1, lp.LE)
			if j >= i {
				b.crash = append(b.crash, r) // right tail decays at rate α
			}
		}
	}
}

// finishModel dedupes the folded model's duplicate rows, remapping the
// crash hints through the surviving indices, and returns the hints.
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

// effectiveProps drops the requested properties that stronger requested
// ones imply: RM implies RH, CM implies CH, and either column property
// implies WH. addProperties encodes what is left, and the band path
// checks its shape on it.
func effectiveProps(ps core.PropertySet) core.PropertySet {
	e := ps
	if e&core.RowMonotone != 0 {
		e &^= core.RowHonesty
	}
	if e&core.ColumnMonotone != 0 {
		e &^= core.ColumnHonesty
	}
	if ps&(core.ColumnMonotone|core.ColumnHonesty) != 0 {
		e &^= core.WeakHonesty
	}
	return e
}

// addProperties encodes the requested structural properties, pruning ones
// implied by stronger requested ones.
func (b *builder) addProperties(ps core.PropertySet) {
	n, effective := b.n, effectiveProps(ps)
	le := func(hi, lo int) { b.pair(hi, 1, lo, -1, lp.LE) }
	if effective&core.RowHonesty != 0 {
		for i := 0; i <= n; i++ {
			for j := 0; j <= n; j++ {
				if i != j {
					le(b.varOf(i, j), b.varOf(i, i))
				}
			}
		}
	}
	if effective&core.RowMonotone != 0 {
		for i := 0; i <= n; i++ {
			for j := 1; j <= i; j++ {
				le(b.varOf(i, j-1), b.varOf(i, j))
			}
			for j := i; j < n; j++ {
				le(b.varOf(i, j+1), b.varOf(i, j))
			}
		}
	}
	if effective&core.ColumnHonesty != 0 {
		for j := 0; j <= n; j++ {
			for i := 0; i <= n; i++ {
				if i != j {
					le(b.varOf(i, j), b.varOf(j, j))
				}
			}
		}
	}
	if effective&core.ColumnMonotone != 0 {
		for j := 0; j <= n; j++ {
			for i := 1; i <= j; i++ {
				le(b.varOf(i-1, j), b.varOf(i, j))
			}
			for i := j; i < n; i++ {
				le(b.varOf(i+1, j), b.varOf(i, j))
			}
		}
	}
	if effective&core.Fairness != 0 {
		for i := 1; i <= n; i++ {
			b.pair(b.varOf(i, i), 1, b.varOf(0, 0), -1, lp.EQ)
		}
	}
	if effective&core.WeakHonesty != 0 {
		// The weak-honesty floor is a pure lower bound — exactly what the
		// bounded simplex absorbs without a constraint row.
		floor := 1 / float64(n+1)
		for i := 0; i <= n; i++ {
			b.note(b.model.SetBounds(b.varOf(i, i), floor, math.Inf(1)))
		}
	}
	if effective&core.Symmetry != 0 && !b.reduce {
		for i := 0; i <= n; i++ {
			for j := 0; j <= n; j++ {
				mi, mj := n-i, n-j
				if mi > i || (mi == i && mj > j) {
					b.pair(b.varOf(i, j), 1, b.varOf(mi, mj), -1, lp.EQ)
				}
			}
		}
	}
	if effective&core.OutputDP != 0 {
		for j := 0; j <= n; j++ {
			for i := 0; i < n; i++ {
				b.pair(b.varOf(i+1, j), b.alpha, b.varOf(i, j), -1, lp.LE)
				b.pair(b.varOf(i, j), b.alpha, b.varOf(i+1, j), -1, lp.LE)
			}
		}
	}
}

// extract converts the LP solution into a validated Mechanism, repairing
// the tiny numeric drift a simplex basis can leave (finishMatrix clamps
// negatives down to −1e-7 to zero and renormalises the columns).
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
