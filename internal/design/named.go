package design

import (
	"context"
	"fmt"
	"sync"

	"privcount/internal/core"
	"privcount/internal/lp"
)

// This file provides the paper's named LP mechanisms and the Figure 5
// decision procedure, with a process-wide result memo so experiment
// sweeps do not re-solve identical LPs.

// WMProps is the property set the paper settles on for WM after the
// Figure 8 study: weak honesty with both monotonicity properties
// ("From now on, we use WM to refer to the mechanism with WH, RM and CM
// properties"), plus symmetry, which Theorem 1 grants at no cost and
// which halves the LP.
const WMProps = core.WeakHonesty | core.RowMonotone | core.ColumnMonotone | core.Symmetry

type cacheKey struct {
	n     int
	alpha float64
	props core.PropertySet
	p     float64
}

var (
	cacheMu    sync.Mutex
	cache      = map[cacheKey]*Result{}
	cacheCells int // Σ (n+1)² over the memoised matrices
)

// maxCachedCells bounds the result memo by the matrix cells it holds, 8
// bytes each: 1 MiB of matrices. Sweeps over small n (the figures, the
// §IV-D subset study) fit whole, while a stream of distinct serving-size
// LP-backed specs cannot keep matrices the serving cache has already
// evicted. A result larger than the budget is not memoised; at capacity
// arbitrary entries are evicted — the memo is an accelerator, not a
// correctness structure.
const maxCachedCells = 1 << 17

// solveCached solves with symmetry reduction enabled and memoises on
// (n, alpha, props, objective-p) for uniform-weight problems. Errors —
// cancellations included — are never memoised: the next request for the
// same key re-solves from scratch.
func solveCached(ctx context.Context, n int, alpha float64, props core.PropertySet, obj Objective) (*Result, error) {
	if obj.Weights != nil {
		return SolveCtx(ctx, Problem{N: n, Alpha: alpha, Props: props, Objective: obj, ReduceSymmetry: true})
	}
	key := cacheKey{n: n, alpha: alpha, props: props, p: obj.P}
	cacheMu.Lock()
	if r, ok := cache[key]; ok {
		cacheMu.Unlock()
		return r, nil
	}
	cacheMu.Unlock()
	r, err := SolveCtx(ctx, Problem{N: n, Alpha: alpha, Props: props, Objective: obj, ReduceSymmetry: true})
	if err != nil {
		return nil, err
	}
	storeCached(key, r)
	return r, nil
}

// storeCached memoises r under key within the maxCachedCells budget.
func storeCached(key cacheKey, r *Result) {
	cells := (key.n + 1) * (key.n + 1)
	if cells > maxCachedCells {
		return
	}
	cacheMu.Lock()
	defer cacheMu.Unlock()
	if _, exists := cache[key]; exists {
		return
	}
	for victim := range cache {
		if cacheCells+cells <= maxCachedCells {
			break
		}
		delete(cache, victim)
		cacheCells -= (victim.n + 1) * (victim.n + 1)
	}
	cache[key] = r
	cacheCells += cells
}

// ClearCache drops all memoised LP results (used by benchmarks that
// want to measure cold solves).
func ClearCache() {
	cacheMu.Lock()
	cache, cacheCells = map[cacheKey]*Result{}, 0
	cacheMu.Unlock()
}

// WM returns the paper's weakly-honest mechanism for L0: the LP optimum
// under WH + RM + CM (+S at no cost). Its L0 cost is sandwiched between
// GM's 2α/(1+α) and EM's ≈ 2α/(1+α)·(n+1)/n (Figure 6).
func WM(n int, alpha float64) (*core.Mechanism, error) {
	return WMCtx(context.Background(), n, alpha)
}

// WMCtx is WM under a context (see SolveCtx for cancellation semantics).
func WMCtx(ctx context.Context, n int, alpha float64) (*core.Mechanism, error) {
	r, err := solveCached(ctx, n, alpha, WMProps, L0Objective)
	if err != nil {
		return nil, err
	}
	return r.Mechanism.Rename("WM"), nil
}

// WHOnly returns the LP optimum under weak honesty alone (+S), the other
// LP-defined behaviour in the Figure 5 flowchart. When n ≥ 2α/(1−α) it
// coincides with GM (Lemma 2).
func WHOnly(n int, alpha float64) (*core.Mechanism, error) {
	r, err := solveCached(context.Background(), n, alpha, core.WeakHonesty|core.Symmetry, L0Objective)
	if err != nil {
		return nil, err
	}
	return r.Mechanism.Rename("WH-LP"), nil
}

// Unconstrained returns the §III optimum under BASICDP alone for the
// given objective exponent p — the mechanisms whose pathologies Figure 1
// displays. For p = 0 this is GM (Theorem 3).
func Unconstrained(n int, alpha float64, p float64) (*core.Mechanism, error) {
	r, err := Solve(Problem{N: n, Alpha: alpha, Objective: Objective{P: p}})
	if err != nil {
		return nil, err
	}
	return r.Mechanism.Rename(fmt.Sprintf("LP-L%g", p)), nil
}

// UnconstrainedL0D returns the BASICDP optimum minimising the probability
// of an answer more than d steps from the truth (the "L0 with d" loss of
// Figure 1).
func UnconstrainedL0D(n int, alpha float64, d int) (*core.Mechanism, error) {
	m, err := solveL0D(n, alpha, d, 0)
	if err != nil {
		return nil, err
	}
	return m.Rename(fmt.Sprintf("LP-L0d%d", d)), nil
}

// ConstrainedL0D is UnconstrainedL0D plus structural properties.
func ConstrainedL0D(n int, alpha float64, d int, props core.PropertySet) (*core.Mechanism, error) {
	m, err := solveL0D(n, alpha, d, props)
	if err != nil {
		return nil, err
	}
	return m.Rename(fmt.Sprintf("LP-L0d%d[%s]", d, core.PropertySetString(props))), nil
}

// solveL0D solves with the step-loss objective under uniform weights:
// cost w_j when |i−j| > d. A Symmetry request folds the LP.
func solveL0D(n int, alpha float64, d int, props core.PropertySet) (*core.Mechanism, error) {
	if d < 0 {
		return nil, fmt.Errorf("design: L0D with d=%d", d)
	}
	p := Problem{N: n, Alpha: alpha, Props: props, ReduceSymmetry: props&core.Symmetry != 0}
	r, err := solveLP(context.Background(), p, fmt.Sprintf("design: L0D d=%d", d),
		func(b *builder, obj Objective) lp.Options {
			b.addObjective(func(i, j int) float64 {
				if i-j > d || j-i > d {
					return obj.Weights[j]
				}
				return 0
			})
			return lp.Options{}
		})
	if err != nil {
		return nil, err
	}
	return r.Mechanism, nil
}

// Choice reports which mechanism the Figure 5 flowchart selects.
type Choice struct {
	Mechanism *core.Mechanism
	// Rule is the flowchart path taken, e.g. "fairness => EM".
	Rule string
	// Props is the full (closed) set of §IV-A properties the selected
	// mechanism guarantees — possibly a strict superset of the request.
	// Serving responses report it so clients know what they actually got.
	Props core.PropertySet
}

// GeometricProps returns the closed property set GM guarantees at
// (n, alpha): row properties and symmetry always, weak honesty once n
// clears the Lemma 2 threshold, and the column properties below the
// Lemma 3 cutoff. It is the single source of truth for GM's guarantees;
// every branch of Choose that answers with GM reports it, as does the
// serving layer for forced-GM specs.
func GeometricProps(n int, alpha float64) core.PropertySet {
	ps := core.RowMonotone | core.Symmetry
	if float64(n) >= core.GeometricWeakHonestyThreshold(alpha) {
		ps |= core.WeakHonesty
	}
	if alpha <= 0.5 {
		ps |= core.ColumnMonotone
	}
	return core.Closure(ps)
}

// figure5Branch is a leaf of the Figure 5 flowchart.
type figure5Branch int

const (
	branchEM         figure5Branch = iota // fairness
	branchGMLemma3                        // column property, α ≤ ½
	branchWMLP                            // column property, α > ½
	branchGMLemma2                        // weak honesty, n ≥ 2α/(1−α)
	branchWHLP                            // weak honesty, n < 2α/(1−α)
	branchGMTheorem3                      // subset of {S, RH, RM}
)

// figure5 walks the Figure 5 flowchart for a request whose property set,
// symmetry removed, closes to closed. It returns the leaf and the rule
// string Choose reports for it; Choose and IsLPBacked both read it, so
// the admission check cannot drift from the construction.
func figure5(n int, alpha float64, closed core.PropertySet) (figure5Branch, string) {
	switch {
	case closed&core.Fairness != 0:
		return branchEM, "fairness => EM"
	case closed&(core.ColumnHonesty|core.ColumnMonotone) != 0:
		if alpha <= 0.5 {
			return branchGMLemma3, "column property, alpha <= 1/2 => GM (Lemma 3)"
		}
		return branchWMLP, "column property, alpha > 1/2 => WH+CM LP (WM)"
	case closed&core.WeakHonesty != 0:
		if float64(n) >= core.GeometricWeakHonestyThreshold(alpha) {
			return branchGMLemma2, "weak honesty, n >= 2a/(1-a) => GM (Lemma 2)"
		}
		return branchWHLP, "weak honesty, n < 2a/(1-a) => WH LP"
	default:
		return branchGMTheorem3, "subset of {S, RH, RM} => GM (Theorem 3)"
	}
}

// IsLPBacked reports whether Choose(n, alpha, props) would resolve to an
// LP-designed mechanism rather than a closed form; the serving layer
// uses it to bound admission of LP-backed specs without building them.
func IsLPBacked(n int, alpha float64, props core.PropertySet) bool {
	b, _ := figure5(n, alpha, core.Closure(props&^core.Symmetry))
	return b == branchWMLP || b == branchWHLP
}

// Choose implements the Figure 5 decision procedure for the L0 objective:
// fairness demands EM; subsets of {S, RH, RM} are served by GM (Theorem
// 3); requests involving column properties need the WH+CM LP unless GM
// already satisfies them (α ≤ ½, Lemma 3); weak-honesty-only requests are
// served by GM once n ≥ 2α/(1−α) (Lemma 2) and by the WH LP below that.
func Choose(n int, alpha float64, props core.PropertySet) (*Choice, error) {
	return ChooseCtx(context.Background(), n, alpha, props)
}

// ChooseCtx is Choose under a context. The closed-form branches (GM, EM)
// never block; the LP branches thread ctx into the design solve, so an
// abandoned request cancels its LP mid-pivot (see SolveCtx).
func ChooseCtx(ctx context.Context, n int, alpha float64, props core.PropertySet) (*Choice, error) {
	props &^= core.Symmetry // free by Theorem 1; every branch provides it
	closed := core.Closure(props)
	b, rule := figure5(n, alpha, closed)
	var (
		m   *core.Mechanism
		ps  core.PropertySet
		err error
	)
	switch b {
	case branchEM:
		m, err = core.ExplicitFair(n, alpha)
		ps = core.AllProperties
	case branchWMLP:
		m, err = WMCtx(ctx, n, alpha)
		ps = core.Closure(WMProps)
	case branchWHLP:
		// The LP must carry any requested row properties too, not just
		// WH, or the serving layer would hand back a mechanism weaker
		// than asked for.
		ps = closed | core.Symmetry
		var r *Result
		if r, err = solveCached(ctx, n, alpha, ps, L0Objective); err == nil {
			m = r.Mechanism.Rename("WH-LP")
		}
	default: // the three GM leaves
		m, err = core.Geometric(n, alpha)
		ps = GeometricProps(n, alpha)
	}
	if err != nil {
		return nil, err
	}
	return &Choice{Mechanism: m, Rule: rule, Props: ps}, nil
}
