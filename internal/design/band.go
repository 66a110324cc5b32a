package design

import (
	"context"
	"fmt"
	"math"

	"privcount/internal/core"
	"privcount/internal/lp"
	"privcount/internal/mat"
)

// This file implements the band-reduced solve path for the WM-shaped
// designs (RM + CM + Symmetry under the L0 objective) at large n. The
// full LP has Θ(n²) variables and Θ(n²) rows, and ROADMAP's measurement
// is blunt: the bounded simplex tops out near n=512 because the basis
// itself defeats hyper-sparsity, and an interior-point method fares no
// better here — the RM/CM rows make the normal-equations graph a 2D
// lattice whose treewidth grows with n, so every sparse factorization
// fills in. What does scale is a structural fact about the optimum
// itself, measured across n and α (and stable to 1e-12): the WM optimum
// equals the truncated geometric mechanism everywhere except in two
// output-boundary bands of n-independent depth — GM's only CM
// violations sit in the accumulated tail spikes at outputs 0 and n, and
// the LP's repair of those spikes dies out geometrically in the output
// index. Fixing the interior to GM and solving the band alone therefore
// reproduces the full optimum with an O(d·n)-variable LP, where the
// depth d depends on α but not on n.
//
// Soundness does not rest on the measurement alone:
//
//   - Feasibility is by construction. Every full-LP row that touches a
//     band variable appears in the band LP (the cross-frontier CM rows
//     become bounds against the fixed interior values), and every row
//     confined to the interior is satisfied by GM identically — GM is
//     column-normalised, α-DP, and unimodal away from the boundary
//     spikes. Any feasible band solution therefore stitches into a
//     feasible full solution.
//   - Optimality is checked per solve: if the band optimum deviates
//     from GM anywhere near the inner frontier, the band was too
//     shallow to contain the boundary repair and the solve is retried
//     deeper. A clean clearance margin means widening the band cannot
//     improve the objective further.

// bandClearance is the number of innermost band rows that must match GM
// for the depth to be accepted, and the slack added to the initial
// depth guess.
const bandClearance = 3

// bandMatchTol is the per-cell tolerance for the clearance check.
const bandMatchTol = 1e-9

// bandMinN is the group size at which the band path takes over from the
// full LP. Below it the full solve is already cheap.
const bandMinN = 256

// bandMaxDepth caps the band depth the reduced path will attempt. Very
// deep bands (α ≳ 0.95 puts d₀ above 80) reintroduce the dense-band
// structure the reduction exists to avoid, and the measured failure mode
// is not slowness but exactly-singular simplex bases deep into phase 2.
// Depths past the cap route to the full LP, whose basis handling is the
// path of record.
const bandMaxDepth = 48

// bandDepth0 returns the initial band depth for α. The measured depth
// of the boundary repair (n=128, deviation > 1e-12) is 1 at α=0.6, 6 at
// 0.75, 22 at 0.9 and 62 at 0.95, which 0.9·(1−α)^{−3/2} envelopes
// with margin; the clearance check catches any α this curve underfits.
func bandDepth0(alpha float64) int {
	return int(math.Ceil(0.9*math.Pow(1-alpha, -1.5))) + bandClearance
}

// bandShape is the effective property set (see effectiveProps) the band
// path's shape assumptions hold for: exactly RM + CM (+ Symmetry) rows,
// weak honesty absorbed by CM, nothing else.
const bandShape = core.RowMonotone | core.ColumnMonotone | core.Symmetry

// bandEligible reports whether the problem can take the band path: a
// WM-shaped folded design under the L0 objective, large enough that the
// band plus clearance fits strictly inside the matrix.
func bandEligible(p Problem, obj Objective, reduce bool) bool {
	if !reduce || p.N < bandMinN || obj.P != 0 || effectiveProps(p.Props) != bandShape {
		return false
	}
	d := bandDepth0(p.Alpha)
	return d <= bandMaxDepth && 4*(d+bandClearance) < p.N
}

// bandModel is one assembled band LP plus the index map needed to read
// the solution back.
type bandModel struct {
	model *lp.Model
	crash []int
	n, d  int
	// v[i*(n+1)+j] is the variable for band cell (i, j), i ≤ d; the cell
	// represents its centro-symmetric mirror (n−i, n−j) too. The
	// variable carries the cell probability divided by scale[j].
	v []int
	// scale[j] is the GM top-band mass of column j (rows i ≤ d). Band
	// cells range over dozens of decades — the tail entries sit far below
	// every solver tolerance — so the LP is posed in per-column units
	// q(i,j) = ρ(i,j)/scale[j], which keeps every variable, bound, and
	// right-hand side O(1): cell (i,j) of the top band is within a few
	// α-powers of its column's top-band mass, for every j. Without it,
	// presolve's absolute tolerances silently drop the tail's ratio rows
	// (breaking the crash-row/variable bijection) and the simplex bases
	// go numerically singular.
	scale []float64
	// interiorCost is the objective mass contributed by the fixed
	// interior cells.
	interiorCost float64
}

// buildBand assembles the band LP at depth d: the full model's rows
// restricted to output rows i ≤ d (each standing for its mirror row
// n−i as well), with the cross-frontier CM rows folded into variable
// bounds against the fixed GM interior, in the column-scaled units
// described on bandModel.scale.
func buildBand(p Problem, obj Objective, gm *core.Mechanism, d int) (*bandModel, error) {
	n := p.N
	alpha := p.Alpha
	bm := &bandModel{
		model: lp.NewModel(fmt.Sprintf("design-band-n%d-d%d", n, d), lp.Minimize),
		n:     n, d: d,
		v:     make([]int, (d+1)*(n+1)),
		scale: make([]float64, n+1),
	}
	for j := 0; j <= n; j++ {
		var s float64
		for i := 0; i <= d; i++ {
			s += gm.Prob(i, j)
		}
		// Floor against underflow at extreme n·(1−α): a column whose whole
		// top-band mass vanishes in float64 holds exact zeros either way.
		bm.scale[j] = math.Max(s, 1e-280)
	}
	for i := 0; i <= d; i++ {
		for j := 0; j <= n; j++ {
			bm.v[i*(n+1)+j] = bm.model.AddVariable("")
		}
	}
	at := func(i, j int) int { return bm.v[i*(n+1)+j] }

	// Column sums over both bands, folded: the j and n−j rows are the
	// same constraint under the symmetry identification, so each pair is
	// added once. Column j's bottom-band mass is its mirror column's
	// top-band mass, so in scaled units the right-hand side is the sum
	// of the two column scales, normalised like the terms by the larger
	// one — the near-boundary side contributes O(1) coefficients, the
	// far side a tiny exact correction.
	for j := 0; 2*j <= n; j++ {
		m := math.Max(bm.scale[j], bm.scale[n-j])
		a, b := bm.scale[j]/m, bm.scale[n-j]/m
		terms := make([]lp.Term, 0, 2*(d+1))
		for i := 0; i <= d; i++ {
			terms = append(terms, lp.Term{Var: at(i, j), Coeff: a})
			terms = append(terms, lp.Term{Var: at(i, n-j), Coeff: b})
		}
		row, err := bm.model.AddConstraint("", terms, lp.EQ, a+b)
		if err != nil {
			return nil, err
		}
		if j <= d {
			bm.crash = append(bm.crash, row)
		}
	}

	// α-DP ratio rows along each band output row (the mirrors fold onto
	// these), with the away-from-diagonal rows recorded as crash hints:
	// together with the j ≤ d sums they pick exactly one row per
	// variable, the band image of the geometric vertex. Each row is
	// normalised by the larger of its two column scales so the
	// coefficients stay O(1).
	for i := 0; i <= d; i++ {
		for j := 0; j < n; j++ {
			m := math.Max(bm.scale[j], bm.scale[j+1])
			a, b := bm.scale[j]/m, bm.scale[j+1]/m
			row, err := bm.model.AddConstraint("",
				[]lp.Term{{Var: at(i, j+1), Coeff: alpha * b}, {Var: at(i, j), Coeff: -a}}, lp.LE, 0)
			if err != nil {
				return nil, err
			}
			if j < i {
				bm.crash = append(bm.crash, row)
			}
			row, err = bm.model.AddConstraint("",
				[]lp.Term{{Var: at(i, j), Coeff: alpha * a}, {Var: at(i, j+1), Coeff: -b}}, lp.LE, 0)
			if err != nil {
				return nil, err
			}
			if j >= i {
				bm.crash = append(bm.crash, row)
			}
		}
	}

	// Row monotonicity within each band row.
	for i := 0; i <= d; i++ {
		for j := 1; j <= i; j++ {
			m := math.Max(bm.scale[j-1], bm.scale[j])
			if _, err := bm.model.AddConstraint("",
				[]lp.Term{{Var: at(i, j-1), Coeff: bm.scale[j-1] / m}, {Var: at(i, j), Coeff: -bm.scale[j] / m}}, lp.LE, 0); err != nil {
				return nil, err
			}
		}
		for j := i; j < n; j++ {
			m := math.Max(bm.scale[j], bm.scale[j+1])
			if _, err := bm.model.AddConstraint("",
				[]lp.Term{{Var: at(i, j+1), Coeff: bm.scale[j+1] / m}, {Var: at(i, j), Coeff: -bm.scale[j] / m}}, lp.LE, 0); err != nil {
				return nil, err
			}
		}
	}

	// Column monotonicity between adjacent band rows (same column, so
	// the scale divides out); the rows crossing the frontier pin
	// v(d, j) against the fixed interior neighbour.
	for j := 0; j <= n; j++ {
		for i := 1; i <= d && i <= j; i++ {
			if _, err := bm.model.AddConstraint("",
				[]lp.Term{{Var: at(i-1, j), Coeff: 1}, {Var: at(i, j), Coeff: -1}}, lp.LE, 0); err != nil {
				return nil, err
			}
		}
		for i := j; i < d; i++ {
			if _, err := bm.model.AddConstraint("",
				[]lp.Term{{Var: at(i+1, j), Coeff: 1}, {Var: at(i, j), Coeff: -1}}, lp.LE, 0); err != nil {
				return nil, err
			}
		}
		g := gm.Prob(d+1, j) / bm.scale[j]
		if j <= d {
			// cmD at the frontier: ρ(d+1, j) ≤ ρ(d, j).
			if err := bm.model.SetBounds(at(d, j), g, math.Inf(1)); err != nil {
				return nil, err
			}
		} else {
			// cmU at the frontier: ρ(d, j) ≤ ρ(d+1, j).
			if err := bm.model.SetBounds(at(d, j), 0, g); err != nil {
				return nil, err
			}
		}
	}

	// L0 objective over the band (each folded variable carries its own
	// cell's weight plus its mirror's — equal, for symmetric weights),
	// plus the constant mass of the fixed interior.
	for i := 0; i <= d; i++ {
		for j := 0; j <= n; j++ {
			if i == j {
				continue
			}
			v := at(i, j)
			if err := bm.model.SetObjective(v, bm.model.ObjectiveCoeff(v)+2*obj.Weights[j]*bm.scale[j]); err != nil {
				return nil, err
			}
		}
	}
	for i := d + 1; i < n-d; i++ {
		for j := 0; j <= n; j++ {
			if i != j {
				bm.interiorCost += obj.Weights[j] * gm.Prob(i, j)
			}
		}
	}
	return bm, nil
}

// bandCleared reports whether the band optimum matches GM across the
// innermost clearance rows — the certificate that the band fully
// contains the boundary repair and deepening cannot improve it.
func (bm *bandModel) bandCleared(sol *lp.Solution, gm *core.Mechanism) bool {
	lo := bm.d - (bandClearance - 1)
	if lo < 0 {
		lo = 0
	}
	for i := lo; i <= bm.d; i++ {
		for j := 0; j <= bm.n; j++ {
			if math.Abs(sol.Value(bm.v[i*(bm.n+1)+j])*bm.scale[j]-gm.Prob(i, j)) > bandMatchTol {
				return false
			}
		}
	}
	return true
}

// stitch assembles the full mechanism matrix: GM in the interior, the
// band optimum (and its mirror image) at the boundary, then the same
// validation and column renormalisation the full path applies.
func (bm *bandModel) stitch(sol *lp.Solution, gm *core.Mechanism, p Problem) (*Mechanism, error) {
	n := bm.n
	px := mat.NewDense(n+1, n+1)
	for i := bm.d + 1; i < n-bm.d; i++ {
		for j := 0; j <= n; j++ {
			px.Set(i, j, gm.Prob(i, j))
		}
	}
	for i := 0; i <= bm.d; i++ {
		for j := 0; j <= n; j++ {
			v := sol.Value(bm.v[i*(n+1)+j]) * bm.scale[j]
			px.Set(i, j, v)
			px.Set(n-i, n-j, v)
		}
	}
	return finishMatrix(px, p)
}

// solveBand runs the band path: build at the α-implied depth, solve
// with the band image of the geometric crash basis, and deepen until
// the clearance margin certifies the depth. Depths that would not fit
// fall back to the caller's full solve. Its caller has validated p.
func solveBand(ctx context.Context, p Problem, obj Objective) (*Result, error) {
	gm, err := core.Geometric(p.N, p.Alpha)
	if err != nil {
		return nil, err
	}
	d := bandDepth0(p.Alpha)
	for {
		if d > bandMaxDepth || 4*(d+bandClearance) >= p.N {
			return nil, errBandTooDeep
		}
		bm, err := buildBand(p, obj, gm, d)
		if err != nil {
			return nil, err
		}
		sol, err := solveModel(bm.model, ctx, lp.Options{CrashRows: bm.crash})
		if err != nil {
			return nil, fmt.Errorf("design: band n=%d alpha=%g d=%d: %w", p.N, p.Alpha, d, err)
		}
		if !bm.bandCleared(sol, gm) {
			d *= 2
			continue
		}
		m, err := bm.stitch(sol, gm, p)
		if err != nil {
			return nil, err
		}
		return newResult(m, sol, bm.model, sol.Objective+bm.interiorCost), nil
	}
}

// errBandTooDeep reroutes a band solve whose certified depth stopped
// fitting inside the matrix back to the full LP.
var errBandTooDeep = fmt.Errorf("design: band depth exceeds group size")
