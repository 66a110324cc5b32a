package lp

import (
	"encoding/binary"
	"fmt"
	"math"
)

// This file is the presolve pass that runs in front of the sparse
// engine. The mechanism-design LPs arrive with O(n) rows that a bounded
// simplex does not need as rows at all: weak-honesty floors are
// single-variable ≥ rows (variable bounds in disguise), and for every
// adjacent cell pair the α-ratio row pointing toward the diagonal is
// implied by the row-monotonicity row on the same pair. Presolve folds
// the former into the variable boxes, drops the latter (plus empty,
// duplicate, and box-implied rows), substitutes fixed variables into the
// remaining rows, and afterwards maps the reduced solution — primal
// values, duals, and complementary-slackness structure — exactly back to
// the original model, so callers (and the cross-validation oracles) see
// the model they built.
//
// Every reduction preserves the feasible region exactly; dropped rows
// take dual value zero except folded bound rows, whose dual is recovered
// from the bound's reduced cost at the optimum. Reductions run to a
// fixpoint (substituting a fixed variable can make another row empty,
// singleton, or forcing), bounded by a small pass budget.

// PresolveStats reports what the presolve pass removed. RowsOut counts
// the surviving rows handed to the solver.
type PresolveStats struct {
	RowsIn, RowsOut int
	// BoundsFolded counts singleton rows converted into variable bounds.
	BoundsFolded int
	// EmptyRows counts rows with no terms (trivially satisfiable) dropped.
	EmptyRows int
	// DominatedRows counts two-variable ratio rows implied by a stronger
	// row over the same pair.
	DominatedRows int
	// DuplicateRows counts rows whose scaled pattern matches an earlier
	// row with an at-least-as-tight right-hand side.
	DuplicateRows int
	// ImpliedRows counts rows already satisfied by the variable boxes.
	ImpliedRows int
	// FixedVars counts variables pinned by lo == hi and substituted out of
	// the surviving rows.
	FixedVars int
}

// Reductions reports the total number of rows presolve removed.
func (s PresolveStats) Reductions() int { return s.RowsIn - s.RowsOut }

// foldEvent records one singleton row folded into a variable bound, in
// the order presolve applied them. Postsolve undoes them in reverse: a
// row that became a singleton through fixed-variable substitution can
// only be processed after the rows folded later than it, because its
// recovered dual feeds the reduced costs those earlier folds read.
type foldEvent struct {
	row   int // original row index
	v     int // the surviving variable
	coeff float64
	isHi  bool // which side of the box the fold tightened
}

// presolved carries the reduced model plus everything postsolve needs.
type presolved struct {
	orig    *Model
	reduced *Model
	rowMap  []int // reduced row -> original row
	// Bound definers: the original singleton row (and its coefficient)
	// that produced the binding lower/upper bound of each variable, -1
	// when the bound is the model's own.
	loRow, hiRow     []int
	loCoeff, hiCoeff []float64
	folds            []foldEvent
	stats            PresolveStats
}

// presolveTol is the tolerance for presolve's feasibility decisions;
// it matches the solver's restored-solution tolerance so presolve never
// declares infeasible a model the solver would have accepted.
const presolveTol = 1e-9

// presolve reduces the model. It returns ErrInfeasible when a reduction
// proves the model has no feasible point (crossed bounds, unsatisfiable
// empty row).
func presolve(m *Model) (*presolved, error) {
	nv := len(m.obj)
	p := &presolved{
		orig:    m,
		loRow:   make([]int, nv),
		hiRow:   make([]int, nv),
		loCoeff: make([]float64, nv),
		hiCoeff: make([]float64, nv),
	}
	for v := range p.loRow {
		p.loRow[v], p.hiRow[v] = -1, -1
	}
	p.stats.RowsIn = len(m.cons)

	lo := append([]float64(nil), m.lo...)
	hi := append([]float64(nil), m.hi...)

	// live[i] tracks whether original row i survives. Term slices alias
	// the caller's model until fixed-variable substitution actually has
	// to shrink a row (copy-on-write): most solves never pay the copy.
	type workRow struct {
		terms []Term
		op    Op
		rhs   float64
		live  bool
	}
	rows := make([]workRow, len(m.cons))
	for i, c := range m.cons {
		rows[i] = workRow{terms: c.Terms, op: c.Op, rhs: c.RHS, live: true}
	}

	fixed := make([]bool, nv)
	markFixed := func(v int) {
		if !fixed[v] && lo[v] == hi[v] {
			fixed[v] = true
			p.stats.FixedVars++
		}
	}
	for v := 0; v < nv; v++ {
		markFixed(v)
	}

	// tightenLo/tightenHi fold a bound derived from row r (coefficient a)
	// into variable v's box, remembering the definer when it strictly
	// tightens.
	infeasible := func(v int) error {
		return fmt.Errorf("%w: presolve: bounds of %s cross: [%g, %g]",
			ErrInfeasible, m.VariableName(v), lo[v], hi[v])
	}
	tightenLo := func(v int, b float64, r int, a float64) error {
		if b > lo[v] {
			lo[v] = b
			p.loRow[v], p.loCoeff[v] = r, a
			p.folds = append(p.folds, foldEvent{row: r, v: v, coeff: a})
			if lo[v] > hi[v]+presolveTol*(1+math.Abs(lo[v])) {
				return infeasible(v)
			}
			if lo[v] > hi[v] {
				lo[v] = hi[v] // crossing within tolerance: pinch
			}
			markFixed(v)
		}
		return nil
	}
	tightenHi := func(v int, b float64, r int, a float64) error {
		if b < hi[v] {
			hi[v] = b
			p.hiRow[v], p.hiCoeff[v] = r, a
			p.folds = append(p.folds, foldEvent{row: r, v: v, coeff: a, isHi: true})
			if lo[v] > hi[v]+presolveTol*(1+math.Abs(hi[v])) {
				return infeasible(v)
			}
			if hi[v] < lo[v] {
				hi[v] = lo[v]
			}
			markFixed(v)
		}
		return nil
	}

	// Main reduction loop: singleton folding and fixed-variable
	// substitution feed each other, so iterate to a fixpoint.
	for pass, changed := 0, true; changed && pass < 8; pass++ {
		changed = false
		for i := range rows {
			r := &rows[i]
			if !r.live {
				continue
			}
			// Substitute fixed variables into the right-hand side,
			// copying the (shared) term slice only when a term actually
			// drops.
			hasFixed := false
			for _, t := range r.terms {
				if fixed[t.Var] {
					hasFixed = true
					break
				}
			}
			if hasFixed {
				kept := make([]Term, 0, len(r.terms)-1)
				for _, t := range r.terms {
					if fixed[t.Var] {
						r.rhs -= t.Coeff * lo[t.Var]
						continue
					}
					kept = append(kept, t)
				}
				r.terms = kept
				changed = true
			}

			switch len(r.terms) {
			case 0:
				viol := false
				scale := presolveTol * (1 + math.Abs(r.rhs))
				switch r.op {
				case LE:
					viol = r.rhs < -scale
				case GE:
					viol = r.rhs > scale
				case EQ:
					viol = math.Abs(r.rhs) > scale
				}
				if viol {
					return nil, fmt.Errorf("%w: presolve: row %s reduces to 0 %s %g",
						ErrInfeasible, m.rowName(&m.cons[i]), r.op, r.rhs)
				}
				r.live = false
				p.stats.EmptyRows++
				changed = true

			case 1:
				t := r.terms[0]
				b := r.rhs / t.Coeff
				var err error
				switch {
				case r.op == EQ:
					err = tightenLo(t.Var, b, i, t.Coeff)
					if err == nil {
						err = tightenHi(t.Var, b, i, t.Coeff)
					}
				case (r.op == LE) == (t.Coeff > 0):
					err = tightenHi(t.Var, b, i, t.Coeff)
				default:
					err = tightenLo(t.Var, b, i, t.Coeff)
				}
				if err != nil {
					return nil, err
				}
				r.live = false
				p.stats.BoundsFolded++
				changed = true
			}
		}
	}

	// Dominance among two-variable "ratio" inequalities: rows of the form
	// a·u − b·v ≤ r (a, b > 0) over the same ordered pair with r ≥ 0 and
	// u, v ≥ 0. The row with the largest a/b and smallest r implies the
	// others: a'·u ≤ (a'/a)(b·v + r) ≤ b'·v + r' whenever a'/b' ≤ a/b and
	// r' ≥ (a'·b)/(a·b')·r ≥ ... — with the conservative restriction to
	// r = r' = 0 used here the implication is exact. This is the reduction
	// that removes the half of the BASICDP α-ratio rows pointing toward
	// the diagonal whenever row/column-monotonicity rows cover the pair.
	type pairKey struct{ pos, neg int }
	bestRatio := make(map[pairKey]float64)
	bestRow := make(map[pairKey]int)
	classify := func(r *workRow) (pairKey, float64, bool) {
		if !r.live || len(r.terms) != 2 || r.op != LE || r.rhs != 0 {
			return pairKey{}, 0, false
		}
		t0, t1 := r.terms[0], r.terms[1]
		if t0.Coeff > 0 && t1.Coeff < 0 {
			return pairKey{t0.Var, t1.Var}, t0.Coeff / -t1.Coeff, true
		}
		if t0.Coeff < 0 && t1.Coeff > 0 {
			return pairKey{t1.Var, t0.Var}, t1.Coeff / -t0.Coeff, true
		}
		return pairKey{}, 0, false
	}
	for i := range rows {
		if key, ratio, ok := classify(&rows[i]); ok {
			if best, seen := bestRatio[key]; !seen || ratio > best {
				bestRatio[key] = ratio
				bestRow[key] = i
			}
		}
	}
	for i := range rows {
		if key, ratio, ok := classify(&rows[i]); ok {
			if bestRow[key] != i && ratio <= bestRatio[key] {
				rows[i].live = false
				p.stats.DominatedRows++
			}
		}
	}

	// Duplicate rows: identical scaled pattern and operator; keep the
	// tightest right-hand side. (Equalities only drop on an exact match —
	// a mismatch is a contradiction better left for the solver's phase 1
	// to certify than decided here by tolerance.)
	type dupEntry struct {
		row int
		rhs float64
	}
	dups := make(map[string]dupEntry, len(rows))
	var kb []byte
	for i := range rows {
		r := &rows[i]
		if !r.live || len(r.terms) == 0 {
			continue
		}
		// Rows keep the Constraint invariant (substitution only drops
		// terms), so their terms are already sorted by variable.
		lead := r.terms[0].Coeff
		op := r.op
		if lead < 0 {
			// Normalising by a negative leading coefficient flips the sense.
			switch op {
			case LE:
				op = GE
			case GE:
				op = LE
			}
		}
		// Binary key over the division-normalised coefficients: dividing
		// by the leading coefficient makes scaled copies of a row (the
		// symmetry-folded duplicates) bitwise identical, with none of the
		// float-formatting cost a textual key would pay. A pair of rows
		// that differ by a last-ulp rounding artefact keeps both — the
		// conservative direction.
		kb = append(kb[:0], byte(op))
		for _, t := range r.terms {
			kb = binary.LittleEndian.AppendUint32(kb, uint32(t.Var))
			kb = binary.LittleEndian.AppendUint64(kb, math.Float64bits(t.Coeff/lead))
		}
		key := string(kb)
		rhs := r.rhs / lead
		prev, seen := dups[key]
		if !seen {
			dups[key] = dupEntry{row: i, rhs: rhs}
			continue
		}
		switch op {
		case LE:
			if rhs >= prev.rhs {
				r.live = false
			} else {
				rows[prev.row].live = false
				dups[key] = dupEntry{row: i, rhs: rhs}
			}
			p.stats.DuplicateRows++
		case GE:
			if rhs <= prev.rhs {
				r.live = false
			} else {
				rows[prev.row].live = false
				dups[key] = dupEntry{row: i, rhs: rhs}
			}
			p.stats.DuplicateRows++
		case EQ:
			if rhs == prev.rhs {
				r.live = false
				p.stats.DuplicateRows++
			}
		}
	}

	// Rows the variable boxes already satisfy: compare the row's best
	// possible activity against the right-hand side.
	for i := range rows {
		r := &rows[i]
		if !r.live || len(r.terms) == 0 {
			continue
		}
		minAct, maxAct := 0.0, 0.0
		for _, t := range r.terms {
			l, h := lo[t.Var], hi[t.Var]
			if t.Coeff > 0 {
				minAct += t.Coeff * l
				maxAct += t.Coeff * h
			} else {
				minAct += t.Coeff * h
				maxAct += t.Coeff * l
			}
		}
		scale := presolveTol * (1 + math.Abs(r.rhs))
		drop := false
		switch r.op {
		case LE:
			drop = maxAct <= r.rhs+scale
		case GE:
			drop = minAct >= r.rhs-scale
		case EQ:
			drop = maxAct <= r.rhs+scale && minAct >= r.rhs-scale
		}
		if drop {
			r.live = false
			p.stats.ImpliedRows++
		}
	}

	// Materialise the reduced model: same variable set (so solutions map
	// one-to-one), tightened boxes, surviving rows only. Built directly —
	// names, objective, and unmodified term slices are shared with the
	// original (both are read-only from here on), and the rows were
	// already validated once by the caller's AddConstraint.
	red := &Model{
		name:     m.name + "+presolve",
		sense:    m.sense,
		varNames: m.varNames,
		obj:      m.obj,
		lo:       lo,
		hi:       hi,
	}
	for v := range lo {
		if lo[v] != 0 || !math.IsInf(hi[v], 1) {
			red.boxed = true
			break
		}
	}
	for i := range rows {
		r := &rows[i]
		if !r.live {
			continue
		}
		// The row keeps its name and id, so errors about the reduced
		// model name the caller's rows.
		c := m.cons[i]
		c.Terms, c.Op, c.RHS = r.terms, r.op, r.rhs
		red.cons = append(red.cons, c)
		p.rowMap = append(p.rowMap, i)
	}
	p.reduced = red
	p.stats.RowsOut = red.NumConstraints()
	return p, nil
}

// postsolve maps a solution of the reduced model back onto the original:
// primal values pass through (the variable set is identical), surviving
// rows keep their duals, dropped rows take zero, and folded bound rows
// recover their dual from the bound's reduced cost when the optimum
// rests on the bound they defined.
func (p *presolved) postsolve(sol *Solution) {
	m := p.orig
	duals := make([]float64, len(m.cons))
	for k, i := range p.rowMap {
		if k < len(sol.Duals) {
			duals[i] = sol.Duals[k]
		}
	}

	// Reduced cost of every variable under the recovered duals, in
	// minimisation orientation — one O(nnz) sweep over the constraints,
	// not a rescan per folded bound.
	sign := 1.0
	if m.sense == Maximize {
		sign = -1
	}
	redCost := make([]float64, len(m.obj))
	for v, c := range m.obj {
		redCost[v] = sign * c
	}
	for i, c := range m.cons {
		if duals[i] == 0 {
			continue
		}
		for _, t := range c.Terms {
			redCost[t.Var] -= sign * duals[i] * t.Coeff
		}
	}
	// Undo the folds in reverse order (classic LIFO postsolve). A row can
	// fold to a singleton only after every other variable in it was fixed
	// by earlier folds, so its recovered dual must be propagated through
	// those fixed variables' reduced costs before their own (earlier)
	// fold rows are processed — walking the stack backwards guarantees
	// it. Only the fold that still defines the variable's final bound
	// carries a dual; superseded folds (and inactive bounds) stay at
	// zero, which keeps complementary slackness.
	assigned := make(map[int]bool, len(p.folds))
	for k := len(p.folds) - 1; k >= 0; k-- {
		f := p.folds[k]
		if f.v >= len(sol.X) || assigned[f.row] {
			continue
		}
		var bound float64
		if f.isHi {
			if p.hiRow[f.v] != f.row {
				continue // a later fold tightened past this one
			}
			bound = p.reduced.hi[f.v]
		} else {
			if p.loRow[f.v] != f.row {
				continue
			}
			bound = p.reduced.lo[f.v]
		}
		if math.Abs(sol.X[f.v]-bound) > 1e-7*(1+math.Abs(bound)) {
			continue // bound not active; the row's dual is zero
		}
		assigned[f.row] = true
		yMin := redCost[f.v] / f.coeff
		duals[f.row] = sign * yMin
		if yMin == 0 {
			continue
		}
		// Propagate through the whole original row: its fixed variables'
		// reduced costs feed the folds processed after this one, and the
		// surviving variable's own entry lands exactly at zero.
		for _, t := range m.cons[f.row].Terms {
			redCost[t.Var] -= yMin * t.Coeff
		}
	}
	sol.Duals = duals
}
