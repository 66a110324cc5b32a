package lp

import "errors"

// This file gives the auto solver a dualization route for tall models.
// The mechanism-design LPs have ~4 constraint rows per variable (column
// sums, two DP ratio rows per adjacent cell pair, and the property
// rows), and every revised-simplex cost — basis factorization, FTRAN,
// BTRAN, eta updates — scales with the basis dimension, which is the row
// count. Solving max{bᵀy : Aᵀy ≤ c} instead swaps rows for columns: the
// basis shrinks from m to n, and by strong duality the primal optimum is
// read off the dual solve's duals while the primal duals are the dual
// solve's variable values. On the n=64 design LPs this is the difference
// between an ~8000-row basis and an ~2000-row one.

// dualVarRef locates the dual variable(s) carrying a primal row's dual
// value: y_i = value(pos) − value(neg), with -1 for an absent side.
// GE rows have only pos (y_i ≥ 0), LE rows only neg (y_i ≤ 0), EQ rows
// both (y_i free).
type dualVarRef struct {
	pos, neg int
}

// dualize builds the explicit dual of m as a Maximize model over
// non-negative variables, along with the per-row variable references
// needed to map a dual solution back. The primal is treated as a
// minimisation (a Maximize model contributes its negated objective).
// It errors when a dual constraint is rejected (e.g. a NaN objective
// coefficient becoming a NaN right-hand side) — the mapping back to the
// primal depends on one dual constraint per primal variable, in order.
func dualize(m *Model) (*Model, []dualVarRef, error) {
	d := NewModel(m.name+"-dual", Maximize)
	refs := make([]dualVarRef, len(m.cons))
	for i, c := range m.cons {
		refs[i] = dualVarRef{pos: -1, neg: -1}
		if c.Op != LE {
			refs[i].pos = d.AddVariable("")
			d.SetObjective(refs[i].pos, c.RHS)
		}
		if c.Op != GE {
			refs[i].neg = d.AddVariable("")
			d.SetObjective(refs[i].neg, -c.RHS)
		}
	}

	// One dual constraint per primal variable: Σ_i A_ij·y_i ≤ c_j.
	colTerms := make([][]Term, len(m.obj))
	for i, c := range m.cons {
		for _, t := range c.Terms {
			r := refs[i]
			if r.pos >= 0 {
				colTerms[t.Var] = append(colTerms[t.Var], Term{Var: r.pos, Coeff: t.Coeff})
			}
			if r.neg >= 0 {
				colTerms[t.Var] = append(colTerms[t.Var], Term{Var: r.neg, Coeff: -t.Coeff})
			}
		}
	}
	for j, cj := range m.obj {
		if m.sense == Maximize {
			cj = -cj
		}
		if _, err := d.AddConstraint("", colTerms[j], LE, cj); err != nil {
			return nil, nil, err
		}
	}
	return d, refs, nil
}

// wantDual reports whether the canonical shape favours the dual route:
// enough rows for the basis size to matter, and more rows than
// structural variables by a margin that pays for the dualization
// overhead. (With presolve folding bound rows away and dropping the
// dominated ratio rows, the design LPs arrive here at roughly 2–3 rows
// per variable — past the cutover, which also keeps the crash-hint
// machinery on the route that can use it.)
func wantDual(cf *canonForm) bool {
	return cf.m >= 256 && 4*cf.m >= 5*cf.nStruct
}

// completeWarmBasis extends a partial basis hint to a full structural
// basis: Kuhn's augmenting-path matching assigns each hint column a
// distinct row of its sparsity pattern, columns that cannot be matched
// are dropped, and every row left unmatched contributes its identity
// (slack/surplus) column instead. The result always has exactly cf.m
// columns and a perfect row matching, hence is structurally
// nonsingular; it returns nil only when an unmatched row's identity
// column is an artificial (an equality row — the hint cannot stand in
// for it). A work budget bounds the pathological matching cases; a
// column abandoned by the budget just falls back to identity columns.
func completeWarmBasis(cf *canonForm, warm []int) []int {
	rowOwner := make([]int, cf.m) // row -> index into warm, -1 when free
	for i := range rowOwner {
		rowOwner[i] = -1
	}
	visited := make([]int, cf.m)
	for i := range visited {
		visited[i] = -1
	}
	budget := 20 * (len(warm) + cf.m)
	var try func(k, stamp int) bool
	try = func(k, stamp int) bool {
		idx, _ := cf.column(warm[k])
		for _, r := range idx {
			if visited[r] == stamp || budget <= 0 {
				continue
			}
			budget--
			visited[r] = stamp
			if rowOwner[r] < 0 || try(rowOwner[r], stamp) {
				rowOwner[r] = k
				return true
			}
		}
		return false
	}
	matched := make([]bool, len(warm))
	for k := range warm {
		matched[k] = try(k, k)
	}
	out := make([]int, 0, cf.m)
	for k, j := range warm {
		if matched[k] {
			out = append(out, j)
		}
	}
	for v := 0; v < cf.m; v++ {
		if rowOwner[v] >= 0 {
			continue
		}
		if cf.isArtificial(cf.identCol[v]) {
			return nil
		}
		out = append(out, cf.identCol[v])
	}
	return out
}

// solveViaDual solves m by solving its explicit dual with the bounded
// sparse engine and mapping the solution back. Positive lower bounds
// are shifted into the right-hand sides first (duals are unaffected) and
// finite upper bounds become explicit singleton rows, so the dual stays
// a plain non-negative model. Any failure — including dual verdicts that
// are ambiguous for the primal (an infeasible dual means the primal is
// infeasible or unbounded) — is reported to the caller, which falls back
// to a primal-side solve, as errSparseFallback joined with the reason.
func (m *Model) solveViaDual(opts Options) (*Solution, error) {
	sm, shift := m.shiftLowerBounds()
	em, _ := sm.expandBounds()
	d, refs, err := dualize(em)
	if err != nil {
		return nil, errors.Join(errSparseFallback, err)
	}
	cf := canonicalize(d)
	var warm []int
	if len(opts.CrashRows) > 0 {
		// Seed an advanced basis from the caller's hint: the hinted
		// primal rows' dual variables are basic. In the dual space a
		// basis has exactly one column per dual row (= primal variable),
		// so the hint only applies when its cardinality works out;
		// solveBounded validates the rest (non-singularity, primal
		// feasibility) and cold-starts on any mismatch.
		warm = make([]int, 0, len(opts.CrashRows))
		for _, r := range opts.CrashRows {
			if r < 0 || r >= len(refs) {
				warm = nil
				break
			}
			ref := refs[r]
			if ref.pos >= 0 {
				warm = append(warm, ref.pos)
			} else if ref.neg >= 0 {
				warm = append(warm, ref.neg)
			}
		}
		// Presolve may have dropped some hinted rows (box-implied rows on
		// tightly-bounded variables), leaving the hint short of a basis.
		// Complete it: a structural maximum matching keeps every hint
		// column that can own a distinct dual row, and each row left
		// unmatched takes its own identity column — a column set with a
		// perfect matching by construction, so only numerical (not
		// structural) singularity can still reject it.
		if n := len(warm); n > 0 && n < cf.m {
			warm = completeWarmBasis(cf, warm)
		}
		if len(warm) != cf.m {
			warm = nil
		}
	}
	dsol, err := d.solveBounded(cf, opts, warm)
	if err != nil {
		if errors.Is(err, ErrCanceled) {
			return dsol, err
		}
		if errors.Is(err, errSparseFallback) {
			return nil, err // the engine's own decline already says why
		}
		return nil, errors.Join(errSparseFallback, err)
	}

	sol := &Solution{
		Status:           StatusOptimal,
		X:                make([]float64, len(m.obj)),
		Iterations:       dsol.Iterations,
		BoundFlips:       dsol.BoundFlips,
		Refactorizations: dsol.Refactorizations,
	}
	// Strong duality: the primal optimum sits in the dual solve's duals
	// (one dual constraint per primal variable, in order).
	for j := range sol.X {
		sol.X[j] = dsol.Duals[j]
		if shift != nil {
			sol.X[j] += shift[j]
		}
	}
	sol.Duals = make([]float64, len(m.cons))
	for i := range sol.Duals {
		r := refs[i]
		var y float64
		if r.pos >= 0 {
			y += dsol.X[r.pos]
		}
		if r.neg >= 0 {
			y -= dsol.X[r.neg]
		}
		if m.sense == Maximize {
			y = -y
		}
		sol.Duals[i] = y
	}
	return sol, nil
}
