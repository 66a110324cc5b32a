// Package lp is a self-contained linear-programming substrate: a model
// builder, a presolve pass, a bounded-variable sparse revised simplex
// (LU-factorized basis with eta-file updates, devex pricing, crash
// starts, and automatic dualization of tall models), a primal-dual
// interior point method, dual-value extraction, and a reader/writer for
// an lp_solve-style text format.
//
// The paper solves its constrained mechanism-design problems with
// PyLPSolve (a wrapper over lp_solve); this package plays that role here.
// The design LPs have O(n²) variables, ~4 rows per variable, and 1–3
// nonzeros per row, so the engines work on the sparse canonical form
// directly (see canonical.go, bounded.go, dual.go, ipm.go). Solutions
// are checked in tests against brute-force vertex enumeration, strong
// duality, two test-only oracle engines (a dense tableau and an
// unbounded revised simplex), and the paper's closed forms.
//
// All variables are non-negative. Beyond that, each variable carries an
// optional [lo, hi] box (SetBounds, default [0, ∞)) that the bounded
// revised simplex honours natively: lower bounds are shifted into the
// right-hand sides during canonicalisation and finite upper bounds drive
// the three-state nonbasic logic, so neither consumes a constraint row.
// The dual route and the test oracles see the same boxes as explicit
// singleton rows via expandBounds.
// This matches the mechanism-design LPs exactly (probabilities are ≥ 0,
// weak-honesty floors are lower bounds, and the column-sum equalities
// imply ≤ 1).
package lp

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
)

// Sense selects minimisation or maximisation of the objective.
type Sense int

// Objective senses.
const (
	Minimize Sense = iota
	Maximize
)

func (s Sense) String() string {
	if s == Maximize {
		return "max"
	}
	return "min"
}

// Op is a constraint comparison operator.
type Op int

// Constraint operators.
const (
	LE Op = iota // ≤
	GE           // ≥
	EQ           // =
)

func (o Op) String() string {
	switch o {
	case LE:
		return "<="
	case GE:
		return ">="
	default:
		return "="
	}
}

// Term is one coefficient–variable pair in a linear expression.
type Term struct {
	Var   int
	Coeff float64
}

// Constraint is a single linear constraint Σ Coeff·x Op RHS. Every
// constraint a Model holds keeps one invariant on Terms: sorted by Var,
// at most one term per variable, and no zero coefficient. AddConstraint
// establishes it, and every derived model (bound shifts and expansions,
// presolve) only drops terms or adds singleton rows, so it survives.
// A row added without a name stores none and reads as c<k>, k the index
// AddConstraint returned, however the rows moved since.
type Constraint struct {
	Name  string
	Terms []Term
	Op    Op
	RHS   float64
	// id is the index AddConstraint returned for the row, or -1 for a
	// singleton bound row expandBounds made.
	id int
}

// Model is a linear program under construction. The zero value is not
// usable; create models with NewModel.
type Model struct {
	name     string
	sense    Sense
	varNames []string // up to the last named variable; "" reads as x<v>
	obj      []float64
	lo, hi   []float64 // per-variable box; default [0, +Inf)
	boxed    bool      // any non-default bound set
	cons     []Constraint
}

// Errors returned by model construction and solving. The solve outcomes
// are first-class sentinels: every solver route wraps exactly one of
// them, so callers classify terminations with errors.Is rather than
// string matching, and the Solution.Status always agrees with the
// matching sentinel.
var (
	ErrInfeasible = errors.New("lp: infeasible")
	ErrUnbounded  = errors.New("lp: unbounded")
	// ErrIterationLimit reports that the pivot budget
	// (Options.MaxIterations) ran out before optimality.
	ErrIterationLimit = errors.New("lp: iteration limit exceeded")
	// ErrCanceled reports that the context passed to SolveCtx was
	// cancelled mid-solve; it is always joined with the context's cause,
	// so errors.Is also matches context.Canceled / DeadlineExceeded.
	ErrCanceled = errors.New("lp: solve canceled")
	ErrBadModel = errors.New("lp: malformed model")
)

// NewModel returns an empty model with the given name and objective sense.
func NewModel(name string, sense Sense) *Model {
	return &Model{name: name, sense: sense}
}

// Name returns the model name.
func (m *Model) Name() string { return m.name }

// Sense returns the objective sense.
func (m *Model) Sense() Sense { return m.sense }

// NumVariables returns the number of variables added so far.
func (m *Model) NumVariables() int { return len(m.obj) }

// NumConstraints returns the number of constraints added so far.
func (m *Model) NumConstraints() int { return len(m.cons) }

// AddVariable adds a non-negative variable and returns its index v. A
// variable added with an empty name stores none and reads as x<v>.
func (m *Model) AddVariable(name string) int {
	v := len(m.obj)
	if name != "" {
		m.varNames = append(m.varNames, make([]string, v-len(m.varNames))...)
		m.varNames = append(m.varNames, name)
	}
	m.obj = append(m.obj, 0)
	m.lo = append(m.lo, 0)
	m.hi = append(m.hi, math.Inf(1))
	return v
}

// SetBounds sets the box lo ≤ x_v ≤ hi. The lower bound must be finite
// and non-negative (the package-wide convention; shift the model if a
// variable must go negative), the upper bound may be +Inf, and lo == hi
// fixes the variable. Tightening an existing bound is allowed; bounds
// that cross are rejected here rather than surfacing later as a spurious
// infeasibility.
func (m *Model) SetBounds(v int, lo, hi float64) error {
	if v < 0 || v >= len(m.obj) {
		return fmt.Errorf("lp: SetBounds: variable %d out of range [0,%d): %w", v, len(m.obj), ErrBadModel)
	}
	if math.IsNaN(lo) || math.IsNaN(hi) || math.IsInf(lo, 0) || lo < 0 {
		return fmt.Errorf("lp: SetBounds(%s): lower bound %v, want finite and >= 0: %w", m.VariableName(v), lo, ErrBadModel)
	}
	if hi < lo {
		return fmt.Errorf("lp: SetBounds(%s): empty box [%v, %v]: %w", m.VariableName(v), lo, hi, ErrBadModel)
	}
	m.lo[v] = lo
	m.hi[v] = hi
	m.boxed = m.boxed || lo != 0 || !math.IsInf(hi, 1)
	return nil
}

// Bounds returns the box of variable v ([0, +Inf) unless SetBounds
// changed it).
func (m *Model) Bounds(v int) (lo, hi float64) {
	if v < 0 || v >= len(m.lo) {
		return 0, math.Inf(1)
	}
	return m.lo[v], m.hi[v]
}

// Boxed reports whether any variable carries a non-default bound.
func (m *Model) Boxed() bool { return m.boxed }

// shiftLowerBounds returns an equivalent model whose variables all have
// zero lower bounds (positive lower bounds move into the right-hand
// sides and shrink the upper bounds) plus the shift vector to add back
// to a solution of the shifted model, or the receiver and nil when no
// variable has a positive lower bound. Row duals are unaffected by the
// shift.
func (m *Model) shiftLowerBounds() (*Model, []float64) {
	if !m.boxed {
		return m, nil
	}
	any := false
	for _, l := range m.lo {
		if l > 0 {
			any = true
			break
		}
	}
	if !any {
		return m, nil
	}
	s := &Model{
		name:     m.name,
		sense:    m.sense,
		varNames: m.varNames,
		obj:      m.obj,
		boxed:    true,
		lo:       make([]float64, len(m.lo)),
		hi:       make([]float64, len(m.hi)),
		cons:     make([]Constraint, len(m.cons)),
	}
	for v := range m.hi {
		s.hi[v] = m.hi[v] - m.lo[v]
	}
	for i, c := range m.cons {
		rhs := c.RHS
		for _, t := range c.Terms {
			if l := m.lo[t.Var]; l != 0 {
				rhs -= t.Coeff * l
			}
		}
		c.RHS = rhs
		s.cons[i] = c
	}
	return s, m.lo
}

// expandBounds returns an equivalent model with every non-default box
// materialised as explicit singleton rows appended after the original
// constraints — the form the explicit dual and the test oracles
// understand — plus the number of rows appended. It returns the
// receiver itself (zero appended) when no variable is boxed; callers
// slice the extra duals back off the returned solution.
func (m *Model) expandBounds() (*Model, int) {
	if !m.boxed {
		return m, 0
	}
	e := &Model{
		name:     m.name,
		sense:    m.sense,
		varNames: m.varNames,
		obj:      m.obj,
		cons:     append(make([]Constraint, 0, len(m.cons)+len(m.lo)), m.cons...),
	}
	e.lo = make([]float64, len(m.lo))
	e.hi = make([]float64, len(m.hi))
	for v := range e.hi {
		e.hi[v] = math.Inf(1)
	}
	bound := func(v int, op Op, rhs float64) {
		e.cons = append(e.cons, Constraint{Terms: []Term{{Var: v, Coeff: 1}}, Op: op, RHS: rhs, id: -1})
	}
	for v, lo := range m.lo {
		hi := m.hi[v]
		if lo == hi {
			bound(v, EQ, lo)
			continue
		}
		if lo > 0 {
			bound(v, GE, lo)
		}
		if !math.IsInf(hi, 1) {
			bound(v, LE, hi)
		}
	}
	return e, len(e.cons) - len(m.cons)
}

// rowName returns c's name: the one it was given, c<k> for the row
// added at index k, or fix_, lb_ or ub_ and the variable's name for a
// bound row expandBounds made.
func (m *Model) rowName(c *Constraint) string {
	switch {
	case c.Name != "":
		return c.Name
	case c.id >= 0:
		return "c" + strconv.Itoa(c.id)
	}
	return [...]string{LE: "ub_", GE: "lb_", EQ: "fix_"}[c.Op] + m.VariableName(c.Terms[0].Var)
}

// VariableName returns the name of variable v: the one AddVariable was
// given, or x<v>.
func (m *Model) VariableName(v int) string {
	if v < 0 || v >= len(m.obj) {
		return fmt.Sprintf("x?%d", v)
	}
	if v < len(m.varNames) && m.varNames[v] != "" {
		return m.varNames[v]
	}
	return "x" + strconv.Itoa(v)
}

// SetObjective sets the objective coefficient of variable v.
func (m *Model) SetObjective(v int, coeff float64) error {
	if v < 0 || v >= len(m.obj) {
		return fmt.Errorf("lp: SetObjective: variable %d out of range [0,%d): %w", v, len(m.obj), ErrBadModel)
	}
	m.obj[v] = coeff
	return nil
}

// ObjectiveCoeff returns the objective coefficient of variable v.
func (m *Model) ObjectiveCoeff(v int) float64 {
	if v < 0 || v >= len(m.obj) {
		return 0
	}
	return m.obj[v]
}

// AddConstraint appends the constraint Σ terms Op rhs and returns its row
// index. Terms referring to the same variable are summed, in input
// order, and terms whose sum is zero are dropped; the stored terms are
// sorted by variable (the Constraint invariant). A row added with an
// empty name stores none and reads as c<k>, k the returned index.
func (m *Model) AddConstraint(name string, terms []Term, op Op, rhs float64) (int, error) {
	c := Constraint{Name: name, Op: op, RHS: rhs, id: len(m.cons)}
	for _, t := range terms {
		if t.Var < 0 || t.Var >= len(m.obj) {
			return 0, fmt.Errorf("lp: AddConstraint %q: variable %d out of range [0,%d): %w",
				m.rowName(&c), t.Var, len(m.obj), ErrBadModel)
		}
		if math.IsNaN(t.Coeff) || math.IsInf(t.Coeff, 0) {
			return 0, fmt.Errorf("lp: AddConstraint %q: coefficient for variable %d is %v: %w",
				m.rowName(&c), t.Var, t.Coeff, ErrBadModel)
		}
	}
	if math.IsNaN(rhs) || math.IsInf(rhs, 0) {
		return 0, fmt.Errorf("lp: AddConstraint %q: right-hand side is %v: %w", m.rowName(&c), rhs, ErrBadModel)
	}
	c.Terms = mergeTerms(terms)
	m.cons = append(m.cons, c)
	return c.id, nil
}

// mergeTerms returns a copy of terms in Constraint-invariant form:
// sorted by variable, each variable's coefficients summed in input order
// (a stable sort keeps equal variables in the order they were given),
// and zero sums dropped.
func mergeTerms(terms []Term) []Term {
	out := append(make([]Term, 0, len(terms)), terms...)
	if !slices.IsSortedFunc(out, cmpTermVar) {
		slices.SortStableFunc(out, cmpTermVar)
	}
	w := 0
	for i := 0; i < len(out); {
		t := out[i]
		for i++; i < len(out) && out[i].Var == t.Var; i++ {
			t.Coeff += out[i].Coeff
		}
		if t.Coeff != 0 {
			out[w] = t
			w++
		}
	}
	return out[:w]
}

func cmpTermVar(a, b Term) int { return cmp.Compare(a.Var, b.Var) }

// Constraint returns the i-th constraint, named (see Constraint). The
// returned value shares its term slice with the model; callers must not
// modify it.
func (m *Model) Constraint(i int) Constraint {
	c := m.cons[i]
	c.Name = m.rowName(&c)
	return c
}

// DedupeConstraints removes constraints that are exact duplicates of an
// earlier one (same variables, coefficients, operator, and right-hand
// side) and returns how many were dropped, plus a remap from old row
// indices to new ones (a dropped row maps to the index of the copy that
// was kept, so tight-row hints survive the dedupe). Symmetry-folded
// design LPs emit every constraint twice; dropping the copies halves the
// simplex work without changing the feasible region.
func (m *Model) DedupeConstraints() (int, []int) {
	seen := make(map[string]int, len(m.cons))
	remap := make([]int, len(m.cons))
	kept := m.cons[:0]
	dropped := 0
	var key []byte
	for i, c := range m.cons {
		// The terms are already sorted and merged (the Constraint
		// invariant), so the raw bits of the row identify it: bit
		// equality is exactly float equality with -0 and 0 kept apart.
		key = append(key[:0], byte(c.Op))
		key = binary.LittleEndian.AppendUint64(key, math.Float64bits(c.RHS))
		for _, t := range c.Terms {
			key = binary.LittleEndian.AppendUint64(key, uint64(t.Var))
			key = binary.LittleEndian.AppendUint64(key, math.Float64bits(t.Coeff))
		}
		if at, ok := seen[string(key)]; ok {
			remap[i] = at
			dropped++
			continue
		}
		seen[string(key)] = len(kept)
		remap[i] = len(kept)
		kept = append(kept, c)
	}
	m.cons = kept
	return dropped, remap
}

// EvalObjective evaluates the objective at x.
func (m *Model) EvalObjective(x []float64) float64 {
	var z float64
	for v, c := range m.obj {
		if v < len(x) {
			z += c * x[v]
		}
	}
	return z
}

// CheckFeasible verifies that x satisfies every constraint and variable
// bound within tol, returning a descriptive error for the first violation.
func (m *Model) CheckFeasible(x []float64, tol float64) error {
	if len(x) < len(m.obj) {
		return fmt.Errorf("lp: CheckFeasible: %d values for %d variables: %w", len(x), len(m.obj), ErrBadModel)
	}
	for v := range m.obj {
		if x[v] < m.lo[v]-tol {
			return fmt.Errorf("lp: variable %s = %g violates lower bound %g", m.VariableName(v), x[v], m.lo[v])
		}
		if x[v] > m.hi[v]+tol {
			return fmt.Errorf("lp: variable %s = %g violates upper bound %g", m.VariableName(v), x[v], m.hi[v])
		}
	}
	for _, c := range m.cons {
		var lhs float64
		for _, t := range c.Terms {
			lhs += t.Coeff * x[t.Var]
		}
		switch c.Op {
		case LE:
			if lhs > c.RHS+tol {
				return fmt.Errorf("lp: constraint %s: %g <= %g violated by %g", m.rowName(&c), lhs, c.RHS, lhs-c.RHS)
			}
		case GE:
			if lhs < c.RHS-tol {
				return fmt.Errorf("lp: constraint %s: %g >= %g violated by %g", m.rowName(&c), lhs, c.RHS, c.RHS-lhs)
			}
		case EQ:
			if math.Abs(lhs-c.RHS) > tol {
				return fmt.Errorf("lp: constraint %s: %g = %g violated by %g", m.rowName(&c), lhs, c.RHS, math.Abs(lhs-c.RHS))
			}
		}
	}
	return nil
}
