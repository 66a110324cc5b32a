package lp

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// checkInvariant fails unless every constraint of m keeps the Constraint
// invariant: terms strictly increasing in Var, no zero coefficient.
func checkInvariant(t testing.TB, m *Model) {
	t.Helper()
	for i, c := range m.cons {
		for k, term := range c.Terms {
			if term.Coeff == 0 {
				t.Fatalf("row %d (%s): zero term %v", i, c.Name, term)
			}
			if k > 0 && c.Terms[k-1].Var >= term.Var {
				t.Fatalf("row %d (%s): terms %v not strictly sorted by Var", i, c.Name, c.Terms)
			}
		}
	}
}

func TestAddConstraintSortsMergesInInputOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := NewModel("t", Minimize)
	for v := 0; v < 4; v++ {
		m.AddVariable("")
	}
	// Many interleaved terms per variable, with values whose float sum
	// depends on the order of addition: only a stable sort followed by
	// an in-order sum reproduces the running sum below.
	var terms []Term
	want := make([]float64, 4)
	for k := 0; k < 200; k++ {
		v := []int{3, 1, 2}[k%3]
		c := rng.NormFloat64() * math.Pow(10, float64(rng.Intn(12)-6))
		terms = append(terms, Term{Var: v, Coeff: c})
		want[v] += c
	}
	// Variable 0 cancels exactly and must disappear.
	terms = append(terms, Term{Var: 0, Coeff: 0.5}, Term{Var: 0, Coeff: -0.5})
	input := slices.Clone(terms)
	row, err := m.AddConstraint("r", terms, LE, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(terms, input) {
		t.Fatal("AddConstraint modified the caller's terms")
	}
	got := m.Constraint(row).Terms
	wantTerms := []Term{{1, want[1]}, {2, want[2]}, {3, want[3]}}
	for i := range wantTerms {
		if i >= len(got) || got[i].Var != wantTerms[i].Var ||
			math.Float64bits(got[i].Coeff) != math.Float64bits(wantTerms[i].Coeff) {
			t.Fatalf("terms %v, want %v (in-order sums)", got, wantTerms)
		}
	}
	if len(got) != len(wantTerms) {
		t.Fatalf("terms %v, want %v", got, wantTerms)
	}

	// The order-dependence is real: summing the same values in reverse
	// gives different bits for at least one variable, so the check above
	// distinguishes input order from any other.
	rev := make([]float64, 4)
	for k := len(input) - 1; k >= 0; k-- {
		rev[input[k].Var] += input[k].Coeff
	}
	if rev[1] == want[1] && rev[2] == want[2] && rev[3] == want[3] {
		t.Fatal("test values do not make the sum order-dependent")
	}

	// A small row with the same property: (0.1+0.2)+0.3 ≠ 0.1+(0.2+0.3).
	a, b, c := 0.1, 0.2, 0.3
	row, err = m.AddConstraint("small", []Term{{2, c}, {1, a}, {2, b}, {1, b}, {1, c}, {2, a}}, EQ, 0)
	if err != nil {
		t.Fatal(err)
	}
	want1, want2 := (a+b)+c, (c+b)+a
	if want1 == want2 {
		t.Fatal("0.1, 0.2, 0.3 sum the same in both orders")
	}
	if got := m.Constraint(row).Terms; !reflect.DeepEqual(got, []Term{{1, want1}, {2, want2}}) {
		t.Fatalf("small row terms %v, want [{1 %v} {2 %v}]", got, want1, want2)
	}
	checkInvariant(t, m)
}

// foldedRow is one row of a symmetry-folded design LP, ready for
// AddConstraint.
type foldedRow struct {
	name  string
	terms []Term
	op    Op
	rhs   float64
}

// foldedRMSRows returns the rows of the symmetry-folded RM+S design LP —
// the shape the design layer builds for "lp:n=<n>:a=<alpha>:RM+S" — and
// its variable count. Cell (i, j) and its centro-mirror (n−i, n−j) share
// one variable, so every row is emitted once per mirror image and column
// sums repeat variables: the duplicates AddConstraint merges and
// DedupeConstraints drops.
func foldedRMSRows(n int, alpha float64) ([]foldedRow, int) {
	vars := make([]int, (n+1)*(n+1))
	nv := 0
	for i := 0; i <= n; i++ {
		for j := 0; j <= n; j++ {
			mi, mj := n-i, n-j
			if mi < i || (mi == i && mj < j) {
				vars[i*(n+1)+j] = vars[mi*(n+1)+mj]
				continue
			}
			vars[i*(n+1)+j] = nv
			nv++
		}
	}
	v := func(i, j int) int { return vars[i*(n+1)+j] }
	var rows []foldedRow
	for j := 0; j <= n; j++ {
		terms := make([]Term, 0, n+1)
		for i := 0; i <= n; i++ {
			terms = append(terms, Term{v(i, j), 1})
		}
		rows = append(rows, foldedRow{fmt.Sprintf("sum_%d", j), terms, EQ, 1})
	}
	for i := 0; i <= n; i++ {
		for j := 0; j < n; j++ {
			rows = append(rows,
				foldedRow{fmt.Sprintf("dpA_%d_%d", i, j), []Term{{v(i, j+1), alpha}, {v(i, j), -1}}, LE, 0},
				foldedRow{fmt.Sprintf("dpB_%d_%d", i, j), []Term{{v(i, j), alpha}, {v(i, j+1), -1}}, LE, 0})
		}
	}
	for i := 0; i <= n; i++ {
		for j := 1; j <= i; j++ {
			rows = append(rows, foldedRow{fmt.Sprintf("rmL_%d_%d", i, j), []Term{{v(i, j-1), 1}, {v(i, j), -1}}, LE, 0})
		}
		for j := i; j < n; j++ {
			rows = append(rows, foldedRow{fmt.Sprintf("rmR_%d_%d", i, j), []Term{{v(i, j+1), 1}, {v(i, j), -1}}, LE, 0})
		}
	}
	return rows, nv
}

func buildFolded(tb testing.TB, rows []foldedRow, nv int) *Model {
	m := NewModel("folded", Minimize)
	for k := 0; k < nv; k++ {
		m.AddVariable("")
	}
	for _, r := range rows {
		if _, err := m.AddConstraint(r.name, r.terms, r.op, r.rhs); err != nil {
			tb.Fatal(err)
		}
	}
	return m
}

// TestConstraintAssemblyDeterministic builds one folded design model 20
// times: with a map merge, term order followed Go's randomized map
// iteration and differed from build to build.
func TestConstraintAssemblyDeterministic(t *testing.T) {
	rows, nv := foldedRMSRows(24, 0.9)
	first := buildFolded(t, rows, nv)
	checkInvariant(t, first)
	for k := 1; k < 20; k++ {
		m := buildFolded(t, rows, nv)
		if !reflect.DeepEqual(m.cons, first.cons) {
			t.Fatalf("build %d differs from build 0", k)
		}
	}
	// Every derived model keeps the invariant too.
	for v := 0; v < nv; v += 7 {
		if err := first.SetBounds(v, 0.001, 0.9); err != nil {
			t.Fatal(err)
		}
	}
	sm, _ := first.shiftLowerBounds()
	checkInvariant(t, sm)
	em, _ := first.expandBounds()
	checkInvariant(t, em)
	p, err := presolve(first)
	if err != nil {
		t.Fatal(err)
	}
	checkInvariant(t, p.reduced)
	d, _, err := dualize(em)
	if err != nil {
		t.Fatal(err)
	}
	checkInvariant(t, d)
}

// TestDualDeclineKeepsReason forces the dual route to decline — once in
// dualization, once in the dual solve — and checks that the decline
// still classifies as a fallback and carries its cause.
func TestDualDeclineKeepsReason(t *testing.T) {
	m := benchDesignModel(16, 0.9)
	_, err := m.solveViaDual(Options{MaxIterations: 1}.withDefaults(1, 1, 1))
	if !errors.Is(err, errSparseFallback) || !errors.Is(err, ErrIterationLimit) {
		t.Fatalf("dual solve over budget: error %v, want errSparseFallback joined with ErrIterationLimit", err)
	}

	// A NaN cost becomes a NaN right-hand side in the dual, which
	// AddConstraint rejects.
	m = benchDesignModel(4, 0.9)
	m.SetObjective(3, math.NaN())
	_, err = m.solveViaDual(Options{}.withDefaults(1, 1, 1))
	if !errors.Is(err, errSparseFallback) || !errors.Is(err, ErrBadModel) ||
		!strings.Contains(err.Error(), "right-hand side is NaN") {
		t.Fatalf("dualize failure: error %v, want errSparseFallback joined with the AddConstraint error", err)
	}
	if note := dualDeclineNote(err); !strings.Contains(note, "right-hand side is NaN") || strings.Contains(note, "\n") {
		t.Fatalf("decline note %q must name the reason on one line", note)
	}
	if dualDeclineNote(nil) != "" {
		t.Fatal("a dual route that did not run has no decline note")
	}
}

// BenchmarkAddConstraint times assembling the folded n=96 RM+S design
// model (variables and rows) from prepared terms.
func BenchmarkAddConstraint(b *testing.B) {
	rows, nv := foldedRMSRows(96, 0.9)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buildFolded(b, rows, nv)
	}
}

// BenchmarkDedupeConstraints times dropping the mirror-image duplicate
// rows of the folded n=96 RM+S design model.
func BenchmarkDedupeConstraints(b *testing.B) {
	rows, nv := foldedRMSRows(96, 0.9)
	base := buildFolded(b, rows, nv)
	m := *base
	m.cons = make([]Constraint, len(base.cons))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m.cons = m.cons[:len(base.cons)]
		copy(m.cons, base.cons)
		b.StartTimer()
		if dropped, _ := m.DedupeConstraints(); dropped == 0 {
			b.Fatal("no duplicate rows")
		}
	}
}
