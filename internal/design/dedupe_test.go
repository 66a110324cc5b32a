package design

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"testing"

	"privcount/internal/core"
	"privcount/internal/lp"
)

// referenceDedupe is the textual-key dedupe DedupeConstraints replaced:
// each row is keyed by its operator, %g-formatted right-hand side and
// Var-sorted %g-formatted terms. It returns what DedupeConstraints
// returns, without modifying the model.
func referenceDedupe(m *lp.Model) (int, []int) {
	seen := make(map[string]int, m.NumConstraints())
	remap := make([]int, m.NumConstraints())
	kept, dropped := 0, 0
	for i := 0; i < m.NumConstraints(); i++ {
		c := m.Constraint(i)
		terms := append([]lp.Term(nil), c.Terms...)
		sort.Slice(terms, func(a, b int) bool { return terms[a].Var < terms[b].Var })
		var b strings.Builder
		fmt.Fprintf(&b, "%d|%g|", c.Op, c.RHS)
		for _, t := range terms {
			fmt.Fprintf(&b, "%d:%g;", t.Var, t.Coeff)
		}
		key := b.String()
		if at, ok := seen[key]; ok {
			remap[i] = at
			dropped++
			continue
		}
		seen[key] = kept
		remap[i] = kept
		kept++
	}
	return dropped, remap
}

// TestDedupeMatchesReferenceOnSymmetricLattice builds every
// symmetry-folded design model of the build-cold lattice and checks that
// the raw-bits dedupe drops exactly the rows the textual key dropped.
func TestDedupeMatchesReferenceOnSymmetricLattice(t *testing.T) {
	cases := []struct {
		n     int
		alpha float64
		props string
	}{
		{96, 0.85, "RM+S"},
		{96, 0.9, "RM+S"},
		{96, 0.95, "RM+S"},
		{128, 0.85, "RM+CM+S"},
		{64, 0.9, "RH+CH+S"},
	}
	if testing.Short() {
		cases = cases[:1]
	}
	for _, c := range cases {
		props, err := core.ParseProperties(c.props)
		if err != nil {
			t.Fatal(err)
		}
		// Served specs carry the closed property set.
		b := newBuilder(Problem{N: c.n, Alpha: c.alpha, Props: core.Closure(props)}, true)
		if b.err != nil {
			t.Fatal(b.err)
		}
		rows := b.model.NumConstraints()
		wantDropped, wantRemap := referenceDedupe(b.model)
		gotDropped, gotRemap := b.model.DedupeConstraints()
		if gotDropped != wantDropped || !slices.Equal(gotRemap, wantRemap) {
			t.Errorf("n=%d a=%g %s: dropped %d of %d rows, reference %d (remaps equal: %v)",
				c.n, c.alpha, c.props, gotDropped, rows, wantDropped, slices.Equal(gotRemap, wantRemap))
		}
		if wantDropped == 0 {
			t.Errorf("n=%d a=%g %s: the folded model has no duplicate rows to test", c.n, c.alpha, c.props)
		}
	}
}

// TestDedupeSignedZeros pins the signed-zero classes: %g prints -0 and 0
// apart, and raw bits keep them apart too, so rows that differ only in
// the sign of a zero right-hand side stay distinct. A coefficient that
// is ±0 never reaches the key, since AddConstraint drops zero terms.
func TestDedupeSignedZeros(t *testing.T) {
	negZero := math.Copysign(0, -1)
	m := lp.NewModel("zeros", lp.Minimize)
	x, y := m.AddVariable("x"), m.AddVariable("y")
	rows := []struct {
		terms []lp.Term
		rhs   float64
	}{
		{[]lp.Term{{Var: x, Coeff: 1}, {Var: y, Coeff: -1}}, 0},
		{[]lp.Term{{Var: x, Coeff: 1}, {Var: y, Coeff: -1}}, negZero}, // kept: -0 ≠ 0
		{[]lp.Term{{Var: y, Coeff: -1}, {Var: x, Coeff: 1}}, 0},       // dropped: same row reordered
		{[]lp.Term{{Var: x, Coeff: 1}}, 0},
		{[]lp.Term{{Var: x, Coeff: 1}, {Var: y, Coeff: negZero}}, 0},                // dropped: the -0 term goes
		{[]lp.Term{{Var: x, Coeff: 1}, {Var: y, Coeff: 0}}, negZero},                // kept: only its rhs differs
		{[]lp.Term{{Var: x, Coeff: 1}, {Var: y, Coeff: 1}, {Var: y, Coeff: -1}}, 0}, // dropped: y sums to 0
	}
	for _, r := range rows {
		if _, err := m.AddConstraint("", r.terms, lp.LE, r.rhs); err != nil {
			t.Fatal(err)
		}
	}
	wantDropped, wantRemap := referenceDedupe(m)
	gotDropped, gotRemap := m.DedupeConstraints()
	if gotDropped != wantDropped || !slices.Equal(gotRemap, wantRemap) {
		t.Fatalf("dropped %d remap %v, reference %d %v", gotDropped, gotRemap, wantDropped, wantRemap)
	}
	if want := []int{0, 1, 0, 2, 2, 3, 2}; !slices.Equal(gotRemap, want) {
		t.Fatalf("remap %v, want %v", gotRemap, want)
	}
}
