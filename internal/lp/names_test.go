package lp

import (
	"strings"
	"testing"
)

// namesModel has unnamed and named variables and rows, a duplicate row
// and a singleton row presolve folds into a bound.
func namesModel(t *testing.T) *Model {
	t.Helper()
	m := NewModel("names", Minimize)
	x0 := m.AddVariable("")
	y := m.AddVariable("y")
	x2 := m.AddVariable("")
	for _, v := range []int{x0, y, x2} {
		if err := m.SetObjective(v, 1); err != nil {
			t.Fatal(err)
		}
	}
	rows := []struct {
		name  string
		terms []Term
		op    Op
		rhs   float64
	}{
		{"", []Term{{x0, 1}, {y, 1}}, GE, 2},    // c0
		{"cap", []Term{{y, 1}, {x2, 2}}, LE, 9}, // cap
		{"", []Term{{x2, 1}}, GE, 0.5},          // c2: folds into a bound
		{"", []Term{{x0, 1}, {y, 1}}, GE, 2},    // c3: duplicate of c0
		{"", []Term{{x0, 1}, {x2, -1}}, LE, 4},  // c4
	}
	for _, r := range rows {
		if _, err := m.AddConstraint(r.name, r.terms, r.op, r.rhs); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

// TestUnnamedNamesRenderOnRead pins how a model names what its builder
// left unnamed: variable k reads as x<k> and row k as c<k>, where k is
// the index the builder got back, through VariableName, Constraint,
// WriteLP and error messages, and after a dedupe moved the rows.
func TestUnnamedNamesRenderOnRead(t *testing.T) {
	m := namesModel(t)
	for v, want := range []string{"x0", "y", "x2"} {
		if got := m.VariableName(v); got != want {
			t.Errorf("VariableName(%d) = %q, want %q", v, got, want)
		}
	}
	for i, want := range []string{"c0", "cap", "c2", "c3", "c4"} {
		if got := m.Constraint(i).Name; got != want {
			t.Errorf("Constraint(%d).Name = %q, want %q", i, got, want)
		}
	}
	const wantLP = "/* names */\nmin: x0 + y + x2;\n" +
		"c0: x0 + y >= 2;\ncap: y + 2 x2 <= 9;\nc2: x2 >= 0.5;\nc3: x0 + y >= 2;\nc4: x0 - x2 <= 4;\n"
	if got := m.WriteLP(); got != wantLP {
		t.Errorf("WriteLP =\n%s\nwant\n%s", got, wantLP)
	}
	err := m.CheckFeasible([]float64{5, 0, 0.5}, 1e-9)
	if err == nil || err.Error() != "lp: constraint c4: 4.5 <= 4 violated by 0.5" {
		t.Errorf("CheckFeasible error = %v", err)
	}
	_, err = m.AddConstraint("", []Term{{Var: 7, Coeff: 1}}, LE, 1)
	if err == nil || !strings.Contains(err.Error(), `AddConstraint "c5"`) {
		t.Errorf("AddConstraint error = %v, want it to name the row c5", err)
	}

	if dropped, _ := m.DedupeConstraints(); dropped != 1 {
		t.Fatalf("dedupe dropped %d rows, want 1", dropped)
	}
	for i, want := range []string{"c0", "cap", "c2", "c4"} {
		if got := m.Constraint(i).Name; got != want {
			t.Errorf("after dedupe: Constraint(%d).Name = %q, want %q", i, got, want)
		}
	}
	if _, err := m.AddConstraint("", []Term{{Var: 0, Coeff: 1}}, LE, 7); err != nil {
		t.Fatal(err)
	}
	if got := m.Constraint(4).Name; got != "c4" {
		t.Errorf("row added after dedupe: Name = %q, want c4 (its index when added)", got)
	}
}

// TestPresolvedModelNamesCallerRows pins that errors about a presolved
// model, whose rows have moved, still name the caller's rows, and that
// the singleton rows expandBounds materialises name their variable.
func TestPresolvedModelNamesCallerRows(t *testing.T) {
	m := namesModel(t)
	p, err := presolve(m)
	if err != nil {
		t.Fatal(err)
	}
	red := p.reduced
	var names []string
	for i := 0; i < red.NumConstraints(); i++ {
		names = append(names, red.Constraint(i).Name)
	}
	if got := strings.Join(names, " "); got != "c0 cap c4" {
		t.Errorf("presolved rows named %q, want the caller's names \"c0 cap c4\"", got)
	}
	err = red.CheckFeasible([]float64{5, 0, 0.5}, 1e-9)
	if err == nil || err.Error() != "lp: constraint c4: 4.5 <= 4 violated by 0.5" {
		t.Errorf("presolved CheckFeasible error = %v, want it to name row c4", err)
	}

	e, added := red.expandBounds()
	if added != 1 {
		t.Fatalf("expandBounds added %d rows, want 1", added)
	}
	if got := e.Constraint(e.NumConstraints() - 1).Name; got != "lb_x2" {
		t.Errorf("bound row named %q, want lb_x2", got)
	}

	b := NewModel("boxes", Minimize)
	for i := 0; i < 3; i++ {
		b.AddVariable("")
	}
	for v, box := range [][2]float64{{1, 1}, {0.5, 2}, {0, 3}} {
		if err := b.SetBounds(v, box[0], box[1]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := b.AddConstraint("", []Term{{0, 1}, {1, 1}, {2, 1}}, GE, 1); err != nil {
		t.Fatal(err)
	}
	e, _ = b.expandBounds()
	var got []string
	for i := 0; i < e.NumConstraints(); i++ {
		got = append(got, e.Constraint(i).Name)
	}
	if s := strings.Join(got, " "); s != "c0 fix_x0 lb_x1 ub_x1 ub_x2" {
		t.Errorf("expanded rows named %q", s)
	}

	// An empty row presolve proves infeasible is reported by the caller's
	// name.
	f := NewModel("fixed", Minimize)
	u, w := f.AddVariable(""), f.AddVariable("")
	for _, v := range []int{u, w} {
		if err := f.SetBounds(v, 1, 1); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := f.AddConstraint("", []Term{{u, 1}}, LE, 5); err != nil {
		t.Fatal(err)
	}
	if _, err := f.AddConstraint("", []Term{{u, 1}, {w, 1}}, LE, 1); err != nil {
		t.Fatal(err)
	}
	_, err = f.Solve()
	if err == nil || err.Error() != "lp: infeasible: presolve: row c1 reduces to 0 <= -1" {
		t.Errorf("infeasible presolve error = %v", err)
	}
}
