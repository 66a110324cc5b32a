package core

import (
	"math"
	"strings"
	"testing"

	"privcount/internal/mat"
)

// mustGM builds a Geometric mechanism or fails the test.
func mustGM(t *testing.T, n int, alpha float64) *Mechanism {
	t.Helper()
	m, err := Geometric(n, alpha)
	if err != nil {
		t.Fatalf("Geometric(%d, %v): %v", n, alpha, err)
	}
	return m
}

// mustEM builds an ExplicitFair mechanism or fails the test.
func mustEM(t *testing.T, n int, alpha float64) *Mechanism {
	t.Helper()
	m, err := ExplicitFair(n, alpha)
	if err != nil {
		t.Fatalf("ExplicitFair(%d, %v): %v", n, alpha, err)
	}
	return m
}

// mustUM builds a Uniform mechanism or fails the test.
func mustUM(t *testing.T, n int) *Mechanism {
	t.Helper()
	m, err := Uniform(n)
	if err != nil {
		t.Fatalf("Uniform(%d): %v", n, err)
	}
	return m
}

func TestNewRejectsBadInputs(t *testing.T) {
	good := mat.NewDense(3, 3)
	for j := 0; j < 3; j++ {
		good.Set(0, j, 1)
	}
	if _, err := New("m", 0, 0.5, good); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := New("m", 3, 0.5, good); err == nil {
		t.Error("3x3 matrix accepted for n=3 (needs 4x4)")
	}
	bad := mat.NewDense(3, 3) // all zeros: columns do not sum to 1
	if _, err := New("m", 2, 0.5, bad); err == nil {
		t.Error("non-stochastic matrix accepted")
	}
}

// TestMatrixReturnsCopy pins that Matrix hands out a copy: New takes
// ownership of its matrix, and no caller can reach it afterwards.
func TestMatrixReturnsCopy(t *testing.T) {
	p := mat.NewDense(2, 2)
	p.Set(0, 0, 1)
	p.Set(1, 1, 1)
	m, err := New("id", 1, 0, p)
	if err != nil {
		t.Fatal(err)
	}
	got := m.Matrix()
	got.Set(0, 0, 0)
	if m.Prob(0, 0) != 1 {
		t.Error("Matrix() exposes internal storage")
	}
}

func TestAccessors(t *testing.T) {
	m := mustGM(t, 4, 0.5)
	if m.Name() != "GM" || m.N() != 4 || m.Alpha() != 0.5 {
		t.Fatalf("accessors: %s %d %v", m.Name(), m.N(), m.Alpha())
	}
	col := m.Column(2)
	var sum float64
	for _, v := range col {
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("column 2 sums to %v", sum)
	}
	if !strings.Contains(m.String(), "GM") {
		t.Error("String() should mention the name")
	}
	r := m.Rename("other")
	if r.Name() != "other" || m.Name() != "GM" {
		t.Error("Rename should not mutate the original")
	}
}

func TestSatisfiesDPAndViolation(t *testing.T) {
	m := mustGM(t, 5, 0.7)
	if !m.SatisfiesDP(0.7, 0) {
		t.Fatalf("GM fails its own alpha: %s", m.DPViolation(0.7, 0))
	}
	if m.SatisfiesDP(0.71, 0) {
		t.Error("GM should fail a stricter alpha (its constraints are tight)")
	}
	if m.DPViolation(0.71, 0) == "" {
		t.Error("violation message empty for breached alpha")
	}
}

func TestDPAlpha(t *testing.T) {
	for _, alpha := range []float64{0.3, 0.62, 0.9} {
		m := mustGM(t, 6, alpha)
		if got := m.DPAlpha(); math.Abs(got-alpha) > 1e-12 {
			t.Errorf("GM DPAlpha = %v, want %v", got, alpha)
		}
	}
	// The uniform mechanism has all ratios 1 → alpha 1.
	if got := mustUM(t, 4).DPAlpha(); got != 1 {
		t.Errorf("UM DPAlpha = %v, want 1", got)
	}
	// A mechanism with a zero next to a nonzero has alpha 0.
	p := mat.NewDense(2, 2)
	p.Set(0, 0, 1)
	p.Set(1, 1, 1)
	id, err := New("id", 1, 0, p)
	if err != nil {
		t.Fatal(err)
	}
	if got := id.DPAlpha(); got != 0 {
		t.Errorf("identity DPAlpha = %v, want 0", got)
	}
}

func TestUniformWeights(t *testing.T) {
	w := UniformWeights(4)
	if len(w) != 5 {
		t.Fatalf("len = %d", len(w))
	}
	for _, v := range w {
		if v != 0.2 {
			t.Fatalf("weight %v, want 0.2", v)
		}
	}
}

func TestLossKnownValues(t *testing.T) {
	// Hand-computed on UM with n=2: every output 1/3.
	um := mustUM(t, 2)
	// L0-style loss: Pr[wrong] = 2/3 per column.
	l0, err := um.Loss(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(l0-2.0/3.0) > 1e-12 {
		t.Fatalf("L0 loss %v, want 2/3", l0)
	}
	// L1: column 0: (0+1+2)/3 = 1; column 1: (1+0+1)/3 = 2/3; column 2: 1.
	// Mean over columns: 8/9.
	l1, err := um.Loss(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(l1-8.0/9.0) > 1e-12 {
		t.Fatalf("L1 loss %v, want 8/9", l1)
	}
	// L2: column 0: (0+1+4)/3; column 1: 2/3; column 2: 5/3 → mean 4/3.
	l2, err := um.Loss(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(l2-4.0/3.0) > 1e-12 {
		t.Fatalf("L2 loss %v, want 4/3", l2)
	}
}

func TestLossWeightsValidation(t *testing.T) {
	m := mustUM(t, 2)
	if _, err := m.Loss(1, []float64{0.5, 0.5}); err == nil {
		t.Error("short weights accepted")
	}
	if _, err := m.Loss(1, []float64{0.5, 0.6, 0.2}); err == nil {
		t.Error("weights not summing to 1 accepted")
	}
	if _, err := m.Loss(1, []float64{-0.5, 1, 0.5}); err == nil {
		t.Error("negative weight accepted")
	}
	if _, err := m.Loss(1, []float64{1, 0, 0}); err != nil {
		t.Errorf("valid point-mass weights rejected: %v", err)
	}
}

func TestMaxLoss(t *testing.T) {
	gm := mustGM(t, 4, 0.9)
	avg, err := gm.Loss(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	worst, err := gm.MaxLoss(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	// max over j of w_j·colLoss ≥ mean of the same terms / (n+1) relation:
	// with uniform weights, MaxLoss ≥ Loss/(n+1) trivially; sanity check
	// the stronger property worst·(n+1) ≥ avg.
	if worst*5 < avg-1e-12 {
		t.Fatalf("MaxLoss %v inconsistent with Loss %v", worst, avg)
	}
}

func TestL0MatchesEquationOne(t *testing.T) {
	for _, alpha := range []float64{0.3, 0.62, 0.9} {
		for _, n := range []int{2, 5, 9} {
			m := mustGM(t, n, alpha)
			want := float64(n+1)/float64(n) - m.Trace()/float64(n)
			if got := m.L0(); math.Abs(got-want) > 1e-12 {
				t.Errorf("L0(n=%d, a=%v) = %v, want %v", n, alpha, got, want)
			}
			// L0Weighted with uniform weights must agree.
			lw, err := m.L0Weighted(nil)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(lw-want) > 1e-12 {
				t.Errorf("L0Weighted(n=%d, a=%v) = %v, want %v", n, alpha, lw, want)
			}
		}
	}
}

func TestUniformL0IsOne(t *testing.T) {
	for _, n := range []int{1, 2, 7, 20} {
		if got := mustUM(t, n).L0(); math.Abs(got-1) > 1e-12 {
			t.Errorf("UM L0(n=%d) = %v, want 1", n, got)
		}
	}
}

func TestL0D(t *testing.T) {
	m := mustGM(t, 6, 0.8)
	d0, err := m.L0D(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d0-m.L0()) > 1e-12 {
		t.Fatalf("L0D(0) = %v != L0 = %v", d0, m.L0())
	}
	// Monotone non-increasing in d.
	prev := d0
	for d := 1; d <= 6; d++ {
		v, err := m.L0D(d, nil)
		if err != nil {
			t.Fatal(err)
		}
		if v > prev+1e-12 {
			t.Fatalf("L0D(%d) = %v > L0D(%d) = %v", d, v, d-1, prev)
		}
		prev = v
	}
	// Beyond the domain diameter the tail is empty.
	v, err := m.L0D(6, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0 {
		t.Fatalf("L0D(n) = %v, want 0", v)
	}
	if _, err := m.L0D(-1, nil); err == nil {
		t.Error("negative d accepted")
	}
}

func TestTruthProb(t *testing.T) {
	um := mustUM(t, 4)
	tp, err := um.TruthProb(nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tp-0.2) > 1e-12 {
		t.Fatalf("UM truth prob %v, want 0.2", tp)
	}
	// Point-mass prior reads a single diagonal entry.
	gm := mustGM(t, 4, 0.9)
	tp, err = gm.TruthProb([]float64{1, 0, 0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tp-gm.Prob(0, 0)) > 1e-12 {
		t.Fatalf("point-mass truth prob %v, want %v", tp, gm.Prob(0, 0))
	}
}

func TestRMSESquaredIsLoss2(t *testing.T) {
	m := mustEM(t, 5, 0.8)
	r, err := m.RMSE(nil)
	if err != nil {
		t.Fatal(err)
	}
	l2, err := m.Loss(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r*r-l2) > 1e-12 {
		t.Fatalf("RMSE^2 = %v != Loss(2) = %v", r*r, l2)
	}
}

func TestExpectedErrorsDelegation(t *testing.T) {
	m := mustGM(t, 4, 0.7)
	abs1, err := m.ExpectedAbsError(nil)
	if err != nil {
		t.Fatal(err)
	}
	l1, _ := m.Loss(1, nil)
	if abs1 != l1 {
		t.Error("ExpectedAbsError != Loss(1)")
	}
	sq, err := m.ExpectedSqError(nil)
	if err != nil {
		t.Fatal(err)
	}
	l2, _ := m.Loss(2, nil)
	if sq != l2 {
		t.Error("ExpectedSqError != Loss(2)")
	}
}

func TestGapsAndSpikes(t *testing.T) {
	// Craft a mechanism that never reports output 1:
	// columns concentrate on outputs 0 and 2.
	p := mat.NewDense(3, 3)
	for j := 0; j < 3; j++ {
		p.Set(0, j, 0.5)
		p.Set(2, j, 0.5)
	}
	m, err := New("gappy", 2, 0, p)
	if err != nil {
		t.Fatal(err)
	}
	gaps := m.Gaps(0)
	if len(gaps) != 1 || gaps[0] != 1 {
		t.Fatalf("Gaps = %v, want [1]", gaps)
	}
	spikes := m.Spikes()
	if spikes[0] != 0.5 || spikes[1] != 0 || spikes[2] != 0.5 {
		t.Fatalf("Spikes = %v", spikes)
	}
	// GM has no gaps.
	if g := mustGM(t, 5, 0.9).Gaps(0); len(g) != 0 {
		t.Fatalf("GM gaps = %v", g)
	}
}
