package rng

import (
	"math"
	"testing"
	"testing/quick"
)

// newAlias builds a one-column slab for weights.
func newAlias(weights []float64) (AliasSlab, error) {
	s := NewAliasSlab(len(weights), 1)
	prob, alias := s.Column(0)
	return s, new(Vose).Fill(prob, alias, weights)
}

func TestNewAliasErrors(t *testing.T) {
	cases := []struct {
		name    string
		weights []float64
	}{
		{"empty", nil},
		{"negative", []float64{0.5, -0.1}},
		{"nan", []float64{0.5, math.NaN()}},
		{"inf", []float64{math.Inf(1)}},
		{"all zero", []float64{0, 0, 0}},
	}
	for _, c := range cases {
		if _, err := newAlias(c.weights); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestAliasN(t *testing.T) {
	a, err := newAlias([]float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if prob, alias := a.Column(0); len(prob) != 3 || len(alias) != 3 {
		t.Fatalf("column has %d/%d slots, want 3", len(prob), len(alias))
	}
}

func TestAliasPointMass(t *testing.T) {
	a, err := newAlias([]float64{0, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	r := New(1)
	for i := 0; i < 1000; i++ {
		if got := a.Sample(r, 0); got != 1 {
			t.Fatalf("point mass sampled %d", got)
		}
	}
}

func TestAliasUniform(t *testing.T) {
	a, err := newAlias([]float64{1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	r := New(2)
	counts := make([]int, 4)
	const trials = 100000
	for i := 0; i < trials; i++ {
		counts[a.Sample(r, 0)]++
	}
	for i, c := range counts {
		if math.Abs(float64(c)/trials-0.25) > 0.01 {
			t.Errorf("outcome %d rate %v, want 0.25", i, float64(c)/trials)
		}
	}
}

func TestAliasUnnormalizedWeights(t *testing.T) {
	// Weights need not sum to 1; only ratios matter.
	a, err := newAlias([]float64{3, 1})
	if err != nil {
		t.Fatal(err)
	}
	r := New(3)
	const trials = 100000
	zero := 0
	for i := 0; i < trials; i++ {
		if a.Sample(r, 0) == 0 {
			zero++
		}
	}
	if rate := float64(zero) / trials; math.Abs(rate-0.75) > 0.01 {
		t.Fatalf("Pr[0] = %v, want 0.75", rate)
	}
}

func TestAliasChiSquare(t *testing.T) {
	weights := []float64{0.05, 0.3, 0.15, 0.4, 0.1}
	a, err := newAlias(weights)
	if err != nil {
		t.Fatal(err)
	}
	r := New(5)
	const trials = 200000
	counts := make([]int, len(weights))
	for i := 0; i < trials; i++ {
		counts[a.Sample(r, 0)]++
	}
	var chi2 float64
	for i, w := range weights {
		expected := w * trials
		d := float64(counts[i]) - expected
		chi2 += d * d / expected
	}
	// 4 degrees of freedom: P(chi2 > 23.5) < 1e-4.
	if chi2 > 23.5 {
		t.Fatalf("chi-square %v too large; counts %v", chi2, counts)
	}
}

func TestAliasMatchesWeightsProperty(t *testing.T) {
	f := func(raw [4]uint8) bool {
		weights := make([]float64, 4)
		var sum float64
		for i, v := range raw {
			weights[i] = float64(v%16) + 0.01
			sum += weights[i]
		}
		a, err := newAlias(weights)
		if err != nil {
			return false
		}
		r := New(uint64(raw[0])<<8 | uint64(raw[1]))
		const trials = 20000
		counts := make([]int, 4)
		for i := 0; i < trials; i++ {
			counts[a.Sample(r, 0)]++
		}
		for i := range weights {
			want := weights[i] / sum
			got := float64(counts[i]) / trials
			if math.Abs(got-want) > 0.03 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestVoseFillReusesScratch fills tables of shrinking and growing sizes
// from one Vose and checks each against a fresh one-column slab: reused
// scratch must not carry state from one fill into the next.
func TestVoseFillReusesScratch(t *testing.T) {
	var v Vose
	for _, weights := range [][]float64{
		{0.05, 0.3, 0.15, 0.4, 0.1},
		{3, 1},
		{1, 0, 2, 0, 5, 1, 1},
		{0.2, 0.2, 0.6},
	} {
		prob, alias := make([]float64, len(weights)), make([]int32, len(weights))
		if err := v.Fill(prob, alias, weights); err != nil {
			t.Fatal(err)
		}
		want, err := newAlias(weights)
		if err != nil {
			t.Fatal(err)
		}
		wantProb, wantAlias := want.Column(0)
		for i := range weights {
			if prob[i] != wantProb[i] || alias[i] != wantAlias[i] {
				t.Fatalf("weights %v slot %d: reused fill (%v, %d), fresh (%v, %d)",
					weights, i, prob[i], alias[i], wantProb[i], wantAlias[i])
			}
		}
	}
	if err := v.Fill(make([]float64, 2), make([]int32, 3), []float64{1, 1, 1}); err == nil {
		t.Error("Fill into a short probability slice did not fail")
	}
}
