package core

import (
	"math"
	"testing"

	"privcount/internal/rng"
)

func TestSamplerMatchesMatrix(t *testing.T) {
	m, err := Geometric(4, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSampler(m)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(7)
	const trials = 200000
	for _, j := range []int{0, 2, 4} {
		counts := make([]int, 5)
		for k := 0; k < trials; k++ {
			counts[s.Sample(src, j)]++
		}
		var chi2 float64
		for i := 0; i <= 4; i++ {
			expected := m.Prob(i, j) * trials
			if expected < 1 {
				continue
			}
			d := float64(counts[i]) - expected
			chi2 += d * d / expected
		}
		// 4 dof: P(chi2 > 23.5) < 1e-4.
		if chi2 > 23.5 {
			t.Errorf("column %d: chi-square %v; counts %v", j, chi2, counts)
		}
	}
}

func TestSampleManyAppends(t *testing.T) {
	m, err := ExplicitFair(3, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSampler(m)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(9)
	js := []int{0, 1, 2, 3, 3, 0}
	out := s.SampleMany(src, js, nil)
	if len(out) != len(js) {
		t.Fatalf("got %d outputs for %d inputs", len(out), len(js))
	}
	for _, v := range out {
		if v < 0 || v > 3 {
			t.Fatalf("output %d out of range", v)
		}
	}
	// Appending to an existing slice keeps its prefix.
	prefix := []int{42}
	out2 := s.SampleMany(src, js[:2], prefix)
	if len(out2) != 3 || out2[0] != 42 {
		t.Fatalf("SampleMany did not append: %v", out2)
	}
}

func TestSampleIntoMatchesAllocatingPath(t *testing.T) {
	m, err := Geometric(8, 0.75)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSampler(m)
	if err != nil {
		t.Fatal(err)
	}
	// A mix of sorted runs of equal counts and alternation between
	// columns.
	js := []int{0, 0, 0, 3, 3, 8, 1, 8, 1, 5, 5, 5, 5, 2}
	want := s.SampleMany(rng.New(17), js, nil)
	got := make([]int, len(js))
	s.SampleManyInto(rng.New(17), js, got)
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("SampleManyInto draw %d: %d != SampleMany %d", k, got[k], want[k])
		}
	}

	wantBatch := s.SampleBatch(rng.New(23), 4, 64, nil)
	gotBatch := make([]int, 64)
	s.SampleBatchInto(rng.New(23), 4, gotBatch)
	for k := range wantBatch {
		if gotBatch[k] != wantBatch[k] {
			t.Fatalf("SampleBatchInto draw %d: %d != SampleBatch %d", k, gotBatch[k], wantBatch[k])
		}
	}
}

func TestSampleIntoDoesNotAllocate(t *testing.T) {
	m, err := Geometric(8, 0.75)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSampler(m)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(5)
	js := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 8, 8, 8}
	dst := make([]int, len(js))
	if n := testing.AllocsPerRun(100, func() { s.SampleManyInto(src, js, dst) }); n != 0 {
		t.Errorf("SampleManyInto allocated %.1f times per run", n)
	}
	if n := testing.AllocsPerRun(100, func() { s.SampleBatchInto(src, 3, dst) }); n != 0 {
		t.Errorf("SampleBatchInto allocated %.1f times per run", n)
	}
}

func TestSampleManyIntoPanicsOnShortDst(t *testing.T) {
	m, err := Uniform(3)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSampler(m)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("SampleManyInto with short dst did not panic")
		}
	}()
	s.SampleManyInto(rng.New(1), []int{0, 1, 2}, make([]int, 2))
}

func TestSamplePanicsOutOfRange(t *testing.T) {
	m, err := Uniform(2)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSampler(m)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("Sample with out-of-range input did not panic")
		}
	}()
	s.Sample(rng.New(1), 5)
}

func TestSampleBatchIntoPanicsOutOfRangeOnEmptyBatch(t *testing.T) {
	m, err := Uniform(2)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSampler(m)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("SampleBatchInto with an out-of-range input and no draws did not panic")
		}
	}()
	s.SampleBatchInto(rng.New(1), 3, nil)
}

func TestSamplerDeterministicWithSeed(t *testing.T) {
	m, err := Geometric(5, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSampler(m)
	if err != nil {
		t.Fatal(err)
	}
	a := s.SampleMany(rng.New(3), []int{0, 1, 2, 3, 4, 5}, nil)
	b := s.SampleMany(rng.New(3), []int{0, 1, 2, 3, 4, 5}, nil)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different samples")
		}
	}
}

func TestSamplerEmpiricalMeanTracksBias(t *testing.T) {
	// For GM with input at the midpoint, bias is ~0 by symmetry; the
	// empirical mean must land near the analytic conditional mean.
	m, err := Geometric(6, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSampler(m)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(11)
	const trials = 100000
	var sum float64
	for k := 0; k < trials; k++ {
		sum += float64(s.Sample(src, 3))
	}
	want := 3 + m.Bias()[3]
	if got := sum / trials; math.Abs(got-want) > 0.02 {
		t.Errorf("empirical mean %v, analytic %v", got, want)
	}
}

func TestSamplerQuantileMatchesCDF(t *testing.T) {
	m, err := ExplicitFair(9, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j <= m.N(); j++ {
		cdf := m.CDF(j)
		if math.Abs(cdf[m.N()]-1) > 1e-12 {
			t.Fatalf("column %d CDF does not end at 1: %v", j, cdf[m.N()])
		}
		// Quantile must return the smallest i with cdf[i] >= u.
		for _, u := range []float64{0, 1e-9, 0.25, 0.5, 0.75, 0.999999} {
			i := m.Quantile(j, u)
			if cdf[i] < u {
				t.Fatalf("Quantile(%d, %v) = %d but cdf[%d] = %v < u", j, u, i, i, cdf[i])
			}
			if i > 0 && cdf[i-1] >= u {
				t.Fatalf("Quantile(%d, %v) = %d not minimal: cdf[%d] = %v", j, u, i, i-1, cdf[i-1])
			}
		}
	}
}

func TestSamplerInverseDistribution(t *testing.T) {
	m, err := Geometric(5, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(7)
	const trials = 200000
	counts := make([]float64, m.N()+1)
	for k := 0; k < trials; k++ {
		counts[m.SampleInverse(src, 2)]++
	}
	for i := 0; i <= m.N(); i++ {
		got := counts[i] / trials
		want := m.Prob(i, 2)
		if math.Abs(got-want) > 0.01 {
			t.Errorf("output %d: empirical %v, want %v", i, got, want)
		}
	}
}

func TestSampleBatchMatchesSingleShot(t *testing.T) {
	m, err := Geometric(8, 0.75)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSampler(m)
	if err != nil {
		t.Fatal(err)
	}
	batch := s.SampleBatch(rng.New(42), 3, 50, nil)
	single := make([]int, 0, 50)
	src := rng.New(42)
	for k := 0; k < 50; k++ {
		single = append(single, s.Sample(src, 3))
	}
	for k := range batch {
		if batch[k] != single[k] {
			t.Fatalf("draw %d: batch %d != single %d", k, batch[k], single[k])
		}
	}
	js := []int{0, 8, 4, 1, 7}
	many := s.SampleMany(rng.New(9), js, nil)
	src = rng.New(9)
	for k, j := range js {
		if got := s.Sample(src, j); got != many[k] {
			t.Fatalf("SampleMany draw %d: %d != %d", k, many[k], got)
		}
	}
}
