package mat

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// csc is a sparse matrix held column by column, so factorizing it calls
// back into slices that already exist and allocates nothing.
type csc struct {
	n    int
	rows [][]int32
	vals [][]float64
}

func (a *csc) col(k int) ([]int32, []float64) { return a.rows[k], a.vals[k] }

// randomBasis builds an n×n simplex-like basis: a slack singleton in
// most columns and short structural columns elsewhere, with a dominant
// entry on the diagonal so it factorizes.
func randomBasis(rng *rand.Rand, n int) *csc {
	a := &csc{n: n, rows: make([][]int32, n), vals: make([][]float64, n)}
	for k := 0; k < n; k++ {
		seen := map[int32]bool{int32(k): true}
		a.rows[k] = append(a.rows[k], int32(k))
		a.vals[k] = append(a.vals[k], 2+rng.Float64())
		if rng.Intn(3) == 0 {
			continue // slack singleton
		}
		for e := rng.Intn(4); e >= 0; e-- {
			i := int32(rng.Intn(n))
			if seen[i] {
				continue
			}
			seen[i] = true
			a.rows[k] = append(a.rows[k], i)
			a.vals[k] = append(a.vals[k], rng.NormFloat64())
		}
	}
	return a
}

// singularBasis is randomBasis with two identical columns.
func singularBasis(rng *rand.Rand, n int) *csc {
	a := randomBasis(rng, n)
	a.rows[n-1] = append([]int32(nil), a.rows[0]...)
	a.vals[n-1] = append([]float64(nil), a.vals[0]...)
	return a
}

// solveTrace runs every solve a SparseLU offers on fixed right-hand
// sides and records each result bit for bit, returned patterns included.
func solveTrace(f *SparseLU, rng *rand.Rand) []uint64 {
	n := f.Order()
	var out []uint64
	record := func(x []float64, pat []int32) {
		for _, v := range x {
			out = append(out, math.Float64bits(v))
		}
		out = append(out, uint64(len(pat)))
		for _, i := range pat {
			out = append(out, uint64(i))
		}
	}
	dense := make([]float64, n)
	for i := range dense {
		dense[i] = rng.NormFloat64()
	}
	x := append([]float64(nil), dense...)
	f.SolveVec(x)
	record(x, nil)
	x = append(x[:0], dense...)
	f.SolveTransposeVec(x)
	record(x, nil)
	for _, nnz := range []int{1, 2, n/8 + 1, n / 2} {
		pat := make([]int32, 0, nnz)
		x := make([]float64, n)
		for _, i := range rng.Perm(n)[:nnz] {
			pat = append(pat, int32(i))
			x[i] = rng.NormFloat64()
		}
		y := append([]float64(nil), x...)
		record(x, f.FtranSparse(x, pat))
		record(y, f.BtranSparse(y, pat))
	}
	return out
}

func equalTraces(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestRefactorMatchesFreshFactor factors a sequence of bases into one
// SparseLU — same order, then a singular basis, then a change of order
// and back — and requires every solve on the reused factorization to be
// bit-identical to the same solve on a fresh FactorSparse.
func TestRefactorMatchesFreshFactor(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	var f SparseLU
	steps := []struct {
		n        int
		singular bool
	}{
		{60, false}, {60, false}, {60, false},
		{60, true}, {60, false}, // after ErrSingular
		{60, true}, {90, false}, // failed, then a change of order
		{90, false}, {25, false}, {25, true}, {25, false}, {60, false},
	}
	for s, st := range steps {
		var a *csc
		if st.singular {
			a = singularBasis(rng, st.n)
		} else {
			a = randomBasis(rng, st.n)
		}
		err := f.Refactor(nil, a.n, a.col)
		if st.singular {
			if !errors.Is(err, ErrSingular) {
				t.Fatalf("step %d: Refactor of a singular basis: %v, want ErrSingular", s, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("step %d: Refactor: %v", s, err)
		}
		fresh, err := FactorSparse(a.n, a.col)
		if err != nil {
			t.Fatalf("step %d: FactorSparse: %v", s, err)
		}
		if f.NNZ() != fresh.NNZ() {
			t.Fatalf("step %d: NNZ %d after Refactor, %d fresh", s, f.NNZ(), fresh.NNZ())
		}
		seed := rng.Int63()
		got := solveTrace(&f, rand.New(rand.NewSource(seed)))
		want := solveTrace(fresh, rand.New(rand.NewSource(seed)))
		if !equalTraces(got, want) {
			t.Fatalf("step %d (n=%d): solves on the refactored LU differ from a fresh factorization", s, a.n)
		}
		for i, v := range f.sx {
			if v != 0 {
				t.Fatalf("step %d: sparse accumulator not cleared at %d: %v", s, i, v)
			}
		}
	}
}

// TestRefactorFailureLeavesNoFactor pins that a failed Refactor leaves
// nothing a solve could silently use.
func TestRefactorFailureLeavesNoFactor(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var f SparseLU
	a := randomBasis(rng, 30)
	if err := f.Refactor(nil, a.n, a.col); err != nil {
		t.Fatal(err)
	}
	bad := singularBasis(rng, 30)
	if err := f.Refactor(nil, bad.n, bad.col); !errors.Is(err, ErrSingular) {
		t.Fatalf("Refactor of a singular basis: %v, want ErrSingular", err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("SolveVec after a failed Refactor did not panic")
		}
	}()
	f.SolveVec(make([]float64, 30))
}

// TestRefactorAllocatesNothing pins that refactoring a same-order basis,
// and running the sparse solves that rebuild the transpose mirrors,
// allocates nothing once the factorization's storage is large enough.
func TestRefactorAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n = 200
	bases := []*csc{randomBasis(rng, n), randomBasis(rng, n), randomBasis(rng, n)}
	x := make([]float64, n)
	pat := []int32{3}
	var f SparseLU
	run := func(a *csc) {
		if err := f.Refactor(nil, n, a.col); err != nil {
			t.Fatal(err)
		}
		x[3] = 1
		f.FtranSparse(x, pat)
		clear(x)
		x[3] = 1
		f.BtranSparse(x, pat)
		clear(x)
	}
	for _, a := range bases {
		run(a)
	}
	k := 0
	allocs := testing.AllocsPerRun(30, func() {
		run(bases[k%len(bases)])
		k++
	})
	if allocs != 0 {
		t.Fatalf("same-order Refactor plus sparse solves: %v allocs per run, want 0", allocs)
	}
}
