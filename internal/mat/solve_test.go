package mat_test

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"privcount/internal/core"
	"privcount/internal/design"
	"privcount/internal/mat"
)

// referenceSolveLinear is the textbook elimination SolveLinear replaced,
// kept verbatim on the bounds-checked At/Set accessors: the row-slice
// kernel must reproduce its output bit for bit, so the debias vectors
// stored in PCA1 artifacts do not move.
func referenceSolveLinear(a *mat.Dense, b []float64) ([]float64, error) {
	n := a.Rows()
	if a.Cols() != n {
		return nil, fmt.Errorf("mat: SolveLinear with %d×%d matrix: %w", a.Rows(), a.Cols(), mat.ErrShape)
	}
	if len(b) != n {
		return nil, fmt.Errorf("mat: SolveLinear with rhs of length %d, want %d: %w", len(b), n, mat.ErrShape)
	}

	// Working copies.
	work := a.Clone()
	x := make([]float64, n)
	copy(x, b)

	for col := 0; col < n; col++ {
		// Partial pivot.
		pivot := col
		best := math.Abs(work.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := math.Abs(work.At(r, col)); v > best {
				best = v
				pivot = r
			}
		}
		if best < 1e-13 {
			return nil, fmt.Errorf("mat: pivot %g at column %d: %w", best, col, mat.ErrSingular)
		}
		if pivot != col {
			for j := 0; j < n; j++ {
				vc, vp := work.At(col, j), work.At(pivot, j)
				work.Set(col, j, vp)
				work.Set(pivot, j, vc)
			}
			x[col], x[pivot] = x[pivot], x[col]
		}
		inv := 1 / work.At(col, col)
		for r := col + 1; r < n; r++ {
			f := work.At(r, col) * inv
			if f == 0 {
				continue
			}
			for j := col; j < n; j++ {
				work.Set(r, j, work.At(r, j)-f*work.At(col, j))
			}
			x[r] -= f * x[col]
		}
	}
	// Back substitution.
	for r := n - 1; r >= 0; r-- {
		s := x[r]
		for j := r + 1; j < n; j++ {
			s -= work.At(r, j) * x[j]
		}
		x[r] = s / work.At(r, r)
	}
	return x, nil
}

// sameBits fails unless got and want agree bit for bit.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d entries, reference %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: x[%d] = %v (%#x), reference %v (%#x)",
				what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// checkMatchesReference solves a·x = b with SolveLinear, and aᵀ·x = b
// with SolveTransposed, and requires the reference's bits — or, when the
// reference fails, the same error text (same column, same pivot). It
// reports whether the reference failed on a itself.
func checkMatchesReference(t *testing.T, what string, a *mat.Dense, b []float64) (singular bool) {
	t.Helper()
	for _, tr := range []bool{false, true} {
		var got, want []float64
		var gotErr, wantErr error
		name := what
		if tr {
			name += " (transposed)"
			got, gotErr = mat.SolveTransposed(a, b)
			want, wantErr = referenceSolveLinear(a.Transpose(), b)
		} else {
			got, gotErr = mat.SolveLinear(a, b)
			want, wantErr = referenceSolveLinear(a, b)
		}
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("%s: error %v, reference error %v", name, gotErr, wantErr)
		}
		if wantErr != nil {
			if gotErr.Error() != wantErr.Error() || !errors.Is(gotErr, mat.ErrSingular) {
				t.Fatalf("%s: error %q, reference %q", name, gotErr, wantErr)
			}
			singular = singular || !tr
			continue
		}
		sameBits(t, name, got, want)
	}
	return singular
}

func randomSystem(rng *rand.Rand, n int) (*mat.Dense, []float64) {
	a := mat.NewDense(n, n)
	b := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a.Set(i, j, rng.NormFloat64())
		}
		b[i] = rng.NormFloat64()
	}
	return a, b
}

func TestSolveLinearBitIdenticalRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(20181016))
	for _, n := range []int{1, 2, 7, 64, 257} {
		for trial := 0; trial < 3; trial++ {
			a, b := randomSystem(rng, n)
			checkMatchesReference(t, fmt.Sprintf("n=%d trial %d", n, trial), a, b)
		}
	}
}

func TestSolveLinearBitIdenticalRowSwaps(t *testing.T) {
	// A reversed diagonal forces a swap at every early column; a
	// Vandermonde-like growth puts each column's largest entry low; a
	// ±1 first column ties every pivot candidate, which only the strict
	// ">" pivot rule resolves the reference's way.
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{2, 5, 16, 33} {
		rev := mat.NewDense(n, n)
		grow := mat.NewDense(n, n)
		ties, b := randomSystem(rng, n)
		for i := 0; i < n; i++ {
			rev.Set(i, n-1-i, float64(i+1))
			rev.Set(i, i, rev.At(i, i)+1e-3)
			for j := 0; j < n; j++ {
				grow.Set(i, j, math.Pow(1+float64(i)/float64(n), float64(j))+0.01*float64((i*7+j*3)%5))
			}
			ties.Set(i, 0, float64(1-2*(i%2)))
			b[i] = float64(i) - 0.5*float64(n)
		}
		checkMatchesReference(t, fmt.Sprintf("reversed n=%d", n), rev, b)
		checkMatchesReference(t, fmt.Sprintf("growth n=%d", n), grow, b)
		checkMatchesReference(t, fmt.Sprintf("ties n=%d", n), ties, b)
	}
}

func TestSolveLinearSingularMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{3, 8, 40} {
		// Exactly singular: row 1 is twice row 0, so elimination hits a
		// zero pivot at some column.
		a, b := randomSystem(rng, n)
		for j := 0; j < n; j++ {
			a.Set(1, j, 2*a.At(0, j))
		}
		if !checkMatchesReference(t, fmt.Sprintf("singular n=%d", n), a, b) {
			t.Fatalf("singular n=%d: the reference solved an exactly singular system", n)
		}

		// Near-singular on both sides of the 1e-13 pivot cut: a last
		// column equal to the sum of the others plus eps·e_last.
		failed := 0
		for _, eps := range []float64{1e-12, 1e-13, 5e-14, 0} {
			c, b2 := randomSystem(rng, n)
			for i := 0; i < n; i++ {
				var s float64
				for j := 0; j < n-1; j++ {
					s += c.At(i, j)
				}
				c.Set(i, n-1, s)
			}
			c.Set(n-1, n-1, c.At(n-1, n-1)+eps)
			if checkMatchesReference(t, fmt.Sprintf("near-singular n=%d eps=%g", n, eps), c, b2) {
				failed++
			}
		}
		if failed == 0 || failed == 4 {
			t.Errorf("near-singular n=%d: the reference failed %d of 4 systems; the sweep must straddle the pivot cut", n, failed)
		}
	}
}

func TestSolveTransposedDoesNotMutate(t *testing.T) {
	a, b := randomSystem(rand.New(rand.NewSource(3)), 9)
	before := a.Clone()
	bb := append([]float64(nil), b...)
	if _, err := mat.SolveTransposed(a, b); err != nil {
		t.Fatal(err)
	}
	if d, _ := a.MaxAbsDiff(before); d != 0 {
		t.Error("SolveTransposed mutated its matrix")
	}
	sameBits(t, "rhs", b, bb)
	if _, err := mat.SolveTransposed(mat.NewDense(2, 3), []float64{1, 2}); !errors.Is(err, mat.ErrShape) {
		t.Errorf("non-square: error %v, want ErrShape", err)
	}
}

// TestUnbiasedEstimatorMatchesReference pins the debias vectors served
// in PCA1 artifacts: UnbiasedEstimator's one-copy transposed solve must
// give the reference elimination's bits on Pᵀ.
func TestUnbiasedEstimatorMatchesReference(t *testing.T) {
	var mechs []*core.Mechanism
	for _, n := range []int{16, 256} {
		gm, err := core.Geometric(n, 0.8)
		if err != nil {
			t.Fatal(err)
		}
		em, err := core.Exponential(n, 0.8, nil)
		if err != nil {
			t.Fatal(err)
		}
		mechs = append(mechs, gm, em)
	}
	props, err := core.ParseProperties("RM+CM")
	if err != nil {
		t.Fatal(err)
	}
	res, err := design.Solve(design.Problem{N: 24, Alpha: 0.85, Props: props})
	if err != nil {
		t.Fatal(err)
	}
	mechs = append(mechs, res.Mechanism)
	for _, m := range mechs {
		target := make([]float64, m.N()+1)
		for j := range target {
			target[j] = float64(j)
		}
		want, err := referenceSolveLinear(m.Matrix().Transpose(), target)
		if err != nil {
			t.Fatalf("%s n=%d: reference: %v", m.Name(), m.N(), err)
		}
		got, err := m.UnbiasedEstimator()
		if err != nil {
			t.Fatalf("%s n=%d: %v", m.Name(), m.N(), err)
		}
		sameBits(t, fmt.Sprintf("%s n=%d", m.Name(), m.N()), got, want)
	}
}

// kmsSystem is the Kac–Murdock–Szegő matrix α^|i−j| that the geometric
// mechanism's debias system is built on.
func kmsSystem(n int, alpha float64) (*mat.Dense, []float64) {
	a := mat.NewDense(n, n)
	b := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a.Set(i, j, math.Pow(alpha, math.Abs(float64(i-j))))
		}
		b[i] = float64(i)
	}
	return a, b
}

var solveSink []float64

// BenchmarkSolveLinear times the dense debias kernel at the (n+1)² sizes
// of n=128 and n=512 mechanisms.
func BenchmarkSolveLinear(b *testing.B) {
	for _, n := range []int{129, 513} {
		a, rhs := kmsSystem(n, 0.9)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				x, err := mat.SolveLinear(a, rhs)
				if err != nil {
					b.Fatal(err)
				}
				solveSink = x
			}
		})
	}
}
