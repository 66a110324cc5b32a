package mat

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular reports a numerically singular matrix in SolveLinear.
var ErrSingular = errors.New("mat: singular matrix")

// SolveLinear solves A·x = b by Gaussian elimination with partial
// pivoting. A must be square and is not modified. It is used to derive
// unbiased (debiasing) estimators from mechanism matrices, which are small
// and well conditioned for the α ranges of interest.
func SolveLinear(a *Dense, b []float64) ([]float64, error) {
	if err := checkSolveShape(a, b); err != nil {
		return nil, err
	}
	work := make([]float64, len(a.data))
	copy(work, a.data)
	return solveInPlace(work, a.rows, b)
}

// SolveTransposed solves Aᵀ·x = b exactly as SolveLinear(a.Transpose(), b)
// would, bit for bit, but builds the transpose straight into its one
// working copy. A must be square and is not modified.
func SolveTransposed(a *Dense, b []float64) ([]float64, error) {
	if err := checkSolveShape(a, b); err != nil {
		return nil, err
	}
	n := a.rows
	work := make([]float64, len(a.data))
	for i := 0; i < n; i++ {
		row := a.data[i*n : (i+1)*n]
		for j, v := range row {
			work[j*n+i] = v
		}
	}
	return solveInPlace(work, n, b)
}

func checkSolveShape(a *Dense, b []float64) error {
	n := a.Rows()
	if a.Cols() != n {
		return fmt.Errorf("mat: SolveLinear with %d×%d matrix: %w", a.Rows(), a.Cols(), ErrShape)
	}
	if len(b) != n {
		return fmt.Errorf("mat: SolveLinear with rhs of length %d, want %d: %w", len(b), n, ErrShape)
	}
	return nil
}

// solveInPlace runs the elimination on work, an n×n row-major buffer it
// owns and overwrites, and returns x with work·x = b. Rows are handled as
// sub-slices of the flat buffer, so the inner loops carry no per-element
// index checks. Entries left of the diagonal are never read once their
// column is eliminated, so row swaps start at the pivot column and
// updates right of it; the floating-point operations on every entry that
// is read, and their order, are those of the textbook loop, so the result
// is bit-identical to it.
func solveInPlace(work []float64, n int, b []float64) ([]float64, error) {
	x := make([]float64, n)
	copy(x, b)

	for col := 0; col < n; col++ {
		// Partial pivot.
		pivot := col
		best := math.Abs(work[col*n+col])
		for r := col + 1; r < n; r++ {
			if v := math.Abs(work[r*n+col]); v > best {
				best = v
				pivot = r
			}
		}
		if best < 1e-13 {
			return nil, fmt.Errorf("mat: pivot %g at column %d: %w", best, col, ErrSingular)
		}
		pivRow := work[col*n+col : (col+1)*n]
		if pivot != col {
			other := work[pivot*n+col : (pivot+1)*n]
			for j := range pivRow {
				pivRow[j], other[j] = other[j], pivRow[j]
			}
			x[col], x[pivot] = x[pivot], x[col]
		}
		inv := 1 / pivRow[0]
		tail := pivRow[1:]
		for r := col + 1; r < n; r++ {
			f := work[r*n+col] * inv
			if f == 0 {
				continue
			}
			row := work[r*n+col+1 : (r+1)*n]
			row = row[:len(tail)]
			for j, v := range tail {
				row[j] -= f * v
			}
			x[r] -= f * x[col]
		}
	}
	// Back substitution.
	for r := n - 1; r >= 0; r-- {
		row := work[r*n+r : (r+1)*n]
		known := x[r+1:]
		known = known[:len(row)-1]
		s := x[r]
		for j, v := range row[1:] {
			s -= v * known[j]
		}
		x[r] = s / row[0]
	}
	return x, nil
}
