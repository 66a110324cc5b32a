// Package mat provides the small dense-matrix kernel used throughout
// privcount. Mechanisms are (n+1)×(n+1) column-stochastic matrices, so the
// package is deliberately minimal: dense float64 storage, the handful of
// algebraic operations mechanism design needs (trace, transpose,
// centro-transpose, affine combinations), and tolerant comparisons.
//
// The zero value of Dense is not usable; construct matrices with NewDense
// or FromRows.
package mat

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// Dense is a dense, row-major matrix of float64 values.
type Dense struct {
	rows, cols int
	data       []float64
}

// ErrShape reports incompatible matrix dimensions.
var ErrShape = errors.New("mat: incompatible matrix shapes")

// NewDense returns an r×c matrix of zeros.
// It panics if r or c is not positive.
func NewDense(r, c int) *Dense {
	if r <= 0 || c <= 0 {
		panic(fmt.Sprintf("mat: NewDense(%d, %d): dimensions must be positive", r, c))
	}
	return &Dense{rows: r, cols: c, data: make([]float64, r*c)}
}

// FromRows builds a matrix from row slices. All rows must have equal,
// nonzero length. The data is copied.
func FromRows(rows [][]float64) (*Dense, error) {
	if len(rows) == 0 || len(rows[0]) == 0 {
		return nil, fmt.Errorf("mat: FromRows: empty input: %w", ErrShape)
	}
	c := len(rows[0])
	m := NewDense(len(rows), c)
	for i, row := range rows {
		if len(row) != c {
			return nil, fmt.Errorf("mat: FromRows: row %d has %d entries, want %d: %w", i, len(row), c, ErrShape)
		}
		copy(m.data[i*c:(i+1)*c], row)
	}
	return m, nil
}

// FromRowMajor builds an r×c matrix from row-major data. The data is
// copied; len(data) must be exactly r*c.
func FromRowMajor(r, c int, data []float64) (*Dense, error) {
	if r <= 0 || c <= 0 {
		return nil, fmt.Errorf("mat: FromRowMajor(%d, %d): dimensions must be positive: %w", r, c, ErrShape)
	}
	if len(data) != r*c {
		return nil, fmt.Errorf("mat: FromRowMajor: %d entries for a %d×%d matrix, want %d: %w", len(data), r, c, r*c, ErrShape)
	}
	m := NewDense(r, c)
	copy(m.data, data)
	return m, nil
}

// AppendRowMajor appends the matrix's entries in row-major order to dst
// and returns the extended slice — the serialization counterpart of
// FromRowMajor.
func (m *Dense) AppendRowMajor(dst []float64) []float64 {
	return append(dst, m.data...)
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Dense {
	m := NewDense(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// Rows returns the number of rows.
func (m *Dense) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Dense) Cols() int { return m.cols }

// At returns the element at row i, column j.
func (m *Dense) At(i, j int) float64 {
	m.checkIndex(i, j)
	return m.data[i*m.cols+j]
}

// Set stores v at row i, column j.
func (m *Dense) Set(i, j int, v float64) {
	m.checkIndex(i, j)
	m.data[i*m.cols+j] = v
}

func (m *Dense) checkIndex(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("mat: index (%d, %d) out of range for %d×%d matrix", i, j, m.rows, m.cols))
	}
}

// Clone returns a deep copy of m.
func (m *Dense) Clone() *Dense {
	c := NewDense(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// Row returns a copy of row i.
func (m *Dense) Row(i int) []float64 {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("mat: row %d out of range for %d×%d matrix", i, m.rows, m.cols))
	}
	out := make([]float64, m.cols)
	copy(out, m.data[i*m.cols:(i+1)*m.cols])
	return out
}

// RowView returns row i of m itself, not a copy: writes through it
// change m.
func (m *Dense) RowView(i int) []float64 {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("mat: row %d out of range for %d×%d matrix", i, m.rows, m.cols))
	}
	return m.data[i*m.cols : (i+1)*m.cols : (i+1)*m.cols]
}

// Col returns a copy of column j.
func (m *Dense) Col(j int) []float64 {
	if j < 0 || j >= m.cols {
		panic(fmt.Sprintf("mat: column %d out of range for %d×%d matrix", j, m.rows, m.cols))
	}
	out := make([]float64, m.rows)
	for i := range out {
		out[i] = m.data[i*m.cols+j]
	}
	return out
}

// Trace returns the sum of diagonal entries. The matrix must be square.
func (m *Dense) Trace() float64 {
	if m.rows != m.cols {
		panic("mat: Trace of non-square matrix")
	}
	var t float64
	for i := 0; i < m.rows; i++ {
		t += m.data[i*m.cols+i]
	}
	return t
}

// Transpose returns mᵀ as a new matrix.
func (m *Dense) Transpose() *Dense {
	t := NewDense(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			t.data[j*t.cols+i] = m.data[i*m.cols+j]
		}
	}
	return t
}

// CentroTranspose returns the 180°-rotated matrix S with
// S[i][j] = m[r-1-i][c-1-j]. A matrix equal to its centro-transpose is
// centrosymmetric, which is exactly the paper's Symmetry property (Eq 14).
func (m *Dense) CentroTranspose() *Dense {
	s := NewDense(m.rows, m.cols)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			s.data[i*m.cols+j] = m.data[(m.rows-1-i)*m.cols+(m.cols-1-j)]
		}
	}
	return s
}

// Add returns m + b as a new matrix.
func (m *Dense) Add(b *Dense) (*Dense, error) {
	if m.rows != b.rows || m.cols != b.cols {
		return nil, fmt.Errorf("mat: Add %d×%d with %d×%d: %w", m.rows, m.cols, b.rows, b.cols, ErrShape)
	}
	out := m.Clone()
	for i := range out.data {
		out.data[i] += b.data[i]
	}
	return out, nil
}

// Scale returns s·m as a new matrix.
func (m *Dense) Scale(s float64) *Dense {
	out := m.Clone()
	for i := range out.data {
		out.data[i] *= s
	}
	return out
}

// Mul returns the matrix product m·b.
func (m *Dense) Mul(b *Dense) (*Dense, error) {
	if m.cols != b.rows {
		return nil, fmt.Errorf("mat: Mul %d×%d with %d×%d: %w", m.rows, m.cols, b.rows, b.cols, ErrShape)
	}
	out := NewDense(m.rows, b.cols)
	for i := 0; i < m.rows; i++ {
		for k := 0; k < m.cols; k++ {
			a := m.data[i*m.cols+k]
			if a == 0 {
				continue
			}
			for j := 0; j < b.cols; j++ {
				out.data[i*out.cols+j] += a * b.data[k*b.cols+j]
			}
		}
	}
	return out, nil
}

// MulVec returns the matrix-vector product m·x.
func (m *Dense) MulVec(x []float64) ([]float64, error) {
	if m.cols != len(x) {
		return nil, fmt.Errorf("mat: MulVec %d×%d with vector of length %d: %w", m.rows, m.cols, len(x), ErrShape)
	}
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		var s float64
		row := m.data[i*m.cols : (i+1)*m.cols]
		for j, v := range row {
			s += v * x[j]
		}
		out[i] = s
	}
	return out, nil
}

// ColSums returns the per-column sums.
func (m *Dense) ColSums() []float64 {
	out := make([]float64, m.cols)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			out[j] += m.data[i*m.cols+j]
		}
	}
	return out
}

// RowSums returns the per-row sums.
func (m *Dense) RowSums() []float64 {
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		var s float64
		for j := 0; j < m.cols; j++ {
			s += m.data[i*m.cols+j]
		}
		out[i] = s
	}
	return out
}

// MaxAbsDiff returns the largest absolute element-wise difference between
// m and b.
func (m *Dense) MaxAbsDiff(b *Dense) (float64, error) {
	if m.rows != b.rows || m.cols != b.cols {
		return 0, fmt.Errorf("mat: MaxAbsDiff %d×%d with %d×%d: %w", m.rows, m.cols, b.rows, b.cols, ErrShape)
	}
	var worst float64
	for i := range m.data {
		if d := math.Abs(m.data[i] - b.data[i]); d > worst {
			worst = d
		}
	}
	return worst, nil
}

// EqualWithin reports whether every element of m is within tol of the
// corresponding element of b. Mismatched shapes compare unequal.
func (m *Dense) EqualWithin(b *Dense, tol float64) bool {
	if m.rows != b.rows || m.cols != b.cols {
		return false
	}
	d, _ := m.MaxAbsDiff(b)
	return d <= tol
}

// IsColumnStochastic reports whether every entry lies in [−tol, 1+tol] and
// every column sums to 1 within tol.
func (m *Dense) IsColumnStochastic(tol float64) bool {
	for _, v := range m.data {
		if v < -tol || v > 1+tol || math.IsNaN(v) {
			return false
		}
	}
	for _, s := range m.ColSums() {
		if math.Abs(s-1) > tol {
			return false
		}
	}
	return true
}

// Max returns the largest element of m.
func (m *Dense) Max() float64 {
	worst := math.Inf(-1)
	for _, v := range m.data {
		if v > worst {
			worst = v
		}
	}
	return worst
}

// Min returns the smallest element of m.
func (m *Dense) Min() float64 {
	best := math.Inf(1)
	for _, v := range m.data {
		if v < best {
			best = v
		}
	}
	return best
}

// String renders the matrix with four decimal places, one row per line.
func (m *Dense) String() string {
	var b strings.Builder
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%7.4f", m.data[i*m.cols+j])
		}
		b.WriteByte('\n')
	}
	return b.String()
}
