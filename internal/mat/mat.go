// Package mat provides the small dense linear-algebra kernels that the
// forecasting models need: vectors, row-major matrices, linear solves,
// Cholesky decomposition, and PCA via the power method. It is intentionally
// minimal — just enough for closed-form regression, kernel methods, and the
// dimensionality reduction used in the spike-analysis experiment.
package mat

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a solve encounters a (numerically) singular
// system.
var ErrSingular = errors.New("mat: singular matrix")

// ErrShape is returned when operand dimensions do not conform.
var ErrShape = errors.New("mat: dimension mismatch")

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols
}

// New returns a zero matrix with the given dimensions.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("mat: negative dimension %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromRows builds a matrix from a slice of equal-length rows.
func FromRows(rows [][]float64) (*Matrix, error) {
	if len(rows) == 0 {
		return New(0, 0), nil
	}
	cols := len(rows[0])
	m := New(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			return nil, fmt.Errorf("%w: row %d has %d cols, want %d", ErrShape, i, len(r), cols)
		}
		copy(m.Data[i*cols:(i+1)*cols], r)
	}
	return m, nil
}

// At returns the element at (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns the element at (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view (not a copy) of row i.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := New(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// T returns the transpose of m as a new matrix.
func (m *Matrix) T() *Matrix {
	t := New(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Data[j*t.Cols+i] = m.Data[i*m.Cols+j]
		}
	}
	return t
}

// Mul returns a*b.
func Mul(a, b *Matrix) (*Matrix, error) {
	if a.Cols != b.Rows {
		return nil, fmt.Errorf("%w: %dx%d * %dx%d", ErrShape, a.Rows, a.Cols, b.Rows, b.Cols)
	}
	out := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Row(k)
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out, nil
}

// MulVec returns a*x for a vector x.
func MulVec(a *Matrix, x []float64) ([]float64, error) {
	if a.Cols != len(x) {
		return nil, fmt.Errorf("%w: %dx%d * vec(%d)", ErrShape, a.Rows, a.Cols, len(x))
	}
	out := make([]float64, a.Rows)
	for i := 0; i < a.Rows; i++ {
		out[i] = Dot(a.Row(i), x)
	}
	return out, nil
}

// Dot returns the inner product of two equal-length vectors. It panics if
// the lengths differ because that is always a programming error.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("mat: Dot length mismatch %d vs %d", len(a), len(b)))
	}
	var s float64
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of v.
func Norm2(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

// CosineSimilarity returns the cosine of the angle between a and b, the
// similarity metric the clusterer uses for arrival-rate feature vectors.
// If either vector is all zeros the similarity is defined as 1 when both are
// zero (identical silence) and 0 otherwise.
func CosineSimilarity(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("mat: CosineSimilarity length mismatch %d vs %d", len(a), len(b)))
	}
	// Scale by the largest magnitude first so the norms cannot overflow
	// even for extreme inputs.
	var maxAbs float64
	for _, v := range a {
		if m := math.Abs(v); m > maxAbs {
			maxAbs = m
		}
	}
	for _, v := range b {
		if m := math.Abs(v); m > maxAbs {
			maxAbs = m
		}
	}
	if maxAbs == 0 {
		return 1 // both zero vectors: identical silence
	}
	var dot, na2, nb2 float64
	for i := range a {
		x, y := a[i]/maxAbs, b[i]/maxAbs
		dot += x * y
		na2 += x * x
		nb2 += y * y
	}
	if na2 == 0 || nb2 == 0 {
		return 0
	}
	c := dot / math.Sqrt(na2*nb2)
	// Guard against rounding drift outside [-1, 1].
	if c > 1 {
		return 1
	}
	if c < -1 {
		return -1
	}
	return c
}

// SolveLinear solves a*x = b with Gaussian elimination and partial pivoting.
// a is not modified.
func SolveLinear(a *Matrix, b []float64) ([]float64, error) {
	n := a.Rows
	if a.Cols != n {
		return nil, fmt.Errorf("%w: solve needs square matrix, got %dx%d", ErrShape, a.Rows, a.Cols)
	}
	if len(b) != n {
		return nil, fmt.Errorf("%w: rhs length %d, want %d", ErrShape, len(b), n)
	}
	aug := a.Clone()
	rhs := make([]float64, n)
	copy(rhs, b)

	for col := 0; col < n; col++ {
		// Partial pivot.
		pivot, max := col, math.Abs(aug.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := math.Abs(aug.At(r, col)); v > max {
				pivot, max = r, v
			}
		}
		if max < 1e-12 {
			return nil, ErrSingular
		}
		if pivot != col {
			pr, cr := aug.Row(pivot), aug.Row(col)
			for j := range pr {
				pr[j], cr[j] = cr[j], pr[j]
			}
			rhs[pivot], rhs[col] = rhs[col], rhs[pivot]
		}
		pv := aug.At(col, col)
		for r := col + 1; r < n; r++ {
			f := aug.At(r, col) / pv
			if f == 0 {
				continue
			}
			rr, cr := aug.Row(r), aug.Row(col)
			for j := col; j < n; j++ {
				rr[j] -= f * cr[j]
			}
			rhs[r] -= f * rhs[col]
		}
	}
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := rhs[i]
		row := aug.Row(i)
		for j := i + 1; j < n; j++ {
			s -= row[j] * x[j]
		}
		x[i] = s / row[i]
	}
	return x, nil
}

// SolveRidge solves the ridge-regularized least squares problem
// (XᵀX + λI) w = Xᵀy and returns w. This is the closed-form fit used by the
// linear autoregressive forecasting model.
func SolveRidge(x *Matrix, y []float64, lambda float64) ([]float64, error) {
	if x.Rows != len(y) {
		return nil, fmt.Errorf("%w: %d rows vs %d targets", ErrShape, x.Rows, len(y))
	}
	xt := x.T()
	gram, err := Mul(xt, x)
	if err != nil {
		return nil, err
	}
	for i := 0; i < gram.Rows; i++ {
		gram.Data[i*gram.Cols+i] += lambda
	}
	xty, err := MulVec(xt, y)
	if err != nil {
		return nil, err
	}
	return SolveLinear(gram, xty)
}

// Cholesky computes the lower-triangular L with L*Lᵀ = a for a symmetric
// positive-definite matrix a.
func Cholesky(a *Matrix) (*Matrix, error) {
	n := a.Rows
	if a.Cols != n {
		return nil, fmt.Errorf("%w: cholesky needs square matrix", ErrShape)
	}
	l := New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			sum := a.At(i, j)
			for k := 0; k < j; k++ {
				sum -= l.At(i, k) * l.At(j, k)
			}
			if i == j {
				if sum <= 0 {
					return nil, ErrSingular
				}
				l.Set(i, j, math.Sqrt(sum))
			} else {
				l.Set(i, j, sum/l.At(j, j))
			}
		}
	}
	return l, nil
}

// Mean returns the arithmetic mean of v, or 0 for an empty slice.
func Mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// Variance returns the population variance of v.
func Variance(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	mu := Mean(v)
	var s float64
	for _, x := range v {
		d := x - mu
		s += d * d
	}
	return s / float64(len(v))
}
