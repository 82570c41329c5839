package mat

import (
	"fmt"
	"math"
)

// SolveLinearMulti solves a*X = B column-by-column with one shared LU-style
// elimination, where B has one column per right-hand side. a is not
// modified.
func SolveLinearMulti(a, b *Matrix) (*Matrix, error) {
	n := a.Rows
	if a.Cols != n {
		return nil, fmt.Errorf("%w: solve needs square matrix, got %dx%d", ErrShape, a.Rows, a.Cols)
	}
	if b.Rows != n {
		return nil, fmt.Errorf("%w: rhs has %d rows, want %d", ErrShape, b.Rows, n)
	}
	aug := a.Clone()
	rhs := b.Clone()

	for col := 0; col < n; col++ {
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
			pr, cr = rhs.Row(pivot), rhs.Row(col)
			for j := range pr {
				pr[j], cr[j] = cr[j], pr[j]
			}
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
			rr, cr = rhs.Row(r), rhs.Row(col)
			for j := range rr {
				rr[j] -= f * cr[j]
			}
		}
	}
	x := New(n, b.Cols)
	for i := n - 1; i >= 0; i-- {
		arow := aug.Row(i)
		xrow := x.Row(i)
		copy(xrow, rhs.Row(i))
		for j := i + 1; j < n; j++ {
			f := arow[j]
			if f == 0 {
				continue
			}
			xj := x.Row(j)
			for c := range xrow {
				xrow[c] -= f * xj[c]
			}
		}
		inv := 1 / arow[i]
		for c := range xrow {
			xrow[c] *= inv
		}
	}
	return x, nil
}

// SolveRidgeMulti solves (XᵀX + λI) W = XᵀY for multi-output targets and
// returns W transposed into shape outputs x features, i.e. one weight row
// per output column of y. The Gram matrix is factored once and reused
// across outputs.
func SolveRidgeMulti(x, y *Matrix, lambda float64) (*Matrix, error) {
	if x.Rows != y.Rows {
		return nil, fmt.Errorf("%w: %d rows vs %d targets", ErrShape, x.Rows, y.Rows)
	}
	xt := x.T()
	gram, err := Mul(xt, x)
	if err != nil {
		return nil, err
	}
	for i := 0; i < gram.Rows; i++ {
		gram.Data[i*gram.Cols+i] += lambda
	}
	xty, err := Mul(xt, y)
	if err != nil {
		return nil, err
	}
	w, err := SolveLinearMulti(gram, xty)
	if err != nil {
		return nil, err
	}
	return w.T(), nil
}
