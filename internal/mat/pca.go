package mat

import "math"

// PCA projects the rows of x onto its top-k principal components, the
// dimensionality reduction used to visualize the kernel-regression input
// space in the spike-prediction analysis (paper Appendix B, Figure 15).
//
// The components are found by repeated power iteration with deflation on the
// covariance matrix, which avoids a full eigendecomposition while remaining
// deterministic: the starting vector for each component is the canonical
// basis vector with the largest residual variance.
type PCA struct {
	Mean       []float64 // column means of the training data
	Components *Matrix   // k x d matrix of principal directions (rows)
	Explained  []float64 // eigenvalue (variance) per component
}

// FitPCA computes the top-k principal components of the rows of x.
// k is clamped to the number of columns.
func FitPCA(x *Matrix, k int) (*PCA, error) {
	n, d := x.Rows, x.Cols
	if n == 0 || d == 0 {
		return &PCA{Mean: make([]float64, d), Components: New(0, d)}, nil
	}
	if k > d {
		k = d
	}

	mean := make([]float64, d)
	for i := 0; i < n; i++ {
		row := x.Row(i)
		for j, v := range row {
			mean[j] += v
		}
	}
	for j := range mean {
		mean[j] /= float64(n)
	}

	centered := New(n, d)
	for i := 0; i < n; i++ {
		src, dst := x.Row(i), centered.Row(i)
		for j, v := range src {
			dst[j] = v - mean[j]
		}
	}

	// Covariance matrix (d x d).
	cov, err := Mul(centered.T(), centered)
	if err != nil {
		return nil, err
	}
	denom := float64(n - 1)
	if denom < 1 {
		denom = 1
	}
	for i := range cov.Data {
		cov.Data[i] /= denom
	}

	comps := New(k, d)
	explained := make([]float64, k)
	work := cov.Clone()
	for c := 0; c < k; c++ {
		vec, lambda := powerIteration(work)
		if lambda <= 1e-12 {
			// Remaining variance is numerically zero; stop early.
			comps = comps.slice(c)
			explained = explained[:c]
			break
		}
		copy(comps.Row(c), vec)
		explained[c] = lambda
		deflate(work, vec, lambda)
	}
	return &PCA{Mean: mean, Components: comps, Explained: explained}, nil
}

// slice returns the first r rows of m as a new matrix header sharing data.
func (m *Matrix) slice(r int) *Matrix {
	return &Matrix{Rows: r, Cols: m.Cols, Data: m.Data[:r*m.Cols]}
}

// Transform projects each row of x into the component space.
func (p *PCA) Transform(x *Matrix) *Matrix {
	k := p.Components.Rows
	out := New(x.Rows, k)
	buf := make([]float64, x.Cols)
	for i := 0; i < x.Rows; i++ {
		row := x.Row(i)
		for j, v := range row {
			buf[j] = v - p.Mean[j]
		}
		dst := out.Row(i)
		for c := 0; c < k; c++ {
			dst[c] = Dot(p.Components.Row(c), buf)
		}
	}
	return out
}

// TransformVec projects a single sample.
func (p *PCA) TransformVec(v []float64) []float64 {
	x := &Matrix{Rows: 1, Cols: len(v), Data: append([]float64(nil), v...)}
	return p.Transform(x).Row(0)
}

func powerIteration(a *Matrix) (vec []float64, eigenvalue float64) {
	d := a.Rows
	// Deterministic start: basis vector for the column with max diagonal.
	start, max := 0, a.At(0, 0)
	for i := 1; i < d; i++ {
		if v := a.At(i, i); v > max {
			start, max = i, v
		}
	}
	v := make([]float64, d)
	v[start] = 1
	var lambda float64
	for iter := 0; iter < 300; iter++ {
		w, _ := MulVec(a, v)
		n := Norm2(w)
		// An exactly zero norm means the iterate vanished; any epsilon would mask real convergence.
		if n == 0 {
			return v, 0
		}
		for i := range w {
			w[i] /= n
		}
		newLambda := Dot(w, mustMulVec(a, w))
		converged := math.Abs(newLambda-lambda) < 1e-10*(math.Abs(newLambda)+1e-30)
		v, lambda = w, newLambda
		if converged && iter > 2 {
			break
		}
	}
	return v, lambda
}

func mustMulVec(a *Matrix, x []float64) []float64 {
	out, err := MulVec(a, x)
	if err != nil {
		panic(err)
	}
	return out
}

func deflate(a *Matrix, vec []float64, lambda float64) {
	d := a.Rows
	for i := 0; i < d; i++ {
		row := a.Row(i)
		for j := 0; j < d; j++ {
			row[j] -= lambda * vec[i] * vec[j]
		}
	}
}
