package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func TestNewAndAccessors(t *testing.T) {
	m := New(2, 3)
	if m.Rows != 2 || m.Cols != 3 || len(m.Data) != 6 {
		t.Fatalf("bad shape: %+v", m)
	}
	m.Set(1, 2, 7)
	if m.At(1, 2) != 7 {
		t.Fatalf("Set/At mismatch")
	}
	if got := m.Row(1); got[2] != 7 {
		t.Fatalf("Row view mismatch: %v", got)
	}
}

func TestFromRows(t *testing.T) {
	m, err := FromRows([][]float64{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if m.At(1, 0) != 3 {
		t.Fatalf("want 3, got %v", m.At(1, 0))
	}
	if _, err := FromRows([][]float64{{1}, {2, 3}}); err == nil {
		t.Fatal("expected ragged-row error")
	}
	empty, err := FromRows(nil)
	if err != nil || empty.Rows != 0 {
		t.Fatalf("empty FromRows: %v %v", empty, err)
	}
}

func TestMulKnown(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	b, _ := FromRows([][]float64{{5, 6}, {7, 8}})
	c, err := Mul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]float64{{19, 22}, {43, 50}}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if c.At(i, j) != want[i][j] {
				t.Fatalf("Mul[%d][%d] = %v, want %v", i, j, c.At(i, j), want[i][j])
			}
		}
	}
}

func TestMulShapeError(t *testing.T) {
	a := New(2, 3)
	b := New(2, 3)
	if _, err := Mul(a, b); err == nil {
		t.Fatal("expected shape error")
	}
	if _, err := MulVec(a, []float64{1, 2}); err == nil {
		t.Fatal("expected shape error")
	}
}

func TestTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := New(4, 7)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	tt := m.T().T()
	for i := range m.Data {
		if m.Data[i] != tt.Data[i] {
			t.Fatal("T().T() is not identity")
		}
	}
}

func TestDotAndNorm(t *testing.T) {
	if got := Dot([]float64{1, 2, 3}, []float64{4, 5, 6}); got != 32 {
		t.Fatalf("Dot = %v, want 32", got)
	}
	if got := Norm2([]float64{3, 4}); got != 5 {
		t.Fatalf("Norm2 = %v, want 5", got)
	}
}

func TestCosineSimilarity(t *testing.T) {
	cases := []struct {
		a, b []float64
		want float64
	}{
		{[]float64{1, 0}, []float64{1, 0}, 1},
		{[]float64{1, 0}, []float64{0, 1}, 0},
		{[]float64{1, 1}, []float64{2, 2}, 1},
		{[]float64{1, 0}, []float64{-1, 0}, -1},
		{[]float64{0, 0}, []float64{0, 0}, 1},
		{[]float64{0, 0}, []float64{1, 0}, 0},
	}
	for _, c := range cases {
		if got := CosineSimilarity(c.a, c.b); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("cos(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestCosineSimilarityBounds(t *testing.T) {
	f := func(a, b [8]float64) bool {
		got := CosineSimilarity(a[:], b[:])
		return got >= -1-1e-9 && got <= 1+1e-9 &&
			almostEqual(got, CosineSimilarity(b[:], a[:]), 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSolveLinearKnown(t *testing.T) {
	a, _ := FromRows([][]float64{{2, 1}, {1, 3}})
	x, err := SolveLinear(a, []float64{5, 10})
	if err != nil {
		t.Fatal(err)
	}
	// 2x + y = 5, x + 3y = 10 → x = 1, y = 3.
	if !almostEqual(x[0], 1, 1e-9) || !almostEqual(x[1], 3, 1e-9) {
		t.Fatalf("solution %v, want [1 3]", x)
	}
}

func TestSolveLinearSingular(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := SolveLinear(a, []float64{1, 2}); err == nil {
		t.Fatal("expected singular error")
	}
}

// TestSolveLinearProperty: for random well-conditioned systems,
// a*solve(a, b) ≈ b.
func TestSolveLinearProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(8)
		a := New(n, n)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		for i := 0; i < n; i++ { // diagonal dominance for conditioning
			a.Data[i*n+i] += float64(n) + 1
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x, err := SolveLinear(a, b)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		back, _ := MulVec(a, x)
		for i := range b {
			if !almostEqual(back[i], b[i], 1e-8) {
				t.Fatalf("trial %d: a*x = %v, want %v", trial, back, b)
			}
		}
	}
}

func TestSolveRidgeRecoversWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	// y = 3*x0 - 2*x1 + 0.5 with plenty of samples and tiny ridge.
	n := 200
	x := New(n, 3)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x0, x1 := rng.NormFloat64(), rng.NormFloat64()
		x.Set(i, 0, x0)
		x.Set(i, 1, x1)
		x.Set(i, 2, 1)
		y[i] = 3*x0 - 2*x1 + 0.5
	}
	w, err := SolveRidge(x, y, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{3, -2, 0.5}
	for i := range want {
		if !almostEqual(w[i], want[i], 1e-6) {
			t.Fatalf("w = %v, want %v", w, want)
		}
	}
}

func TestSolveRidgeMultiMatchesSingle(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n, d, k := 40, 5, 3
	x := New(n, d)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	y := New(n, k)
	for i := range y.Data {
		y.Data[i] = rng.NormFloat64()
	}
	multi, err := SolveRidgeMulti(x, y, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	for o := 0; o < k; o++ {
		col := make([]float64, n)
		for i := 0; i < n; i++ {
			col[i] = y.At(i, o)
		}
		single, err := SolveRidge(x, col, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < d; j++ {
			if !almostEqual(multi.At(o, j), single[j], 1e-8) {
				t.Fatalf("output %d: multi %v vs single %v", o, multi.Row(o), single)
			}
		}
	}
}

func TestCholesky(t *testing.T) {
	a, _ := FromRows([][]float64{{4, 2}, {2, 3}})
	l, err := Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	// Check L*Lᵀ = a.
	llt, _ := Mul(l, l.T())
	for i := range a.Data {
		if !almostEqual(llt.Data[i], a.Data[i], 1e-9) {
			t.Fatalf("L*Lᵀ = %v, want %v", llt.Data, a.Data)
		}
	}
	// Non-PD matrix must fail.
	bad, _ := FromRows([][]float64{{1, 2}, {2, 1}})
	if _, err := Cholesky(bad); err == nil {
		t.Fatal("expected non-PD error")
	}
}

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("empty-slice mean should be 0")
	}
	if v := []float64{1, 2, 3, 4}; Mean(v) != 2.5 {
		t.Fatalf("Mean = %v", Mean(v))
	}
}

func TestSolveLinearMultiErrors(t *testing.T) {
	a := New(2, 3)
	if _, err := SolveLinearMulti(a, New(2, 1)); err == nil {
		t.Fatal("non-square accepted")
	}
	sq := New(2, 2)
	if _, err := SolveLinearMulti(sq, New(3, 1)); err == nil {
		t.Fatal("rhs row mismatch accepted")
	}
	singular, _ := FromRows([][]float64{{1, 1}, {1, 1}})
	if _, err := SolveLinearMulti(singular, New(2, 1)); err == nil {
		t.Fatal("singular accepted")
	}
}

func TestDotPanicsOnLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestCosineSimilarityExtremeValues(t *testing.T) {
	big := []float64{1e308, 1e308}
	if got := CosineSimilarity(big, big); got != 1 {
		t.Fatalf("cos(big, big) = %v", got)
	}
	if got := CosineSimilarity(big, []float64{-1e308, -1e308}); got != -1 {
		t.Fatalf("cos(big, -big) = %v", got)
	}
}
