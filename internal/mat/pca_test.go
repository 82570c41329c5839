package mat

import (
	"math"
	"math/rand"
	"testing"
)

func TestPCALineRecovery(t *testing.T) {
	// Points along direction (3,4)/5 with small orthogonal noise: the first
	// principal component must align with that direction.
	rng := rand.New(rand.NewSource(3))
	n := 500
	x := New(n, 2)
	dir := []float64{0.6, 0.8}
	for i := 0; i < n; i++ {
		s := rng.NormFloat64() * 10
		e := rng.NormFloat64() * 0.1
		x.Set(i, 0, s*dir[0]-e*dir[1])
		x.Set(i, 1, s*dir[1]+e*dir[0])
	}
	p, err := FitPCA(x, 2)
	if err != nil {
		t.Fatal(err)
	}
	c0 := p.Components.Row(0)
	// Component sign is arbitrary.
	dot := math.Abs(c0[0]*dir[0] + c0[1]*dir[1])
	if dot < 0.999 {
		t.Fatalf("first component %v not aligned with %v (|dot|=%v)", c0, dir, dot)
	}
	if p.Explained[0] < p.Explained[1] {
		t.Fatalf("explained variance not sorted: %v", p.Explained)
	}
}

func TestPCATransformCentersData(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x := New(100, 3)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64() + 5
	}
	p, err := FitPCA(x, 3)
	if err != nil {
		t.Fatal(err)
	}
	proj := p.Transform(x)
	// Projected data must have (near) zero mean per component.
	for c := 0; c < proj.Cols; c++ {
		var mean float64
		for i := 0; i < proj.Rows; i++ {
			mean += proj.At(i, c)
		}
		mean /= float64(proj.Rows)
		if math.Abs(mean) > 1e-9 {
			t.Fatalf("component %d mean = %v, want ~0", c, mean)
		}
	}
}

func TestPCAPreservesDistancesInFullRank(t *testing.T) {
	// With k = d, PCA is a rotation: pairwise distances are preserved.
	rng := rand.New(rand.NewSource(8))
	x := New(40, 4)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	p, err := FitPCA(x, 4)
	if err != nil {
		t.Fatal(err)
	}
	if p.Components.Rows < 4 {
		t.Skipf("degenerate spectrum: only %d components", p.Components.Rows)
	}
	proj := p.Transform(x)
	dist := func(m *Matrix, i, j int) float64 {
		var s float64
		for c := 0; c < m.Cols; c++ {
			d := m.At(i, c) - m.At(j, c)
			s += d * d
		}
		return math.Sqrt(s)
	}
	for trial := 0; trial < 30; trial++ {
		i, j := rng.Intn(40), rng.Intn(40)
		d0, d1 := dist(x, i, j), dist(proj, i, j)
		if !almostEqual(d0, d1, 1e-4) {
			t.Fatalf("distance not preserved: %v vs %v", d0, d1)
		}
	}
}

// TestPCAVec projects a single sample, a one-row matrix.
func TestPCAVec(t *testing.T) {
	x, _ := FromRows([][]float64{{1, 0}, {-1, 0}, {2, 0}, {-2, 0}})
	p, err := FitPCA(x, 1)
	if err != nil {
		t.Fatal(err)
	}
	one, _ := FromRows([][]float64{{3, 0}})
	v := p.Transform(one).Row(0)
	if len(v) != 1 {
		t.Fatalf("want 1-dim projection, got %v", v)
	}
	if math.Abs(math.Abs(v[0])-3) > 1e-6 {
		t.Fatalf("projection magnitude %v, want 3", v[0])
	}
}

func TestPCAEmpty(t *testing.T) {
	p, err := FitPCA(New(0, 0), 2)
	if err != nil {
		t.Fatal(err)
	}
	if p.Components.Rows != 0 {
		t.Fatalf("expected no components, got %d", p.Components.Rows)
	}
}
