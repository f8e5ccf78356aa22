package density

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"atmatrix/internal/mat"
)

func TestNewMapGridShape(t *testing.T) {
	m := NewMap(100, 130, 32)
	if m.BR != 4 || m.BC != 5 {
		t.Fatalf("grid %d×%d, want 4×5", m.BR, m.BC)
	}
	h, w := m.CellDims(3, 4)
	if h != 4 || w != 2 {
		t.Fatalf("edge cell dims %d×%d, want 4×2", h, w)
	}
	h, w = m.CellDims(0, 0)
	if h != 32 || w != 32 {
		t.Fatalf("interior cell dims %d×%d, want 32×32", h, w)
	}
}

func TestFromCOOMatchesFromCSRAndDense(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	coo := mat.RandomCOO(rng, 97, 61, 800)
	mc := FromCOO(coo, 16)
	ms := FromCSR(coo.ToCSR(), 16)
	md := FromDense(coo.ToDense(), 16)
	if MaxAbsDiff(mc, ms) != 0 || MaxAbsDiff(mc, md) != 0 {
		t.Fatal("density maps from COO, CSR, Dense disagree")
	}
}

func TestExactMapCounts(t *testing.T) {
	a := mat.NewCOO(8, 8)
	// Fill the upper-left 4×4 block completely, one element elsewhere.
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			a.Append(r, c, 1)
		}
	}
	a.Append(6, 6, 1)
	m := FromCOO(a, 4)
	if m.At(0, 0) != 1.0 {
		t.Fatalf("block (0,0) density %g, want 1", m.At(0, 0))
	}
	if m.At(1, 1) != 1.0/16 {
		t.Fatalf("block (1,1) density %g, want 1/16", m.At(1, 1))
	}
	if m.At(0, 1) != 0 {
		t.Fatalf("block (0,1) density %g, want 0", m.At(0, 1))
	}
	if got := m.ExpectedNNZ(); got != 17 {
		t.Fatalf("ExpectedNNZ = %g, want 17", got)
	}
}

func TestEstimateProductBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m, k, n := 1+r.Intn(50), 1+r.Intn(50), 1+r.Intn(50)
		a := FromCOO(mat.RandomCOO(r, m, k, r.Intn(m*k+1)), 8)
		b := FromCOO(mat.RandomCOO(r, k, n, r.Intn(k*n+1)), 8)
		c := EstimateProduct(a, b)
		for _, rho := range c.Rho {
			if rho < 0 || rho > 1 || math.IsNaN(rho) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestEstimateProductZeroOperand(t *testing.T) {
	a := NewMap(16, 16, 4)
	b := Uniform(16, 16, 4, 0.5)
	c := EstimateProduct(a, b)
	for _, rho := range c.Rho {
		if rho != 0 {
			t.Fatalf("zero·X estimated density %g, want 0", rho)
		}
	}
}

func TestEstimateProductFullOperands(t *testing.T) {
	a := Uniform(16, 16, 4, 1)
	b := Uniform(16, 16, 4, 1)
	c := EstimateProduct(a, b)
	for _, rho := range c.Rho {
		if rho != 1 {
			t.Fatalf("full·full estimated density %g, want 1", rho)
		}
	}
}

// TestEstimateSingleContribution: with exactly one contraction block of
// width w the closed form is 1-(1-ρa·ρb)^w.
func TestEstimateSingleContribution(t *testing.T) {
	a := Uniform(4, 8, 8, 0.25)
	b := Uniform(8, 4, 8, 0.5)
	c := EstimateProduct(a, b)
	want := 1 - math.Pow(1-0.25*0.5, 8)
	if math.Abs(c.At(0, 0)-want) > 1e-12 {
		t.Fatalf("estimate %g, want %g", c.At(0, 0), want)
	}
}

// TestEstimateAccuracyOnRandomMatrices checks the estimator against the
// actual product density for uniform random matrices: the estimate should
// be within a few percentage points — this is the property the paper's
// optimizer relies on.
func TestEstimateAccuracyOnRandomMatrices(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	n := 128
	a := mat.RandomCOO(rng, n, n, n*n/20)
	b := mat.RandomCOO(rng, n, n, n*n/20)
	est := EstimateProduct(FromCOO(a, 32), FromCOO(b, 32))
	actual := FromDense(mat.MulReference(a.ToDense(), b.ToDense()), 32)
	if d := MaxAbsDiff(est, actual); d > 0.08 {
		t.Fatalf("estimator error %g exceeds 0.08 on uniform random input", d)
	}
}

// TestSymbolicBoundsEstimator: the probabilistic estimator should be
// close to the exact structure of a self-product on uniform inputs — the
// accuracy the optimizer relies on, measured against the block map of the
// product itself.
func TestSymbolicBoundsEstimator(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	n := 160
	a := mat.RandomCOO(rng, n, n, n*n/15)
	ad := a.ToDense()
	exact := FromDense(mat.MulReference(ad, ad), 32)
	dm := FromCOO(a, 32)
	est := EstimateProduct(dm, dm)
	if d := MaxAbsDiff(est, exact); d > 0.08 {
		t.Fatalf("estimator error vs exact structure %g > 0.08", d)
	}
}

func TestEstimateDetectsDenseBlocks(t *testing.T) {
	// A has a fully dense upper-left block; A·A must be estimated dense
	// there and empty in untouched regions.
	n, blk := 64, 16
	a := mat.NewCOO(n, n)
	for r := 0; r < blk; r++ {
		for c := 0; c < blk; c++ {
			a.Append(r, c, 1)
		}
	}
	m := FromCOO(a, blk)
	est := EstimateProduct(m, m)
	if est.At(0, 0) < 0.999 {
		t.Fatalf("dense block estimated at %g", est.At(0, 0))
	}
	if est.At(1, 1) != 0 {
		t.Fatalf("empty block estimated at %g", est.At(1, 1))
	}
}

func TestUniformAndString(t *testing.T) {
	m := Uniform(8, 8, 4, 0.5)
	s := m.String()
	if len(s) != (2+1)*2 {
		t.Fatalf("String length %d", len(s))
	}
	empty := NewMap(8, 8, 4)
	for _, ch := range empty.String() {
		if ch != ' ' && ch != '\n' {
			t.Fatalf("empty map rendered %q", ch)
		}
	}
}

func TestMapMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("contraction mismatch did not panic")
		}
	}()
	EstimateProduct(NewMap(8, 8, 4), NewMap(16, 8, 4))
}
