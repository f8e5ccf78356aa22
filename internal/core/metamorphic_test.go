package core

import (
	"math/rand"
	"testing"

	"atmatrix/internal/mat"
)

// Metamorphic tests: algebraic identities that must hold through the full
// partition + ATMULT pipeline regardless of tiling decisions, kernel
// selection, or conversions. Each identity computes both sides entirely
// with the library.

func metaSetup(t *testing.T, seed int64, n int) (Config, *ATMatrix, *ATMatrix) {
	t.Helper()
	cfg := testConfig()
	rng := rand.New(rand.NewSource(seed))
	a, err := genHeterogeneous(rng, n)
	if err != nil {
		t.Fatal(err)
	}
	b := mat.RandomCOO(rng, n, n, n*n/20)
	am, _, err := Partition(a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	bm, _, err := Partition(b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return cfg, am, bm
}

// TestMetamorphicScaling: (αA)·B == α·(A·B).
func TestMetamorphicScaling(t *testing.T) {
	cfg, am, bm := metaSetup(t, 151, 128)
	const alpha = 2.5

	ab, _, err := Multiply(am, bm, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ab.Scale(alpha)

	scaledA := am.ToCOO()
	for i := range scaledA.Ent {
		scaledA.Ent[i].Val *= alpha
	}
	sm, _, err := Partition(scaledA, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sab, _, err := Multiply(sm, bm, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !sab.ToDense().EqualApprox(ab.ToDense(), 1e-8) {
		t.Fatal("(αA)·B != α·(A·B)")
	}
}

// TestMetamorphicDistributivity: (A+B)·C == A·C + B·C, with the sums
// computed by core.Add.
func TestMetamorphicDistributivity(t *testing.T) {
	cfg, am, bm := metaSetup(t, 152, 96)
	rng := rand.New(rand.NewSource(153))
	c := mat.RandomCOO(rng, 96, 80, 1500)
	cm, _, err := Partition(c, cfg)
	if err != nil {
		t.Fatal(err)
	}

	sum, err := Add(am, bm, 1, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	lhs, _, err := Multiply(sum, cm, cfg)
	if err != nil {
		t.Fatal(err)
	}

	ac, _, err := Multiply(am, cm, cfg)
	if err != nil {
		t.Fatal(err)
	}
	bc, _, err := Multiply(bm, cm, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rhs, err := Add(ac, bc, 1, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !lhs.ToDense().EqualApprox(rhs.ToDense(), 1e-8) {
		t.Fatal("(A+B)·C != A·C + B·C")
	}
}

// TestMetamorphicTransposeProduct: (A·B)ᵀ == Bᵀ·Aᵀ.
func TestMetamorphicTransposeProduct(t *testing.T) {
	cfg, am, bm := metaSetup(t, 154, 112)
	ab, _, err := Multiply(am, bm, cfg)
	if err != nil {
		t.Fatal(err)
	}
	lhs := ab.Transpose(cfg)

	rhs, _, err := Multiply(bm.Transpose(cfg), am.Transpose(cfg), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !lhs.ToDense().EqualApprox(rhs.ToDense(), 1e-8) {
		t.Fatal("(A·B)ᵀ != Bᵀ·Aᵀ")
	}
}

// TestMetamorphicMatVecConsistency: (A·B)·x == A·(B·x), the product formed
// by ATMULT and the vector products over each matrix's CSR form.
func TestMetamorphicMatVecConsistency(t *testing.T) {
	cfg, am, bm := metaSetup(t, 155, 104)
	rng := rand.New(rand.NewSource(156))
	x := make([]float64, bm.Cols)
	for i := range x {
		x[i] = rng.Float64()*2 - 1
	}
	ab, _, err := Multiply(am, bm, cfg)
	if err != nil {
		t.Fatal(err)
	}
	lhs := ab.ToCSR().MatVec(x)
	rhs := am.ToCSR().MatVec(bm.ToCSR().MatVec(x))
	for i := range lhs {
		d := lhs[i] - rhs[i]
		if d > 1e-8 || d < -1e-8 {
			t.Fatalf("(A·B)x != A(Bx) at %d: %g vs %g", i, lhs[i], rhs[i])
		}
	}
}

// TestMetamorphicPartitionInvariance: the product must not depend on the
// granularity or the tiling strategy of the operands.
func TestMetamorphicPartitionInvariance(t *testing.T) {
	cfg, am, bm := metaSetup(t, 157, 128)
	ref, _, err := Multiply(am, bm, cfg)
	if err != nil {
		t.Fatal(err)
	}
	refD := ref.ToDense()

	variants := []Config{cfg, cfg, cfg}
	variants[1].BAtomic = 4
	variants[2].BAtomic = 32
	srcA, srcB := am.ToCOO(), bm.ToCOO()
	for i, vc := range variants[1:] {
		a2, _, err := Partition(srcA, vc)
		if err != nil {
			t.Fatal(err)
		}
		b2, _, err := Partition(srcB, vc)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := Multiply(a2, b2, vc)
		if err != nil {
			t.Fatal(err)
		}
		if !got.ToDense().EqualApprox(refD, 1e-8) {
			t.Fatalf("variant %d: product depends on granularity", i)
		}
	}
	// Fixed-grid tiling as another physical variant.
	a3, _, err := PartitionFixed(srcA, cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := Multiply(a3, bm, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !got.ToDense().EqualApprox(refD, 1e-8) {
		t.Fatal("product depends on the tiling strategy")
	}
}
