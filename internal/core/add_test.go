package core

import (
	"math/rand"
	"testing"

	"atmatrix/internal/mat"
)

func TestAddMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(121))
	cfg := testConfig()
	a := mat.RandomCOO(rng, 70, 90, 1500)
	b := mat.RandomCOO(rng, 70, 90, 1200)
	am, _, _ := Partition(a, cfg)
	bm, _, _ := Partition(b, cfg)
	sum, err := Add(am, bm, 2, -3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sum.Validate(); err != nil {
		t.Fatal(err)
	}
	want := a.ToDense()
	want.Scale(2)
	bd := b.ToDense()
	bd.Scale(-3)
	want.AddDense(bd)
	if !sum.ToDense().EqualApprox(want, 1e-12) {
		t.Fatal("Add mismatch")
	}
}

func TestAddCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(122))
	cfg := testConfig()
	a := mat.RandomCOO(rng, 40, 40, 600)
	am, _, _ := Partition(a, cfg)
	diff, err := Add(am, am, 1, -1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if diff.NNZ() != 0 {
		t.Fatalf("A - A has %d non-zeros", diff.NNZ())
	}
}

func TestAddShapeMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	cfg := testConfig()
	am, _, _ := Partition(mat.RandomCOO(rng, 10, 10, 20), cfg)
	bm, _, _ := Partition(mat.RandomCOO(rng, 10, 12, 20), cfg)
	if _, err := Add(am, bm, 1, 1, cfg); err == nil {
		t.Fatal("shape mismatch accepted")
	}
}

func TestAddZeroWeight(t *testing.T) {
	rng := rand.New(rand.NewSource(124))
	cfg := testConfig()
	a := mat.RandomCOO(rng, 30, 30, 300)
	am, _, _ := Partition(a, cfg)
	zm, _, _ := Partition(mat.RandomCOO(rng, 30, 30, 300), cfg)
	only, err := Add(am, zm, 1, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !only.ToDense().EqualApprox(a.ToDense(), 0) {
		t.Fatal("zero-weight operand leaked into the sum")
	}
}

func TestScaleInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(125))
	cfg := testConfig()
	src, err := genHeterogeneous(rng, 96)
	if err != nil {
		t.Fatal(err)
	}
	am, _, err := Partition(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := am.ToDense()
	want.Scale(0.5)
	am.Scale(0.5)
	if !am.ToDense().EqualApprox(want, 0) {
		t.Fatal("Scale mismatch")
	}
	if err := am.Validate(); err != nil {
		t.Fatal(err)
	}
}

// multiplyAdd forms C' = C + A·B — the full operator signature of §III —
// the way the expression "C + A*B" does: ATMULT, then a tile-wise sum.
func multiplyAdd(c, a, b *ATMatrix, cfg Config) (*ATMatrix, *MultStats, error) {
	prod, stats, err := Multiply(a, b, cfg)
	if err != nil {
		return nil, nil, err
	}
	out, err := Add(c, prod, 1, 1, cfg)
	return out, stats, err
}

func TestMultiplyAddMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(171))
	cfg := testConfig()
	a := mat.RandomCOO(rng, 60, 80, 1200)
	b := mat.RandomCOO(rng, 80, 70, 1400)
	c := mat.RandomCOO(rng, 60, 70, 900)
	am, _, _ := Partition(a, cfg)
	bm, _, _ := Partition(b, cfg)
	cm, _, _ := Partition(c, cfg)

	got, stats, err := multiplyAdd(cm, am, bm, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
	if stats == nil || stats.WallTime <= 0 {
		t.Fatal("stats not propagated")
	}
	want := c.ToDense()
	want.AddDense(mat.MulReference(a.ToDense(), b.ToDense()))
	if !got.ToDense().EqualApprox(want, 1e-9) {
		t.Fatal("C + A·B mismatch")
	}
}

func TestMultiplyAddIntoEmptyC(t *testing.T) {
	rng := rand.New(rand.NewSource(172))
	cfg := testConfig()
	a := mat.RandomCOO(rng, 40, 40, 600)
	am, _, _ := Partition(a, cfg)
	empty, _, _ := Partition(mat.NewCOO(40, 40), cfg)
	got, _, err := multiplyAdd(empty, am, am, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := mat.MulReference(a.ToDense(), a.ToDense())
	if !got.ToDense().EqualApprox(want, 1e-9) {
		t.Fatal("0 + A·A != A·A")
	}
}

// TestMultiplyAddIterative: the C' = C + A·B form chained over several
// steps, as an iterative solver would use it.
func TestMultiplyAddIterative(t *testing.T) {
	rng := rand.New(rand.NewSource(173))
	cfg := testConfig()
	a := mat.RandomCOO(rng, 48, 48, 500)
	am, _, _ := Partition(a, cfg)
	acc, _, _ := Partition(mat.NewCOO(48, 48), cfg)
	want := mat.NewDense(48, 48)
	prod := mat.MulReference(a.ToDense(), a.ToDense())
	for step := 0; step < 3; step++ {
		var err error
		acc, _, err = multiplyAdd(acc, am, am, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want.AddDense(prod)
	}
	if !acc.ToDense().EqualApprox(want, 1e-9) {
		t.Fatal("iterated accumulation mismatch")
	}
}

func TestMultiplyAddShapeErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(174))
	cfg := testConfig()
	am, _, _ := Partition(mat.RandomCOO(rng, 10, 20, 50), cfg)
	bm, _, _ := Partition(mat.RandomCOO(rng, 20, 30, 50), cfg)
	wrongC, _, _ := Partition(mat.RandomCOO(rng, 10, 10, 20), cfg)
	if _, _, err := multiplyAdd(wrongC, am, bm, cfg); err == nil {
		t.Fatal("C shape mismatch accepted")
	}
	badB, _, _ := Partition(mat.RandomCOO(rng, 99, 30, 50), cfg)
	if _, _, err := multiplyAdd(wrongC, am, badB, cfg); err == nil {
		t.Fatal("contraction mismatch accepted")
	}
}
