package kernels

import (
	"math/rand"
	"testing"

	"atmatrix/internal/mat"
)

const tol = 1e-10

// randomOperands builds a random dense m×k and k×n pair plus their CSR
// forms.
func randomOperands(rng *rand.Rand, m, k, n int, rhoA, rhoB float64) (ad, bd *mat.Dense, as, bs *mat.CSR) {
	ac := mat.RandomCOO(rng, m, k, int(float64(m*k)*rhoA))
	bc := mat.RandomCOO(rng, k, n, int(float64(k*n)*rhoB))
	return ac.ToDense(), bc.ToDense(), ac.ToCSR(), bc.ToCSR()
}

func TestDenseTargetKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 30; trial++ {
		m, k, n := 1+rng.Intn(40), 1+rng.Intn(40), 1+rng.Intn(40)
		ad, bd, as, bs := randomOperands(rng, m, k, n, 0.2, 0.2)
		want := mat.MulReference(ad, bd)

		check := func(name string, f func(c *mat.Dense)) {
			c := mat.NewDense(m, n)
			f(c)
			if !c.EqualApprox(want, tol) {
				t.Fatalf("trial %d: %s mismatch (m=%d k=%d n=%d)", trial, name, m, k, n)
			}
		}
		check("DDD", func(c *mat.Dense) { DDD(c, ad, bd) })
		check("SpDD", func(c *mat.Dense) { SpDD(c, FullCSR(as), bd) })
		check("DSpD", func(c *mat.Dense) { DSpD(c, ad, FullCSR(bs)) })
		check("SpSpD", func(c *mat.Dense) { SpSpD(c, FullCSR(as), FullCSR(bs)) })
	}
}

func TestSparseTargetKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 30; trial++ {
		m, k, n := 1+rng.Intn(40), 1+rng.Intn(40), 1+rng.Intn(40)
		ad, bd, as, bs := randomOperands(rng, m, k, n, 0.2, 0.2)
		want := mat.MulReference(ad, bd)
		spa := NewSPA(n)

		check := func(name string, f func(c *SpAcc)) {
			c := NewSpAcc(m, n)
			f(c)
			csr := c.ToCSR()
			if err := csr.Validate(); err != nil {
				t.Fatalf("trial %d: %s: %v", trial, name, err)
			}
			if !csr.ToDense().EqualApprox(want, tol) {
				t.Fatalf("trial %d: %s mismatch (m=%d k=%d n=%d)", trial, name, m, k, n)
			}
		}
		check("SpSpSp", func(c *SpAcc) { SpSpSp(c, 0, 0, FullCSR(as), FullCSR(bs), spa) })
		check("SpDSp", func(c *SpAcc) { SpDSp(c, 0, 0, FullCSR(as), bd, spa) })
		check("DSpSp", func(c *SpAcc) { DSpSp(c, 0, 0, ad, FullCSR(bs), spa) })
		check("DDSp", func(c *SpAcc) { DDSp(c, 0, 0, ad, bd, spa) })
	}
}

// TestReferencedWindows exercises the defining feature of §III-B: kernels
// multiplying arbitrary rectangular subparts of larger tiles must produce
// exactly the corresponding part of the full product.
func TestReferencedWindows(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	M, K, N := 60, 50, 70
	ac := mat.RandomCOO(rng, M, K, M*K/5)
	bc := mat.RandomCOO(rng, K, N, K*N/5)
	ad, bd := ac.ToDense(), bc.ToDense()
	as, bs := ac.ToCSR(), bc.ToCSR()

	for trial := 0; trial < 60; trial++ {
		// Random window: A[r0:r1, k0:k1] · B[k0:k1, c0:c1]
		r0 := rng.Intn(M)
		r1 := r0 + 1 + rng.Intn(M-r0)
		k0 := rng.Intn(K)
		k1 := k0 + 1 + rng.Intn(K-k0)
		c0 := rng.Intn(N)
		c1 := c0 + 1 + rng.Intn(N-c0)
		m, n := r1-r0, c1-c0

		aw := CSRWin{M: as, Row0: r0, Col0: k0, Rows: m, Cols: k1 - k0}
		bw := CSRWin{M: bs, Row0: k0, Col0: c0, Rows: k1 - k0, Cols: n}
		adw := ad.Window(r0, r1, k0, k1)
		bdw := bd.Window(k0, k1, c0, c1)
		want := mat.MulReference(adw.Clone(), bdw.Clone())

		spa := NewSPA(n)
		cD := mat.NewDense(m, n)
		SpSpD(cD, aw, bw)
		if !cD.EqualApprox(want, tol) {
			t.Fatalf("trial %d: windowed SpSpD mismatch", trial)
		}
		cD.Zero()
		SpDD(cD, aw, bdw)
		if !cD.EqualApprox(want, tol) {
			t.Fatalf("trial %d: windowed SpDD mismatch", trial)
		}
		cD.Zero()
		DSpD(cD, adw, bw)
		if !cD.EqualApprox(want, tol) {
			t.Fatalf("trial %d: windowed DSpD mismatch", trial)
		}
		cD.Zero()
		DDD(cD, adw, bdw)
		if !cD.EqualApprox(want, tol) {
			t.Fatalf("trial %d: windowed DDD mismatch", trial)
		}

		acc := NewSpAcc(m, n)
		SpSpSp(acc, 0, 0, aw, bw, spa)
		if !acc.ToDense().EqualApprox(want, tol) {
			t.Fatalf("trial %d: windowed SpSpSp mismatch", trial)
		}
		acc = NewSpAcc(m, n)
		SpDSp(acc, 0, 0, aw, bdw, spa)
		if !acc.ToDense().EqualApprox(want, tol) {
			t.Fatalf("trial %d: windowed SpDSp mismatch", trial)
		}
		acc = NewSpAcc(m, n)
		DSpSp(acc, 0, 0, adw, bw, spa)
		if !acc.ToDense().EqualApprox(want, tol) {
			t.Fatalf("trial %d: windowed DSpSp mismatch", trial)
		}
	}
}

// TestAccumulation checks C' = C + A·B semantics: repeated kernel calls
// into the same target must sum, including mixed dense/sparse-target
// contributions at tile offsets.
func TestAccumulation(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	m, k, n := 20, 25, 30
	ad1, bd1, as1, bs1 := randomOperands(rng, m, k, n, 0.3, 0.3)
	ad2, bd2, as2, _ := randomOperands(rng, m, k, n, 0.3, 0.3)
	want := mat.MulReference(ad1, bd1)
	want.AddDense(mat.MulReference(ad2, bd2))

	cD := mat.NewDense(m, n)
	SpSpD(cD, FullCSR(as1), FullCSR(bs1))
	DDD(cD, ad2, bd2)
	if !cD.EqualApprox(want, tol) {
		t.Fatal("dense-target accumulation mismatch")
	}

	spa := NewSPA(n)
	acc := NewSpAcc(m, n)
	SpSpSp(acc, 0, 0, FullCSR(as1), FullCSR(bs1), spa)
	SpDSp(acc, 0, 0, FullCSR(as2), bd2, spa)
	if !acc.ToDense().EqualApprox(want, tol) {
		t.Fatal("sparse-target accumulation mismatch")
	}
}

// TestSparseTargetTileOffsets writes two disjoint windows of a larger tile
// and checks placement.
func TestSparseTargetTileOffsets(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	m, k, n := 8, 10, 9
	ad, bd, as, bs := randomOperands(rng, m, k, n, 0.4, 0.4)
	_ = bd
	want := mat.MulReference(ad, bd)

	tile := NewSpAcc(2*m, 2*n)
	spa := NewSPA(2 * n)
	SpSpSp(tile, 0, 0, FullCSR(as), FullCSR(bs), spa)
	SpSpSp(tile, m, n, FullCSR(as), FullCSR(bs), spa)
	got := tile.ToDense()
	if !got.Window(0, m, 0, n).Clone().EqualApprox(want, tol) {
		t.Fatal("offset (0,0) window mismatch")
	}
	if !got.Window(m, 2*m, n, 2*n).Clone().EqualApprox(want, tol) {
		t.Fatal("offset (m,n) window mismatch")
	}
	if got.Window(0, m, n, 2*n).Clone().NNZ() != 0 {
		t.Fatal("off-diagonal region polluted")
	}
}

func TestSPAGrow(t *testing.T) {
	spa := NewSPA(2)
	spa.Reset(10)
	spa.Add(9, 1)
	if spa.Value(9) != 1 {
		t.Fatal("SPA did not grow")
	}
}

func TestSpAccDropsCancellation(t *testing.T) {
	acc := NewSpAcc(1, 4)
	spa := NewSPA(4)
	spa.Reset(4)
	spa.Add(2, 5)
	acc.FlushRow(0, spa)
	spa.Reset(4)
	spa.Add(2, -5)
	acc.FlushRow(0, spa)
	csr := acc.ToCSR()
	if csr.NNZ() != 0 {
		t.Fatalf("cancelled entry kept: nnz=%d", csr.NNZ())
	}
}

func TestSpAccAddDense(t *testing.T) {
	acc := NewSpAcc(4, 4)
	d := mat.NewDense(2, 2)
	d.Set(0, 0, 1)
	d.Set(1, 1, 2)
	acc.AddDense(d, 1, 2)
	out := acc.ToDense()
	if out.At(1, 2) != 1 || out.At(2, 3) != 2 {
		t.Fatal("AddDense misplaced values")
	}
	if acc.Pending() != 2 {
		t.Fatalf("Pending = %d", acc.Pending())
	}
}

func TestCSRWinToDense(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	a := mat.RandomCOO(rng, 30, 30, 200).ToCSR()
	w := CSRWin{M: a, Row0: 5, Col0: 7, Rows: 10, Cols: 12}
	got := w.ToDense()
	want := a.ToDense().Window(5, 15, 7, 19).Clone()
	if !got.EqualApprox(want, 0) {
		t.Fatal("CSRWin.ToDense mismatch")
	}
	if w.NNZ() != got.NNZ() {
		t.Fatal("NNZ inconsistent with ToDense")
	}
}

func TestKernelDimensionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("dimension mismatch did not panic")
		}
	}()
	DDD(mat.NewDense(2, 2), mat.NewDense(2, 3), mat.NewDense(4, 2))
}
