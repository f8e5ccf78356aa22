package kernels

import (
	"math/rand"
	"testing"
	"testing/quick"

	"atmatrix/internal/mat"
)

// TestPropertyAllKernelsAgree drives every kernel combination with
// randomized shapes, densities and windows via testing/quick and checks
// them against the dense reference. This is the central invariant of the
// kernel layer: all eight physical combinations compute the same algebra.
func TestPropertyAllKernelsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := 1 + r.Intn(24)
		k := 1 + r.Intn(24)
		n := 1 + r.Intn(24)
		ac := mat.RandomCOO(r, m, k, r.Intn(m*k+1))
		bc := mat.RandomCOO(r, k, n, r.Intn(k*n+1))
		ad, bd := ac.ToDense(), bc.ToDense()
		as, bs := ac.ToCSR(), bc.ToCSR()
		want := mat.MulReference(ad, bd)
		spa := NewSPA(n)

		results := make([]*mat.Dense, 0, 8)
		cD := mat.NewDense(m, n)
		DDD(cD, ad, bd)
		results = append(results, cD)
		cD = mat.NewDense(m, n)
		SpDD(cD, FullCSR(as), bd)
		results = append(results, cD)
		cD = mat.NewDense(m, n)
		DSpD(cD, ad, FullCSR(bs))
		results = append(results, cD)
		cD = mat.NewDense(m, n)
		SpSpD(cD, FullCSR(as), FullCSR(bs))
		results = append(results, cD)
		for variant := 0; variant < 4; variant++ {
			acc := NewSpAcc(m, n)
			switch variant {
			case 0:
				SpSpSp(acc, 0, 0, FullCSR(as), FullCSR(bs), spa)
			case 1:
				SpDSp(acc, 0, 0, FullCSR(as), bd, spa)
			case 2:
				DSpSp(acc, 0, 0, ad, FullCSR(bs), spa)
			case 3:
				DDSp(acc, 0, 0, ad, bd, spa)
			}
			csr := acc.ToCSR()
			if csr.Validate() != nil {
				return false
			}
			results = append(results, csr.ToDense())
		}
		for _, got := range results {
			if !got.EqualApprox(want, 1e-10) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rng}); err != nil {
		t.Error(err)
	}
}

// TestPropertyIndexedWindowsEquivalent: BuildIndex plus RowSlice must be
// behaviourally identical to the unindexed window.
func TestPropertyIndexedWindowsEquivalent(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rows := 4 + r.Intn(40)
		cols := 4 + r.Intn(40)
		m := mat.RandomCOO(r, rows, cols, r.Intn(rows*cols+1)).ToCSR()
		r0 := r.Intn(rows)
		r1 := r0 + 1 + r.Intn(rows-r0)
		c0 := r.Intn(cols)
		c1 := c0 + 1 + r.Intn(cols-c0)
		plain := CSRWin{M: m, Row0: r0, Col0: c0, Rows: r1 - r0, Cols: c1 - c0}
		indexed := plain
		indexed.BuildIndex()
		if plain.NNZ() != indexed.NNZ() {
			return false
		}
		if !indexed.ToDense().EqualApprox(plain.ToDense(), 0) {
			return false
		}
		// Row-sliced indexed windows.
		if plain.Rows >= 2 {
			lo := r.Intn(plain.Rows - 1)
			hi := lo + 1 + r.Intn(plain.Rows-lo-1)
			s1 := plain.RowSlice(lo, hi)
			s2 := indexed.RowSlice(lo, hi)
			if !s2.ToDense().EqualApprox(s1.ToDense(), 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rng}); err != nil {
		t.Error(err)
	}
}

// TestPropertySpAccLinearity: a row pass over contributions X and Y equals
// the sum of the two products — the basis for the k-loop accumulation in
// ATMULT.
func TestPropertySpAccLinearity(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m, k, n := 1+r.Intn(16), 1+r.Intn(16), 1+r.Intn(16)
		a1 := mat.RandomCOO(r, m, k, r.Intn(m*k+1)).ToCSR()
		a2 := mat.RandomCOO(r, m, k, r.Intn(m*k+1)).ToCSR()
		b := mat.RandomCOO(r, k, n, r.Intn(k*n+1)).ToCSR()
		both := NewSpAcc(m, n)
		both.Split(1)
		both.Pass(0, 0, m, []Term{{A: FullCSR(a1), B: FullCSR(b)}, {A: FullCSR(a2), B: FullCSR(b)}}, NewScratch())

		want := mat.MulReference(a1.ToDense(), b.ToDense())
		want.AddDense(mat.MulReference(a2.ToDense(), b.ToDense()))
		return both.ToDense().EqualApprox(want, 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rng}); err != nil {
		t.Error(err)
	}
}
