package mat

import (
	"math/rand"
	"testing"
)

func TestCOOAppendAndValidate(t *testing.T) {
	a := NewCOO(3, 4)
	a.Append(0, 0, 1)
	a.Append(2, 3, -2)
	if err := a.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if a.NNZ() != 2 {
		t.Fatalf("NNZ = %d, want 2", a.NNZ())
	}
	a.Append(3, 0, 5)
	if err := a.Validate(); err == nil {
		t.Fatal("Validate accepted out-of-bounds row")
	}
}

func TestCOODedup(t *testing.T) {
	a := NewCOO(4, 4)
	a.Append(1, 1, 2)
	a.Append(1, 1, 3)
	a.Append(0, 2, 1)
	a.Append(3, 3, 4)
	a.Append(3, 3, -4) // cancels to explicit zero, must be dropped
	a.Dedup()
	if a.NNZ() != 2 {
		t.Fatalf("NNZ after Dedup = %d, want 2", a.NNZ())
	}
	got := a.ToDense()
	want := NewDense(4, 4)
	want.Set(1, 1, 5)
	want.Set(0, 2, 1)
	if !got.EqualApprox(want, 0) {
		t.Fatalf("Dedup result mismatch:\n%v\nwant\n%v", got.Data, want.Data)
	}
}

func TestCOODensityAndBytes(t *testing.T) {
	a := NewCOO(10, 10)
	for i := 0; i < 10; i++ {
		a.Append(i, i, 1)
	}
	if got := a.Density(); got != 0.1 {
		t.Fatalf("Density = %g, want 0.1", got)
	}
	if got := a.Bytes(); got != 160 {
		t.Fatalf("Bytes = %d, want 160", got)
	}
}

func TestCOOTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := RandomCOO(rng, 17, 31, 120)
	at := a.Transpose()
	if at.Rows != 31 || at.Cols != 17 {
		t.Fatalf("transpose shape %d×%d", at.Rows, at.Cols)
	}
	d := a.ToDense()
	dt := at.ToDense()
	for r := 0; r < d.Rows; r++ {
		for c := 0; c < d.Cols; c++ {
			if d.At(r, c) != dt.At(c, r) {
				t.Fatalf("transpose mismatch at (%d,%d)", r, c)
			}
		}
	}
}

func TestCOOToCSRRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		rows := 1 + rng.Intn(60)
		cols := 1 + rng.Intn(60)
		a := RandomCOO(rng, rows, cols, rng.Intn(rows*cols+1))
		csr := a.ToCSR()
		if err := csr.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		back := csr.ToCOO()
		if !back.ToDense().EqualApprox(a.ToDense(), 0) {
			t.Fatalf("trial %d: COO→CSR→COO round trip mismatch", trial)
		}
	}
}

func TestCOOToCSRCombinesDuplicates(t *testing.T) {
	a := NewCOO(2, 2)
	a.Append(0, 1, 1)
	a.Append(0, 1, 2)
	csr := a.ToCSR()
	if csr.NNZ() != 1 || csr.At(0, 1) != 3 {
		t.Fatalf("duplicate combination: nnz=%d, At(0,1)=%g", csr.NNZ(), csr.At(0, 1))
	}
}
