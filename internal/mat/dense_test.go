package mat

import (
	"math/rand"
	"testing"
)

func TestDenseWindowSharesStorage(t *testing.T) {
	a := NewDense(6, 8)
	w := a.Window(2, 5, 3, 7)
	if w.Rows != 3 || w.Cols != 4 || w.Stride != 8 {
		t.Fatalf("window shape %d×%d stride %d", w.Rows, w.Cols, w.Stride)
	}
	w.Set(0, 0, 42)
	if a.At(2, 3) != 42 {
		t.Fatal("window write not visible in parent")
	}
	a.Set(4, 6, 7)
	if w.At(2, 3) != 7 {
		t.Fatal("parent write not visible in window")
	}
}

func TestDenseWindowBounds(t *testing.T) {
	a := NewDense(4, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-bounds window did not panic")
		}
	}()
	a.Window(0, 5, 0, 4)
}

func TestDenseNNZAndDensity(t *testing.T) {
	a := NewDense(4, 5)
	a.Set(0, 0, 1)
	a.Set(3, 4, -2)
	if a.NNZ() != 2 {
		t.Fatalf("NNZ = %d", a.NNZ())
	}
	if a.Density() != 0.1 {
		t.Fatalf("Density = %g", a.Density())
	}
}

func TestDenseToCSRRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := RandomCOO(rng, 23, 37, 300).ToDense()
	csr := a.ToCSR()
	if err := csr.Validate(); err != nil {
		t.Fatal(err)
	}
	if !csr.ToDense().EqualApprox(a, 0) {
		t.Fatal("Dense→CSR→Dense mismatch")
	}
}

func TestDenseWindowToCSRRebasesCoordinates(t *testing.T) {
	a := NewDense(4, 6)
	a.Set(2, 3, 5)
	w := a.Window(2, 4, 3, 6)
	csr := w.ToCSR()
	if csr.At(0, 0) != 5 {
		t.Fatalf("windowed ToCSR: At(0,0) = %g, want 5", csr.At(0, 0))
	}
}

func TestDenseTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := RandomDense(rng, 9, 13)
	at := a.Transpose()
	for r := 0; r < a.Rows; r++ {
		for c := 0; c < a.Cols; c++ {
			if a.At(r, c) != at.At(c, r) {
				t.Fatalf("transpose mismatch at (%d,%d)", r, c)
			}
		}
	}
}

func TestDenseAddScaleFillZero(t *testing.T) {
	a := NewDense(3, 3)
	a.Fill(2)
	b := NewDense(3, 3)
	b.Fill(3)
	a.AddDense(b)
	if a.At(1, 1) != 5 {
		t.Fatalf("AddDense: %g", a.At(1, 1))
	}
	a.Scale(2)
	if a.At(2, 2) != 10 {
		t.Fatalf("Scale: %g", a.At(2, 2))
	}
	a.Zero()
	if a.NNZ() != 0 {
		t.Fatal("Zero left non-zeros")
	}
}

func TestDenseOpsRespectWindows(t *testing.T) {
	a := NewDense(4, 4)
	a.Fill(1)
	w := a.Window(1, 3, 1, 3)
	w.Zero()
	if a.NNZ() != 12 {
		t.Fatalf("windowed Zero cleared %d cells, want 4", 16-a.NNZ())
	}
	w.Fill(9)
	if a.At(1, 1) != 9 || a.At(0, 0) != 1 {
		t.Fatal("windowed Fill leaked outside the window")
	}
}

func TestEqualApproxTolerance(t *testing.T) {
	a := NewDense(1, 1)
	b := NewDense(1, 1)
	a.Set(0, 0, 1.0)
	b.Set(0, 0, 1.0+1e-12)
	if !a.EqualApprox(b, 1e-9) {
		t.Fatal("EqualApprox rejected values within tolerance")
	}
	b.Set(0, 0, 1.1)
	if a.EqualApprox(b, 1e-9) {
		t.Fatal("EqualApprox accepted values outside tolerance")
	}
	if a.EqualApprox(NewDense(1, 2), 1) {
		t.Fatal("EqualApprox accepted shape mismatch")
	}
}

func TestMulReference(t *testing.T) {
	a := NewDense(2, 3)
	b := NewDense(3, 2)
	// A = [1 2 3; 4 5 6], B = [7 8; 9 10; 11 12]
	copy(a.Data, []float64{1, 2, 3, 4, 5, 6})
	copy(b.Data, []float64{7, 8, 9, 10, 11, 12})
	c := MulReference(a, b)
	want := []float64{58, 64, 139, 154}
	for i, v := range want {
		if c.Data[i] != v {
			t.Fatalf("MulReference[%d] = %g, want %g", i, c.Data[i], v)
		}
	}
}

func TestMulReferenceIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := RandomDense(rng, 12, 12)
	id := NewDense(12, 12)
	for i := 0; i < 12; i++ {
		id.Set(i, i, 1)
	}
	if !MulReference(a, id).EqualApprox(a, 1e-12) {
		t.Fatal("A·I != A")
	}
	if !MulReference(id, a).EqualApprox(a, 1e-12) {
		t.Fatal("I·A != A")
	}
}
