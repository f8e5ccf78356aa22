package mat

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// paperFig1 is the example matrix of Fig. 1 in the paper:
//
//	[1 0 0 2]
//	[0 3 0 0]
//	[0 4 5 0]
//	[6 0 0 7]
func paperFig1() *CSR {
	a := NewCOO(4, 4)
	for _, e := range []struct {
		r, c int
		v    float64
	}{{0, 0, 1}, {0, 3, 2}, {1, 1, 3}, {2, 1, 4}, {2, 2, 5}, {3, 0, 6}, {3, 3, 7}} {
		a.Append(e.r, e.c, e.v)
	}
	return a.ToCSR()
}

func TestCSRStructureFig1(t *testing.T) {
	a := paperFig1()
	wantPtr := []int64{0, 2, 3, 5, 7}
	for i, p := range wantPtr {
		if a.RowPtr[i] != p {
			t.Fatalf("RowPtr[%d] = %d, want %d", i, a.RowPtr[i], p)
		}
	}
	wantCols := []int32{0, 3, 1, 1, 2, 0, 3}
	for i, c := range wantCols {
		if a.ColIdx[i] != c {
			t.Fatalf("ColIdx[%d] = %d, want %d", i, a.ColIdx[i], c)
		}
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCSRAt(t *testing.T) {
	a := paperFig1()
	if v := a.At(2, 2); v != 5 {
		t.Fatalf("At(2,2) = %g, want 5", v)
	}
	if v := a.At(1, 3); v != 0 {
		t.Fatalf("At(1,3) = %g, want 0", v)
	}
}

func TestCSRColSpan(t *testing.T) {
	a := paperFig1()
	lo, hi := a.ColSpan(0, 1, 4) // row 0 has cols {0,3}; span [1,4) must hold col 3 only
	if hi-lo != 1 || a.ColIdx[lo] != 3 {
		t.Fatalf("ColSpan(0,1,4) = [%d,%d)", lo, hi)
	}
	lo, hi = a.ColSpan(2, 0, 2) // row 2 has cols {1,2}; span [0,2) holds col 1
	if hi-lo != 1 || a.ColIdx[lo] != 1 {
		t.Fatalf("ColSpan(2,0,2) = [%d,%d)", lo, hi)
	}
	lo, hi = a.ColSpan(1, 2, 4) // row 1 has col 1 only
	if hi != lo {
		t.Fatalf("ColSpan(1,2,4) = [%d,%d), want empty", lo, hi)
	}
}

func TestCSRTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := RandomCOO(rng, 33, 21, 200).ToCSR()
	at := a.Transpose()
	if err := at.Validate(); err != nil {
		t.Fatal(err)
	}
	if !at.ToDense().EqualApprox(a.ToDense().Transpose(), 0) {
		t.Fatal("transpose mismatch")
	}
	// Double transpose is the identity.
	if !at.Transpose().ToDense().EqualApprox(a.ToDense(), 0) {
		t.Fatal("double transpose is not identity")
	}
}

func TestCSRTransposeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rows, cols := 1+r.Intn(30), 1+r.Intn(30)
		a := RandomCOO(r, rows, cols, r.Intn(rows*cols+1)).ToCSR()
		at := a.Transpose()
		return at.Validate() == nil && at.NNZ() == a.NNZ() &&
			at.ToDense().EqualApprox(a.ToDense().Transpose(), 0)
	}
	cfg := &quick.Config{MaxCount: 30, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestCSRMatVec(t *testing.T) {
	a := paperFig1()
	x := []float64{1, 2, 3, 4}
	y := a.MatVec(x)
	want := []float64{1*1 + 2*4, 3 * 2, 4*2 + 5*3, 6*1 + 7*4}
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("MatVec[%d] = %g, want %g", i, y[i], want[i])
		}
	}
}

func TestCSRValidateCatchesCorruption(t *testing.T) {
	a := paperFig1()
	a.ColIdx[1] = 99
	if err := a.Validate(); err == nil {
		t.Fatal("Validate accepted out-of-range column")
	}
	a = paperFig1()
	a.ColIdx[0], a.ColIdx[1] = a.ColIdx[1], a.ColIdx[0]
	if err := a.Validate(); err == nil {
		t.Fatal("Validate accepted unsorted columns")
	}
	a = paperFig1()
	a.RowPtr[2] = 99
	if err := a.Validate(); err == nil {
		t.Fatal("Validate accepted broken row pointers")
	}
}

func TestCSRScaleAndClone(t *testing.T) {
	a := paperFig1()
	b := a.Clone()
	b.Scale(2)
	if a.At(0, 0) != 1 || b.At(0, 0) != 2 {
		t.Fatal("Clone does not isolate Scale")
	}
}

func TestCSRValidateCatchesOutOfRangePointers(t *testing.T) {
	// RowPtr sequence that is locally increasing but points outside the
	// payload — found by fuzzing the AT MATRIX deserializer.
	a := NewCSR(2, 2)
	a.RowPtr = []int64{0, 1, 0}
	if err := a.Validate(); err == nil {
		t.Fatal("out-of-range row pointer accepted")
	}
	a = NewCSR(2, 2)
	a.RowPtr = []int64{0, -3, 0}
	if err := a.Validate(); err == nil {
		t.Fatal("negative row pointer accepted")
	}
}
