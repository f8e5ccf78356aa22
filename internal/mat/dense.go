package mat

import (
	"fmt"
	"math"
)

// Dense is a row-major dense matrix with an explicit stride, mirroring the
// BLAS convention of a leading array dimension (lda) that may exceed the
// logical column count. The stride is what makes referenced submatrix
// multiplication cheap for dense tiles (paper §III-B): a window is just an
// offset plus the parent stride.
type Dense struct {
	Rows, Cols int
	Stride     int
	Data       []float64
}

// NewDense allocates a zeroed rows×cols dense matrix with Stride == cols.
func NewDense(rows, cols int) *Dense {
	return &Dense{Rows: rows, Cols: cols, Stride: cols, Data: make([]float64, rows*cols)}
}

// At returns the element at (r, c).
func (a *Dense) At(r, c int) float64 { return a.Data[r*a.Stride+c] }

// Set assigns the element at (r, c).
func (a *Dense) Set(r, c int, v float64) { a.Data[r*a.Stride+c] = v }

// Add accumulates v into the element at (r, c).
func (a *Dense) Add(r, c int, v float64) { a.Data[r*a.Stride+c] += v }

// RowSlice returns the r-th row as a slice of length Cols.
func (a *Dense) RowSlice(r int) []float64 {
	return a.Data[r*a.Stride : r*a.Stride+a.Cols]
}

// NNZ counts the non-zero values (used for density accounting of dense
// tiles after accumulation).
func (a *Dense) NNZ() int64 {
	var nnz int64
	for r := 0; r < a.Rows; r++ {
		for _, v := range a.RowSlice(r) {
			if v != 0 {
				nnz++
			}
		}
	}
	return nnz
}

// Density returns nnz/(m·n) based on actual stored zero/non-zero values.
func (a *Dense) Density() float64 { return Density(a.NNZ(), a.Rows, a.Cols) }

// Bytes returns the dense memory footprint S_d per element. The footprint
// is based on the logical shape, not the stride, because windows share
// their parent's storage.
func (a *Dense) Bytes() int64 { return DenseBytes(a.Rows, a.Cols) }

// Window returns a view of rows [r0,r1) × cols [c0,c1) sharing the
// receiver's backing array. Mutations through the view are visible in the
// parent.
func (a *Dense) Window(r0, r1, c0, c1 int) *Dense {
	w := a.View(r0, r1, c0, c1)
	return &w
}

// View is Window without the header allocation: it returns the view by
// value, so hot paths that take a window per row chunk or per contribution
// can keep the header on the stack (or embedded in a reused struct) and
// pass its address to kernels, which never retain it.
func (a *Dense) View(r0, r1, c0, c1 int) Dense {
	if r0 < 0 || r1 > a.Rows || c0 < 0 || c1 > a.Cols || r0 > r1 || c0 > c1 {
		panic(fmt.Sprintf("mat: Window [%d:%d,%d:%d] outside %d×%d", r0, r1, c0, c1, a.Rows, a.Cols))
	}
	start := r0*a.Stride + c0
	end := start
	if r1 > r0 && c1 > c0 {
		end = (r1-1)*a.Stride + c1
	}
	return Dense{Rows: r1 - r0, Cols: c1 - c0, Stride: a.Stride, Data: a.Data[start:end]}
}

// Clone returns a compact deep copy (Stride == Cols).
func (a *Dense) Clone() *Dense {
	b := NewDense(a.Rows, a.Cols)
	for r := 0; r < a.Rows; r++ {
		copy(b.RowSlice(r), a.RowSlice(r))
	}
	return b
}

// Zero clears all elements of the logical region.
func (a *Dense) Zero() {
	for r := 0; r < a.Rows; r++ {
		row := a.RowSlice(r)
		for i := range row {
			row[i] = 0
		}
	}
}

// Fill sets all elements of the logical region to v.
func (a *Dense) Fill(v float64) {
	for r := 0; r < a.Rows; r++ {
		row := a.RowSlice(r)
		for i := range row {
			row[i] = v
		}
	}
}

// Scale multiplies all elements by s in place.
func (a *Dense) Scale(s float64) {
	for r := 0; r < a.Rows; r++ {
		row := a.RowSlice(r)
		for i := range row {
			row[i] *= s
		}
	}
}

// AddDense accumulates b into the receiver element-wise.
func (a *Dense) AddDense(b *Dense) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("mat: AddDense shape mismatch %d×%d vs %d×%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	for r := 0; r < a.Rows; r++ {
		ar, br := a.RowSlice(r), b.RowSlice(r)
		for i := range ar {
			ar[i] += br[i]
		}
	}
}

// ToCSR converts to CSR, dropping zeros.
func (a *Dense) ToCSR() *CSR {
	out := NewCSR(a.Rows, a.Cols)
	var nnz int64
	for r := 0; r < a.Rows; r++ {
		for _, v := range a.RowSlice(r) {
			if v != 0 {
				nnz++
			}
		}
		out.RowPtr[r+1] = nnz
	}
	out.ColIdx = make([]int32, nnz)
	out.Val = make([]float64, nnz)
	var q int64
	for r := 0; r < a.Rows; r++ {
		for c, v := range a.RowSlice(r) {
			if v != 0 {
				out.ColIdx[q] = int32(c)
				out.Val[q] = v
				q++
			}
		}
	}
	return out
}

// ToCOO converts to the staging triple format, dropping zeros.
func (a *Dense) ToCOO() *COO {
	out := NewCOO(a.Rows, a.Cols)
	for r := 0; r < a.Rows; r++ {
		for c, v := range a.RowSlice(r) {
			if v != 0 {
				out.Append(r, c, v)
			}
		}
	}
	return out
}

// Transpose returns Aᵀ as a new compact dense matrix.
func (a *Dense) Transpose() *Dense {
	t := NewDense(a.Cols, a.Rows)
	for r := 0; r < a.Rows; r++ {
		row := a.RowSlice(r)
		for c, v := range row {
			t.Data[c*t.Stride+r] = v
		}
	}
	return t
}

// EqualApprox reports whether a and b have the same shape and all elements
// agree within tol (absolute or relative, whichever is looser).
func (a *Dense) EqualApprox(b *Dense, tol float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for r := 0; r < a.Rows; r++ {
		ar, br := a.RowSlice(r), b.RowSlice(r)
		for i := range ar {
			if !approxEq(ar[i], br[i], tol) {
				return false
			}
		}
	}
	return true
}

func approxEq(x, y, tol float64) bool {
	d := math.Abs(x - y)
	if d <= tol {
		return true
	}
	m := math.Max(math.Abs(x), math.Abs(y))
	return d <= tol*m
}
