package mat

import (
	"fmt"
	"sort"
)

// CSR is the compressed sparse row format (paper Fig. 1): RowPtr[i] points
// to the first element of row i inside ColIdx/Val, and RowPtr[rows] equals
// nnz. Column indices within each row are kept in ascending order so that
// column ranges can be found with binary search — a requirement of the
// referenced submatrix multiplication in §III-B ("we sorted the elements in
// each row by column id at creation time to enable binary column id
// search").
type CSR struct {
	Rows, Cols int
	RowPtr     []int64
	ColIdx     []int32
	Val        []float64
}

// NewCSR returns an empty CSR matrix of the given shape.
func NewCSR(rows, cols int) *CSR {
	return &CSR{Rows: rows, Cols: cols, RowPtr: make([]int64, rows+1)}
}

// NNZ returns the number of stored elements.
func (a *CSR) NNZ() int64 { return int64(len(a.Val)) }

// Density returns ρ = nnz/(m·n).
func (a *CSR) Density() float64 { return Density(a.NNZ(), a.Rows, a.Cols) }

// Bytes returns the CSR memory footprint using the paper's S_sp = 16 bytes
// per element accounting.
func (a *CSR) Bytes() int64 { return SparseBytes(a.NNZ()) }

// Row returns the column indices and values of row r.
func (a *CSR) Row(r int) ([]int32, []float64) {
	lo, hi := a.RowPtr[r], a.RowPtr[r+1]
	return a.ColIdx[lo:hi], a.Val[lo:hi]
}

// RowRange returns the half-open [start,end) positions of row r within
// ColIdx/Val.
func (a *CSR) RowRange(r int) (int64, int64) { return a.RowPtr[r], a.RowPtr[r+1] }

// ColSpan locates, inside row r, the element range whose column indices lie
// in [colLo, colHi). It uses binary search over the sorted column ids.
func (a *CSR) ColSpan(r int, colLo, colHi int32) (int64, int64) {
	lo, hi := a.RowPtr[r], a.RowPtr[r+1]
	cols := a.ColIdx[lo:hi]
	s := sort.Search(len(cols), func(i int) bool { return cols[i] >= colLo })
	e := sort.Search(len(cols), func(i int) bool { return cols[i] >= colHi })
	return lo + int64(s), lo + int64(e)
}

// At returns the value at (r, c), zero if not stored.
func (a *CSR) At(r, c int) float64 {
	lo, hi := a.ColSpan(r, int32(c), int32(c)+1)
	if lo < hi {
		return a.Val[lo]
	}
	return 0
}

// Validate checks structural invariants: monotone row pointers, in-bound
// and strictly ascending column indices per row.
func (a *CSR) Validate() error {
	if len(a.RowPtr) != a.Rows+1 {
		return fmt.Errorf("mat: CSR RowPtr length %d, want %d", len(a.RowPtr), a.Rows+1)
	}
	if a.RowPtr[0] != 0 {
		return fmt.Errorf("mat: CSR RowPtr[0] = %d, want 0", a.RowPtr[0])
	}
	if a.RowPtr[a.Rows] != int64(len(a.Val)) || len(a.Val) != len(a.ColIdx) {
		return fmt.Errorf("mat: CSR nnz mismatch: RowPtr end %d, len(Val) %d, len(ColIdx) %d",
			a.RowPtr[a.Rows], len(a.Val), len(a.ColIdx))
	}
	for r := 0; r < a.Rows; r++ {
		lo, hi := a.RowPtr[r], a.RowPtr[r+1]
		if lo > hi {
			return fmt.Errorf("mat: CSR row %d: RowPtr not monotone (%d > %d)", r, lo, hi)
		}
		if lo < 0 || hi > int64(len(a.Val)) {
			return fmt.Errorf("mat: CSR row %d: RowPtr range [%d,%d) outside payload of %d elements", r, lo, hi, len(a.Val))
		}
		for p := lo; p < hi; p++ {
			c := a.ColIdx[p]
			if c < 0 || int(c) >= a.Cols {
				return fmt.Errorf("mat: CSR row %d: column %d outside [0,%d)", r, c, a.Cols)
			}
			if p > lo && a.ColIdx[p-1] >= c {
				return fmt.Errorf("mat: CSR row %d: columns not strictly ascending at pos %d", r, p)
			}
		}
	}
	return nil
}

// Clone returns a deep copy.
func (a *CSR) Clone() *CSR {
	b := &CSR{
		Rows:   a.Rows,
		Cols:   a.Cols,
		RowPtr: append([]int64(nil), a.RowPtr...),
		ColIdx: append([]int32(nil), a.ColIdx...),
		Val:    append([]float64(nil), a.Val...),
	}
	return b
}

// ToCOO converts to the staging triple format, row-major ordered.
func (a *CSR) ToCOO() *COO {
	out := &COO{Rows: a.Rows, Cols: a.Cols, Ent: make([]Entry, 0, len(a.Val))}
	for r := 0; r < a.Rows; r++ {
		lo, hi := a.RowPtr[r], a.RowPtr[r+1]
		for p := lo; p < hi; p++ {
			out.Ent = append(out.Ent, Entry{Row: int32(r), Col: a.ColIdx[p], Val: a.Val[p]})
		}
	}
	return out
}

// ToDense materializes the matrix as a dense row-major array.
func (a *CSR) ToDense() *Dense {
	d := NewDense(a.Rows, a.Cols)
	for r := 0; r < a.Rows; r++ {
		lo, hi := a.RowPtr[r], a.RowPtr[r+1]
		row := d.Data[r*d.Stride : r*d.Stride+d.Cols]
		for p := lo; p < hi; p++ {
			row[a.ColIdx[p]] = a.Val[p]
		}
	}
	return d
}

// Transpose returns Aᵀ in CSR using a counting pass (Gustavson's permuted
// transposition).
func (a *CSR) Transpose() *CSR {
	t := &CSR{
		Rows:   a.Cols,
		Cols:   a.Rows,
		RowPtr: make([]int64, a.Cols+1),
		ColIdx: make([]int32, len(a.ColIdx)),
		Val:    make([]float64, len(a.Val)),
	}
	for _, c := range a.ColIdx {
		t.RowPtr[c+1]++
	}
	for r := 0; r < t.Rows; r++ {
		t.RowPtr[r+1] += t.RowPtr[r]
	}
	next := append([]int64(nil), t.RowPtr[:t.Rows]...)
	for r := 0; r < a.Rows; r++ {
		lo, hi := a.RowPtr[r], a.RowPtr[r+1]
		for p := lo; p < hi; p++ {
			c := a.ColIdx[p]
			q := next[c]
			next[c]++
			t.ColIdx[q] = int32(r)
			t.Val[q] = a.Val[p]
		}
	}
	return t
}

// NNZInWindow counts stored elements in rows [r0,r1) × cols [c0,c1).
func (a *CSR) NNZInWindow(r0, r1 int, c0, c1 int32) int64 {
	var nnz int64
	for r := r0; r < r1; r++ {
		lo, hi := a.ColSpan(r, c0, c1)
		nnz += hi - lo
	}
	return nnz
}

// MatVec computes y = A·x.
func (a *CSR) MatVec(x []float64) []float64 {
	if len(x) != a.Cols {
		panic(fmt.Sprintf("mat: MatVec dimension mismatch: %d columns, %d vector entries", a.Cols, len(x)))
	}
	y := make([]float64, a.Rows)
	for r := 0; r < a.Rows; r++ {
		lo, hi := a.RowPtr[r], a.RowPtr[r+1]
		var s float64
		for p := lo; p < hi; p++ {
			s += a.Val[p] * x[a.ColIdx[p]]
		}
		y[r] = s
	}
	return y
}

// Scale multiplies all stored values by s in place.
func (a *CSR) Scale(s float64) {
	for i := range a.Val {
		a.Val[i] *= s
	}
}
