package kernels

import (
	"slices"

	"atmatrix/internal/mat"
)

// ColView is one row band of a sparse tile held by column, as SpSpDCols
// reads A: the band's non-empty columns, ascending, and for the p-th its
// [Ptr[p], Ptr[p+1]) range of band-local row ids (ascending) and values.
// Empty columns are not kept, so a view stores O(nnz) bytes.
type ColView struct {
	Rows int
	Col  []int32
	Ptr  []int64
	Row  []int32
	Val  []float64
}

// NewColView builds the column view of rows [r0, r1) of m by one counting
// pass; stored zeros are kept, as SpSpD multiplies them through too.
func NewColView(m *mat.CSR, r0, r1 int) *ColView {
	lo, hi := m.RowPtr[r0], m.RowPtr[r1]
	// pos[c] is column c's fill cursor: its start after the prefix sum, its
	// end after the fill.
	pos := make([]int64, m.Cols+1)
	for _, c := range m.ColIdx[lo:hi] {
		pos[c+1]++
	}
	for c := 1; c <= m.Cols; c++ {
		pos[c] += pos[c-1]
	}
	v := &ColView{Rows: r1 - r0, Ptr: []int64{0}, Row: make([]int32, hi-lo), Val: make([]float64, hi-lo)}
	for r := r0; r < r1; r++ {
		for p := m.RowPtr[r]; p < m.RowPtr[r+1]; p++ {
			at := &pos[m.ColIdx[p]]
			v.Row[*at], v.Val[*at] = int32(r-r0), m.Val[p]
			*at++
		}
	}
	for c := 0; c < m.Cols; c++ {
		if pos[c] != v.Ptr[len(v.Ptr)-1] {
			v.Col = append(v.Col, int32(c))
			v.Ptr = append(v.Ptr, pos[c])
		}
	}
	return v
}

// SpSpDCols is SpSpD with a the columns [c0, c0+b.Rows) of the view's rows
// [r0, r0+c.Rows), so a fan-out chunk touches only its own rows. It walks A
// by column: B row k is fetched once and scattered into every target row
// with a stored A entry in column k. Each output element still receives
// its products in ascending k, one c += a·b each, so the bits are SpSpD's.
//
//atlint:hotpath
func SpSpDCols(c *mat.Dense, a *ColView, r0, c0 int, b CSRWin) {
	checkDims(c.Rows, c.Cols, c.Rows, b.Rows, b.Rows, b.Cols)
	if r0 < 0 || r0+c.Rows > a.Rows {
		panic("kernels: target rows outside the column view")
	}
	lo, hi := int32(r0), int32(r0+c.Rows)
	k0, k1 := int32(c0), int32(c0+b.Rows)
	bc0 := int32(b.Col0)
	br := b.rows()
	first, _ := slices.BinarySearch(a.Col, k0)
	for p := first; p < len(a.Col) && a.Col[p] < k1; p++ {
		bcols, bvals := br.row(int(a.Col[p] - k0))
		if len(bcols) == 0 {
			continue
		}
		long := len(bcols) >= scatterUnrollMin
		for q := a.Ptr[p]; q < a.Ptr[p+1]; q++ {
			r := a.Row[q]
			if r < lo {
				continue
			}
			if r >= hi {
				break
			}
			crow, av := c.RowSlice(int(r-lo)), a.Val[q]
			if long {
				scatter4(crow, bcols, bvals, av, bc0)
				continue
			}
			for j, bcol := range bcols {
				crow[bcol-bc0] += av * bvals[j]
			}
		}
	}
}
