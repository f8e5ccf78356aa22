package kernels

import (
	"math"
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
	v := &ColView{}
	v.fill(CSRWin{M: m, Row0: r0, Rows: r1 - r0, Cols: m.Cols}, nil)
	return v
}

// Bytes returns what the view's slices hold, counted from their capacities.
func (v *ColView) Bytes() int64 {
	return int64(cap(v.Col))*4 + int64(cap(v.Ptr))*8 + int64(cap(v.Row))*4 + int64(cap(v.Val))*8
}

// fill makes v the column view of window w, reusing v's storage. pos is
// the column counter, one entry per window column plus one; it is grown as
// needed and returned, so an arena can keep it.
func (v *ColView) fill(w CSRWin, pos []int64) []int64 {
	n := w.Cols
	// pos[c] is column c's fill cursor: its start after the prefix sum, its
	// end after the fill.
	pos = slices.Grow(pos[:0], n+1)[:n+1]
	clear(pos)
	wr := w.rows()
	c0 := int32(w.Col0)
	for r := 0; r < w.Rows; r++ {
		cols, _ := wr.row(r)
		for _, c := range cols {
			pos[c-c0+1]++
		}
	}
	for c := 1; c <= n; c++ {
		pos[c] += pos[c-1]
	}
	v.Rows = w.Rows
	nnz := int(pos[n])
	v.Row, v.Val = slices.Grow(v.Row[:0], nnz)[:nnz], slices.Grow(v.Val[:0], nnz)[:nnz]
	for r := 0; r < w.Rows; r++ {
		cols, vals := wr.row(r)
		for p, c := range cols {
			at := &pos[c-c0]
			v.Row[*at], v.Val[*at] = int32(r), vals[p]
			*at++
		}
	}
	// pos[c] is now column c's end; the non-empty columns are sized first,
	// so a view is allocated once, to length.
	cols, prev := 0, int64(0)
	for _, end := range pos[:n] {
		if end != prev {
			cols++
		}
		prev = end
	}
	v.Col, v.Ptr = slices.Grow(v.Col[:0], cols), append(slices.Grow(v.Ptr[:0], cols+1), 0)
	for c := 0; c < n; c++ {
		if pos[c] != v.Ptr[len(v.Ptr)-1] {
			v.Col = append(v.Col, int32(c))
			v.Ptr = append(v.Ptr, pos[c])
		}
	}
	return pos
}

// bColumns is the column form DSpD's tall-window walk reads B by: the B
// window's column view (its row ids are k) and, per non-empty column,
// whether it holds ±Inf or NaN. It lives in a worker's Scratch.
type bColumns struct {
	ColView
	odd []bool
	pos []int64
}

// bColumns builds the column form of the window b in the arena.
func (s *Scratch) bColumns(b CSRWin) *bColumns {
	bc := &s.bcols
	bc.pos = bc.fill(b, bc.pos)
	bc.odd = slices.Grow(bc.odd[:0], len(bc.Col))[:len(bc.Col)]
	for p := range bc.Col {
		bc.odd[p] = false
		for _, x := range bc.Val[bc.Ptr[p]:bc.Ptr[p+1]] {
			if math.IsInf(x, 0) || math.IsNaN(x) {
				bc.odd[p] = true
				break
			}
		}
	}
	return bc
}

func (bc *bColumns) bytes() int64 {
	return bc.ColView.Bytes() + int64(cap(bc.odd)) + int64(cap(bc.pos))*8
}

// SpSpDCols is SpSpD with a the columns [c0, c0+b.Rows) of the view's rows
// [r0, r0+c.Rows), so a row chunk touches only its own rows. It walks A
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
