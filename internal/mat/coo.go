package mat

import (
	"fmt"
	"sort"
)

// Entry is one element of the COO staging table: coordinates and value.
type Entry struct {
	Row, Col int32
	Val      float64
}

// COO is the unordered staging representation a raw matrix is loaded into
// before partitioning (paper §II-C1): simply a table of matrix tuples.
type COO struct {
	Rows, Cols int
	Ent        []Entry
}

// NewCOO returns an empty COO matrix of the given shape.
func NewCOO(rows, cols int) *COO {
	return &COO{Rows: rows, Cols: cols}
}

// Append adds an element. It does not check for duplicates; use Dedup to
// combine them.
func (a *COO) Append(row, col int, val float64) {
	a.Ent = append(a.Ent, Entry{Row: int32(row), Col: int32(col), Val: val})
}

// NNZ returns the number of stored entries (after Dedup, the number of
// structural non-zeros).
func (a *COO) NNZ() int64 { return int64(len(a.Ent)) }

// Density returns ρ = nnz/(m·n).
func (a *COO) Density() float64 { return Density(a.NNZ(), a.Rows, a.Cols) }

// Bytes returns the binary size of the triple/coordinate format, as
// reported in Table I of the paper.
func (a *COO) Bytes() int64 { return a.NNZ() * SizeCOO }

// Validate checks that all coordinates are inside the matrix bounds.
func (a *COO) Validate() error {
	for i, e := range a.Ent {
		if e.Row < 0 || int(e.Row) >= a.Rows || e.Col < 0 || int(e.Col) >= a.Cols {
			return fmt.Errorf("mat: COO entry %d (%d,%d) outside %d×%d bounds", i, e.Row, e.Col, a.Rows, a.Cols)
		}
	}
	return nil
}

// SortRowMajor orders entries by (row, col).
func (a *COO) SortRowMajor() {
	sort.Slice(a.Ent, func(i, j int) bool {
		if a.Ent[i].Row != a.Ent[j].Row {
			return a.Ent[i].Row < a.Ent[j].Row
		}
		return a.Ent[i].Col < a.Ent[j].Col
	})
}

// Dedup combines duplicate coordinates by summing their values and drops
// resulting explicit zeros. The receiver is left row-major sorted.
func (a *COO) Dedup() {
	a.SortRowMajor()
	a.Ent = FoldSorted(a.Ent)
}

// FoldSorted sums runs of equal coordinates of a row-major sorted entry
// slice in place, in slice order, and drops entries whose value is or sums
// to zero.
func FoldSorted(ents []Entry) []Entry {
	out := ents[:0]
	for i := 0; i < len(ents); {
		cur := ents[i]
		for i++; i < len(ents) && ents[i].Row == cur.Row && ents[i].Col == cur.Col; i++ {
			cur.Val += ents[i].Val
		}
		if cur.Val != 0 {
			out = append(out, cur)
		}
	}
	return out
}

// Clone returns a deep copy.
func (a *COO) Clone() *COO {
	ent := make([]Entry, len(a.Ent))
	copy(ent, a.Ent)
	return &COO{Rows: a.Rows, Cols: a.Cols, Ent: ent}
}

// Transpose returns Aᵀ as a new COO matrix.
func (a *COO) Transpose() *COO {
	t := &COO{Rows: a.Cols, Cols: a.Rows, Ent: make([]Entry, len(a.Ent))}
	for i, e := range a.Ent {
		t.Ent[i] = Entry{Row: e.Col, Col: e.Row, Val: e.Val}
	}
	return t
}

// ToCSR converts the staging table into CSR with sorted column ids per row.
// Duplicate coordinates are combined by summation.
func (a *COO) ToCSR() *CSR {
	c := a.Clone()
	c.Dedup() // leaves row-major order
	out := &CSR{
		Rows:   a.Rows,
		Cols:   a.Cols,
		RowPtr: make([]int64, a.Rows+1),
		ColIdx: make([]int32, len(c.Ent)),
		Val:    make([]float64, len(c.Ent)),
	}
	for i, e := range c.Ent {
		out.RowPtr[e.Row+1]++
		out.ColIdx[i] = e.Col
		out.Val[i] = e.Val
	}
	for r := 0; r < a.Rows; r++ {
		out.RowPtr[r+1] += out.RowPtr[r]
	}
	return out
}

// ToDense materializes the staging table as a dense row-major array,
// summing duplicates.
func (a *COO) ToDense() *Dense {
	d := NewDense(a.Rows, a.Cols)
	for _, e := range a.Ent {
		d.Data[int(e.Row)*d.Stride+int(e.Col)] += e.Val
	}
	return d
}
