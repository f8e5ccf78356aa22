// Package kernels implements the eight basic tile-multiplication kernels
// of the paper (§III-A): every combination of {sparse, dense} for the left
// input A, the right input B and the accumulated target C of
// C' = C + A·B. The sparse kernels follow Gustavson's row-based algorithm
// using the sparse accumulator (SPA) approach; all kernels support
// referenced submatrix multiplication (§III-B) — operating on an arbitrary
// rectangular window of each operand — which is what allows ATMULT to
// multiply tiles of mismatching sizes.
//
// The kernels are deliberately sequential: ATMULT parallelizes *around*
// them by splitting target-tile row ranges across the workers of a team
// (intra-tile parallelization, §III-F), so each kernel invocation touches a
// disjoint row range of the target.
package kernels

import (
	"math/bits"
	"slices"
	"unsafe"

	"atmatrix/internal/mat"
)

// SPA is the classical sparse accumulator: a dense value array of the
// target-tile width plus an occupancy bitmap (one bit per column) and the
// list of columns written since the last Reset, so that clearing between
// rows is O(touched) instead of O(width). The bitmap is also what makes the
// row's columns enumerable in ascending order without a comparison sort
// (EmitSorted). One SPA is reused for every row of every sparse-target
// kernel invocation of a worker.
type SPA struct {
	vals    []float64
	occ     []uint64 // bit c of the bitmap is set ⇔ column c is in touched
	touched []int32
	width   int // target width of the current row
}

// NewSPA returns a SPA usable for targets up to width columns wide.
func NewSPA(width int) *SPA {
	return &SPA{vals: make([]float64, width), occ: make([]uint64, (width+63)/64), width: width}
}

// Reset prepares the SPA for a new row of a target with the given width,
// growing the backing arrays if needed. The previous row's occupancy bits
// are cleared whether or not the row was emitted.
func (p *SPA) Reset(width int) {
	p.width = width
	if width > len(p.vals) {
		p.vals = make([]float64, width)
		p.occ = make([]uint64, (width+63)/64)
		p.touched = p.touched[:0]
		return
	}
	if len(p.touched) < len(p.occ) {
		for _, c := range p.touched {
			p.occ[c>>6] = 0
		}
	} else {
		clear(p.occ)
	}
	p.touched = p.touched[:0]
}

// Add accumulates v into column col of the current row.
//
//atlint:hotpath
func (p *SPA) Add(col int32, v float64) {
	w, bit := col>>6, uint64(1)<<(uint32(col)&63)
	if o := p.occ[w]; o&bit == 0 {
		p.occ[w] = o | bit
		p.vals[col] = v
		//atlint:ignore hotpath-alloc grow-only scatter list, amortized across all rows of a worker
		p.touched = append(p.touched, col)
		return
	}
	p.vals[col] += v
}

// Touched returns the columns written since the last Reset, in scatter
// order (ascending after an EmitSorted that took the sort path).
func (p *SPA) Touched() []int32 { return p.touched }

// Value returns the accumulated value for a touched column.
func (p *SPA) Value(col int32) float64 { return p.vals[col] }

// emitScanWords is the ordered-emit crossover: a row whose touched columns
// number at least 1/emitScanWords of the bitmap words of the current width
// is enumerated by scanning the bitmap, a sparser one by sorting the touched
// list. Skipping an empty word costs about an eighth of placing one element
// in a small ordered sort, and near the crossover the two loops cost the
// same within noise, so the rule needs no tuning knob: it is a property of
// the two loops, not of the host or the workload.
const emitScanWords = 8

// EmitSorted writes the current row's entries ascending by column into
// cols/vals, dropping exact zeros, and returns the number written. Both
// destinations must hold len(Touched()) entries. Dense-enough rows are
// enumerated by a trailing-zeros scan of the occupancy bitmap, hypersparse
// ones by an ordered sort of the (tiny) touched list; no (col, val) pair is
// ever compared or moved. The SPA keeps its contents until the next Reset.
//
//atlint:hotpath
func (p *SPA) EmitSorted(cols []int32, vals []float64) int {
	t := p.touched
	cols, vals = cols[:len(t)], vals[:len(t)]
	src := p.vals
	n := 0
	words := (p.width + 63) >> 6
	if len(t)*emitScanWords < words {
		if len(t) > 1 {
			slices.Sort(t)
		}
		for _, c := range t {
			if v := src[c]; v != 0 {
				cols[n], vals[n] = c, v
				n++
			}
		}
		return n
	}
	for w, word := range p.occ[:words] {
		base := int32(w << 6)
		for word != 0 {
			c := base + int32(bits.TrailingZeros64(word))
			word &= word - 1
			if v := src[c]; v != 0 {
				cols[n], vals[n] = c, v
				n++
			}
		}
	}
	return n
}

// AppendSorted appends the current row to cols/vals as EmitSorted yields it
// and returns the extended slices. Growth is the callers' grow-only storage
// (accumulator rows, band outputs) and amortizes to zero across rows.
//
//atlint:hotpath
func (p *SPA) AppendSorted(cols []int32, vals []float64) ([]int32, []float64) {
	n0, t := len(cols), len(p.touched)
	cols, vals = slices.Grow(cols, t)[:n0+t], slices.Grow(vals, t)[:n0+t]
	n := p.EmitSorted(cols[n0:], vals[n0:])
	return cols[:n0+n], vals[:n0+n]
}

// SPABytes is the resident footprint of a fresh SPA of the given width (the
// value array and one occupancy bit per column), for callers that account
// for accumulators before creating them. The touched list grows with the
// densest row seen and is not part of it.
func SPABytes(width int) int64 { return int64(width)*8 + int64((width+63)/64)*8 }

// bytes is the accumulator's resident footprint for scratch accounting.
func (p *SPA) bytes() int64 {
	return int64(cap(p.vals))*8 + int64(cap(p.occ))*8 + int64(cap(p.touched))*4
}

// accRow is one target row of a sparse accumulation target: the
// concatenation, in contribution order, of the sorted runs flushed into it.
// Every run is strictly ascending and free of exact zeros, so a row whose
// concatenation is itself strictly ascending — the single-run case, and
// every multi-run row whose runs happen not to interleave — is already
// final. unsorted records that some run started at or below the column its
// predecessor ended on; only those rows need combining.
type accRow struct {
	cols     []int32
	vals     []float64
	unsorted bool
}

// reserve returns the row's storage extended by n writable entries, for
// producers that know an upper bound on their run and write it by index.
// Capacity is grow-only and is retained across tiles by the owning Scratch.
func (r *accRow) reserve(n int) ([]int32, []float64) {
	need := len(r.cols) + n
	return slices.Grow(r.cols, n)[:need], slices.Grow(r.vals, n)[:need]
}

// commit installs cols/vals — the row's storage with one more run appended,
// truncated to the w entries in use — as the row's new contents; n0 is the
// row length before the run.
//
//atlint:hotpath
func (r *accRow) commit(cols []int32, vals []float64, n0, w int) {
	r.cols, r.vals = cols[:w], vals[:w]
	if n0 > 0 && w > n0 && cols[n0] <= cols[n0-1] {
		r.unsorted = true
	}
}

// SpAcc is a sparse accumulation target for one result tile: the tile is
// written accumulatively by multiple tile-multiplications (§III-C), each
// appending one sorted run per row, and the runs of a row are combined once
// at finalization — by CombineRows inside the row fan-out that produced
// them, or by ToCSR for rows nobody combined. Rows are independent, which
// is what lets ATMULT split a tile's row range across team workers without
// locking.
type SpAcc struct {
	Rows, Cols int
	rows       []accRow
	spa        *SPA // ToCSR's own accumulator, allocated only if it must combine
}

// NewSpAcc returns an empty sparse accumulation target of the given tile
// shape.
func NewSpAcc(rows, cols int) *SpAcc {
	return &SpAcc{Rows: rows, Cols: cols, rows: make([]accRow, rows)}
}

// Reset prepares the accumulator for a new rows×cols target, clearing all
// pending entries while retaining the per-row entry capacity accumulated by
// earlier uses — the grow-only reuse contract of the worker Scratch.
func (s *SpAcc) Reset(rows, cols int) {
	s.Rows, s.Cols = rows, cols
	if rows <= cap(s.rows) {
		s.rows = s.rows[:rows]
	} else {
		grown := make([]accRow, rows)
		copy(grown, s.rows[:cap(s.rows)])
		s.rows = grown
	}
	for i := range s.rows {
		r := &s.rows[i]
		r.cols, r.vals, r.unsorted = r.cols[:0], r.vals[:0], false
	}
}

// FlushRow appends the SPA contents as one sorted contribution run for tile
// row r and resets nothing (the caller Resets the SPA for the next row).
// The entries land directly in the row's grow-only storage — no
// intermediate allocation, which matters because this runs once per row per
// task.
//
//atlint:hotpath
func (s *SpAcc) FlushRow(r int, spa *SPA) {
	if len(spa.touched) == 0 {
		return
	}
	row := &s.rows[r]
	cols, vals := spa.AppendSorted(row.cols, row.vals)
	row.commit(cols, vals, len(row.cols), len(cols))
}

// CombineRows brings tile rows [lo, hi) into final form: strictly ascending
// columns, duplicates summed, exact zeros dropped. A row whose runs already
// concatenate in order is left as it is; any other is re-scattered through
// spa in stored order and emitted back in place. Duplicates are therefore
// summed in contribution order whatever the run shapes — the guarantee that
// keeps a product independent of how its rows were chunked over workers.
// Callers on different goroutines may combine disjoint row ranges
// concurrently, each with its own SPA.
//
//atlint:hotpath
func (s *SpAcc) CombineRows(lo, hi int, spa *SPA) {
	for r := lo; r < hi; r++ {
		row := &s.rows[r]
		if !row.unsorted {
			continue
		}
		spa.Reset(s.Cols)
		vals := row.vals[:len(row.cols)]
		for i, c := range row.cols {
			spa.Add(c, vals[i])
		}
		n := spa.EmitSorted(row.cols, row.vals)
		row.cols, row.vals, row.unsorted = row.cols[:n], row.vals[:n], false
	}
}

// scratchBytes sums the row storage capacities for scratch accounting.
func (s *SpAcc) scratchBytes() int64 {
	rows := s.rows[:cap(s.rows)]
	b := int64(cap(s.rows)) * int64(unsafe.Sizeof(accRow{}))
	for i := range rows {
		b += int64(cap(rows[i].cols))*4 + int64(cap(rows[i].vals))*8
	}
	if s.spa != nil {
		b += s.spa.bytes()
	}
	return b
}

// AddDense accumulates an already-computed dense block at tile offset
// (r0, c0); used when a tile is converted from a dense intermediate.
func (s *SpAcc) AddDense(d *mat.Dense, r0, c0 int) {
	for r := 0; r < d.Rows; r++ {
		row := &s.rows[r0+r]
		n0 := len(row.cols)
		cols, vals := row.cols, row.vals
		for c, v := range d.RowSlice(r) {
			if v != 0 {
				cols = append(cols, int32(c0+c))
				vals = append(vals, v)
			}
		}
		row.commit(cols, vals, n0, len(cols))
	}
}

// ToCSR returns the tile in CSR with sorted column ids, duplicates summed
// and exact zeros dropped. Rows still holding interleaved runs — nobody
// called CombineRows on them — are combined first, by the same routine;
// what remains is a prefix sum over the row lengths and one copy per row
// into the exact-size result arrays, the only allocations.
func (s *SpAcc) ToCSR() *mat.CSR {
	for r := range s.rows {
		if s.rows[r].unsorted {
			if s.spa == nil {
				s.spa = NewSPA(s.Cols)
			}
			s.CombineRows(r, s.Rows, s.spa)
			break
		}
	}
	out := mat.NewCSR(s.Rows, s.Cols)
	var nnz int64
	for r := range s.rows {
		nnz += int64(len(s.rows[r].cols))
		out.RowPtr[r+1] = nnz
	}
	out.ColIdx = make([]int32, nnz)
	out.Val = make([]float64, nnz)
	for r := range s.rows {
		q := out.RowPtr[r]
		copy(out.ColIdx[q:], s.rows[r].cols)
		copy(out.Val[q:], s.rows[r].vals)
	}
	return out
}

// ToDense combines all contribution runs into a dense tile.
func (s *SpAcc) ToDense() *mat.Dense {
	d := mat.NewDense(s.Rows, s.Cols)
	for r := range s.rows {
		row := d.RowSlice(r)
		vals := s.rows[r].vals
		for i, c := range s.rows[r].cols {
			row[c] += vals[i]
		}
	}
	return d
}
