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
	"fmt"
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
// (accumulator segments, band outputs) and amortizes to zero across rows.
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

// addRun adds a sorted, zero-free run — a row the merge kernel wrote — into
// the current row.
//
//atlint:hotpath
func (p *SPA) addRun(cols []int32, vals []float64) {
	vals = vals[:len(cols)]
	for q, c := range cols {
		p.Add(c, vals[q])
	}
}

// fold adds q's non-zero entries into the current row and resets q: one
// later contribution's partial row joins the row total. A zero partial sum
// is skipped, as the run it used to be emitted as dropped it.
//
//atlint:hotpath
func (p *SPA) fold(q *SPA) {
	src := q.vals
	for _, c := range q.touched {
		if v := src[c]; v != 0 {
			p.Add(c, v)
		}
	}
	q.Reset(q.width)
}

// SpAcc is the sparse accumulation target for one result tile, which
// multiple tile multiplications write accumulatively (§III-C). It is
// written in row passes (Pass): a pass sums each of its rows over all the
// row's contributions and emits it once, ascending and without exact zeros,
// into the pass's segment — one contiguous grow-only buffer holding the
// pass's rows back to back. ToCSR is then a prefix sum over the row lengths
// and one copy per segment. Passes over disjoint row ranges touch disjoint
// segments and row lengths, which is what lets ATMULT split a tile's row
// range across team workers without locking.
type SpAcc struct {
	Rows, Cols int
	rowLen     []int32  // entries in each row; 0 for rows no pass wrote
	segs       []accSeg // in use; capacity (and each buffer's) retained
}

// accSeg is one pass's output: target rows [lo, hi), back to back.
type accSeg struct {
	lo, hi int
	cols   []int32
	vals   []float64
}

// NewSpAcc returns an empty sparse accumulation target of the given tile
// shape.
func NewSpAcc(rows, cols int) *SpAcc {
	return &SpAcc{Rows: rows, Cols: cols, rowLen: make([]int32, rows)}
}

// Reset prepares the accumulator for a new rows×cols target, dropping every
// written row while retaining the segments' capacity — the grow-only reuse
// contract of the worker Scratch.
func (s *SpAcc) Reset(rows, cols int) {
	s.Rows, s.Cols = rows, cols
	if cap(s.rowLen) < rows {
		s.rowLen = make([]int32, rows)
	} else {
		s.rowLen = s.rowLen[:rows]
		clear(s.rowLen)
	}
	s.segs = s.segs[:0]
}

// Split readies the target for passes on segments 0 … n−1, which may run
// concurrently over disjoint row ranges. Segments added since the last Reset
// start empty, and stay so if no pass writes them; every segment buffer
// keeps its capacity.
func (s *SpAcc) Split(n int) {
	from := len(s.segs)
	if n > cap(s.segs) {
		grown := make([]accSeg, n)
		copy(grown, s.segs[:cap(s.segs)])
		s.segs = grown
	}
	s.segs = s.segs[:n]
	for i := from; i < n; i++ {
		g := &s.segs[i]
		g.lo, g.hi, g.cols, g.vals = 0, 0, g.cols[:0], g.vals[:0]
	}
}

// Pass writes target rows [lo, hi) into segment seg: each row is the sum of
// the terms' window rows of the same index, computed with the executing
// worker's scratch. Every term's product spans the whole target. Passes on
// different segments may run concurrently if their row ranges are
// disjoint.
func (s *SpAcc) Pass(seg, lo, hi int, terms []Term, scr *Scratch) {
	if cap(scr.terms) < len(terms) {
		scr.terms = make([]termRows, len(terms))
	}
	p := rowPass{total: &scr.spa, part: &scr.part, ms: &scr.merge, terms: scr.terms[:len(terms)]}
	for i := range terms {
		t := &terms[i]
		// Of each operand's sparse and dense windows only one is set.
		checkDims(s.Rows, s.Cols, t.A.Rows+t.AD.Rows, t.A.Cols+t.AD.Cols, t.B.Rows+t.BD.Rows, t.B.Cols+t.BD.Cols)
		p.terms[i] = newTermRows(t.A, t.B, &t.AD, &t.BD, t.Outer, 0)
	}
	s.pass(&s.segs[seg], 0, lo, hi, &p)
	clear(p.terms) // a parked arena must not pin the task's operand tiles
}

// single is the one-contribution pass of the kernel entry points: window
// rows [0, rows) of t become target rows r0 … r0+rows−1, in a segment of
// their own. A target row is written once; several contributions to it are
// terms of one Pass, so a call that reaches rows an earlier one wrote
// panics.
func (s *SpAcc) single(r0, rows int, t termRows, spa *SPA, ms *MergeScratch) {
	for i := range s.segs {
		if g := &s.segs[i]; max(g.lo, r0) < min(g.hi, r0+rows) {
			panic(fmt.Sprintf("kernels: target rows [%d,%d) overlap rows [%d,%d) already written", r0, r0+rows, g.lo, g.hi))
		}
	}
	n := len(s.segs)
	s.Split(n + 1)
	terms := [1]termRows{t}
	s.pass(&s.segs[n], r0, 0, rows, &rowPass{total: spa, ms: ms, terms: terms[:]})
}

// rowPass is what a pass works with: the SPA each row's total is summed in,
// the SPA a later Gustavson-family contribution is scattered into before it
// is folded into the total (unused, and nil, with one term), the merge
// arena, and the terms.
type rowPass struct {
	total, part *SPA
	ms          *MergeScratch
	terms       []termRows
}

// pass writes window rows [lo, hi) of the sum of p's terms into g as target
// rows r0+lo … r0+hi−1.
//
// A row is the left fold, in term order, of the terms' non-zero partial
// sums: the first term that reaches the row scatters straight into the
// total SPA, every later one into the part SPA, folded in with the zero
// skip. A merge-kernel row is already sorted and zero-free, so it is
// written straight into the segment and stays there when nothing else
// reaches the row; otherwise it is added into the total like a fold. The
// bits are those of emitting every term's row alone (ascending, zero-free)
// and adding the emitted rows column by column in term order: adding ±0
// leaves a non-zero value unchanged, and a zero total is dropped at the
// emit either way.
//
//atlint:hotpath
func (s *SpAcc) pass(g *accSeg, r0, lo, hi int, p *rowPass) {
	g.lo, g.hi = r0+lo, r0+hi
	g.cols, g.vals = g.cols[:0], g.vals[:0]
	lens := s.rowLen[r0+lo : r0+hi]
	if len(p.terms) == 1 && p.terms[0].kind == outerTerm {
		p.ms.merge(&p.terms[0], lo, hi, g, lens)
		return
	}
	total, part := p.total, p.part
	total.Reset(s.Cols)
	if len(p.terms) > 1 {
		part.Reset(s.Cols)
	}
	for i := lo; i < hi; i++ {
		w0 := len(g.cols)
		for j := range p.terms {
			t := &p.terms[j]
			first := len(g.cols) == w0 && len(total.touched) == 0
			if t.kind == outerTerm {
				start := len(g.cols)
				p.ms.merge(t, i, i+1, g, lens[i-lo:i-lo+1])
				if len(g.cols) > start && !first {
					total.addRun(g.cols[w0:], g.vals[w0:])
					g.cols, g.vals = g.cols[:w0], g.vals[:w0]
				}
				continue
			}
			if first {
				t.scatter(i, total)
				continue
			}
			total.addRun(g.cols[w0:], g.vals[w0:]) // a merge row written so far
			g.cols, g.vals = g.cols[:w0], g.vals[:w0]
			t.scatter(i, part)
			total.fold(part)
		}
		if len(total.touched) > 0 {
			g.cols, g.vals = total.AppendSorted(g.cols, g.vals)
			total.Reset(s.Cols)
		}
		lens[i-lo] = int32(len(g.cols) - w0)
	}
}

// bytes is the accumulator's resident footprint for scratch accounting.
func (s *SpAcc) bytes() int64 {
	segs := s.segs[:cap(s.segs)]
	b := int64(cap(s.rowLen))*4 + int64(cap(segs))*int64(unsafe.Sizeof(accSeg{}))
	for i := range segs {
		b += int64(cap(segs[i].cols))*4 + int64(cap(segs[i].vals))*8
	}
	return b
}

// ToCSR returns the tile in CSR: a prefix sum over the row lengths and one
// copy per segment into the exact-size result arrays, the only allocations.
func (s *SpAcc) ToCSR() *mat.CSR {
	out := mat.NewCSR(s.Rows, s.Cols)
	var nnz int64
	for r, l := range s.rowLen {
		nnz += int64(l)
		out.RowPtr[r+1] = nnz
	}
	out.ColIdx = make([]int32, nnz)
	out.Val = make([]float64, nnz)
	for i := range s.segs {
		g := &s.segs[i]
		q := out.RowPtr[g.lo]
		copy(out.ColIdx[q:], g.cols)
		copy(out.Val[q:], g.vals)
	}
	return out
}

// ToDense returns the tile as a dense array.
func (s *SpAcc) ToDense() *mat.Dense { return s.ToCSR().ToDense() }
