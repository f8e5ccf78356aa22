package kernels

import "atmatrix/internal/mat"

// Scratch is the reusable arena owned by one persistent worker of the
// scheduler runtime (§III-F's long-lived team workers). It bundles every
// piece of transient state a tile-multiplication task needs — the SPA, the
// sparse accumulation target's run storage, dense conversion panels, and
// CSR conversion buffers — so that repeated ATMULT invocations stop paying
// one allocation per tile per worker. All buffers grow monotonically and
// are reused across tiles, phases, and whole Multiply calls; SpArch-style
// bounded reused accumulator buffers rather than fresh ones per tile.
//
// A Scratch is not safe for concurrent use; the scheduler guarantees each
// worker slot is held by exactly one goroutine at a time.
type Scratch struct {
	spa   SPA
	acc   SpAcc
	merge MergeScratch

	panels    []*mat.Dense
	panelUsed int

	csrs    []*mat.CSR
	csrUsed int
}

// NewScratch returns an empty arena. The zero value is also usable.
func NewScratch() *Scratch { return &Scratch{} }

// BeginTask resets the per-task arenas (conversion panels and CSR buffers)
// for a new tile-multiplication task. Capacity is retained.
func (s *Scratch) BeginTask() {
	s.panelUsed = 0
	s.csrUsed = 0
	s.merge.release()
}

// SPA returns the worker's reusable sparse accumulator. Kernels Reset it
// per row, growing it to the current target width as needed.
func (s *Scratch) SPA() *SPA { return &s.spa }

// Merge returns the worker's reusable loser-tree merge arena for the
// outer-product SpGEMM kernel. Grow-only, like every other arena here.
func (s *Scratch) Merge() *MergeScratch { return &s.merge }

// Acc returns the worker's reusable sparse accumulation target, resized to
// rows×cols with all pending entries cleared (entry capacity retained).
func (s *Scratch) Acc(rows, cols int) *SpAcc {
	s.acc.Reset(rows, cols)
	return &s.acc
}

// Dense returns a zeroed rows×cols panel from the grow-only panel arena.
// The panel is valid until the next BeginTask; distinct Dense calls within
// one task return distinct panels, so several converted operand windows can
// be alive at once.
func (s *Scratch) Dense(rows, cols int) *mat.Dense {
	if s.panelUsed == len(s.panels) {
		s.panels = append(s.panels, &mat.Dense{})
	}
	p := s.panels[s.panelUsed]
	s.panelUsed++
	need := rows * cols
	if cap(p.Data) < need {
		p.Data = make([]float64, need)
	} else {
		p.Data = p.Data[:need]
		clear(p.Data)
	}
	p.Rows, p.Cols, p.Stride = rows, cols, cols
	return p
}

// CSR returns an empty CSR shell of the given shape from the grow-only CSR
// arena (RowPtr sized, ColIdx/Val empty with capacity retained), for
// dense→sparse window conversions. Valid until the next BeginTask.
func (s *Scratch) CSR(rows, cols int) *mat.CSR {
	if s.csrUsed == len(s.csrs) {
		s.csrs = append(s.csrs, &mat.CSR{})
	}
	m := s.csrs[s.csrUsed]
	s.csrUsed++
	if cap(m.RowPtr) < rows+1 {
		m.RowPtr = make([]int64, rows+1)
	} else {
		m.RowPtr = m.RowPtr[:rows+1]
	}
	m.RowPtr[0] = 0
	m.ColIdx = m.ColIdx[:0]
	m.Val = m.Val[:0]
	m.Rows, m.Cols = rows, cols
	return m
}

// Bytes returns the arena's resident footprint — the scratch high-water
// mark, since buffers only grow.
func (s *Scratch) Bytes() int64 {
	b := s.spa.bytes() + s.acc.scratchBytes() + s.merge.bytes()
	b += int64(cap(s.panels)+cap(s.csrs)) * 8 // the arenas' pointer slices
	for _, p := range s.panels {
		b += int64(cap(p.Data)) * 8
	}
	for _, m := range s.csrs {
		b += int64(cap(m.RowPtr))*8 + int64(cap(m.ColIdx))*4 + int64(cap(m.Val))*8
	}
	return b
}

// ToDenseScratch materializes the window like ToDense, but into a panel
// from the scratch arena instead of a fresh allocation. The result is valid
// until the arena's next BeginTask.
func (w CSRWin) ToDenseScratch(s *Scratch) *mat.Dense {
	d := s.Dense(w.Rows, w.Cols)
	w.fillDense(d)
	return d
}

// DenseToCSRScratch converts a dense window (typically a tile window view)
// into a CSR matrix backed by the scratch CSR arena, dropping zeros. The
// result is valid until the arena's next BeginTask.
func DenseToCSRScratch(d *mat.Dense, s *Scratch) *mat.CSR {
	out := s.CSR(d.Rows, d.Cols)
	for r := 0; r < d.Rows; r++ {
		for c, v := range d.RowSlice(r) {
			if v != 0 {
				out.ColIdx = append(out.ColIdx, int32(c))
				out.Val = append(out.Val, v)
			}
		}
		out.RowPtr[r+1] = int64(len(out.ColIdx))
	}
	return out
}
