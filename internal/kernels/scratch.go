package kernels

import (
	"unsafe"

	"atmatrix/internal/mat"
)

// Scratch is the reusable arena owned by one persistent worker of the
// scheduler runtime (§III-F's long-lived team workers). It bundles every
// piece of transient state a tile-multiplication task needs — the two SPAs
// of a row pass, the sparse accumulation target's segments, the merge
// arena and dense conversion panels — so that repeated ATMULT invocations
// stop paying one allocation per tile per worker. All buffers grow
// monotonically and are reused across tiles, phases, and whole Multiply
// calls; SpArch-style bounded reused accumulator buffers rather than fresh
// ones per tile.
//
// A Scratch is not safe for concurrent use; the scheduler guarantees each
// worker slot is held by exactly one goroutine at a time.
type Scratch struct {
	spa, part SPA
	acc       SpAcc
	merge     MergeScratch
	terms     []termRows // a pass's terms, cleared after it
	bcols     bColumns   // DSpD's tall-window column form of B

	panels    []*mat.Dense
	panelUsed int
}

// NewScratch returns an empty arena. The zero value is also usable.
func NewScratch() *Scratch { return &Scratch{} }

// BeginTask resets the per-task arenas (conversion panels) for a new
// tile-multiplication task. Capacity is retained.
func (s *Scratch) BeginTask() {
	s.panelUsed = 0
	s.merge.release()
}

// SPA returns the worker's reusable sparse accumulator. Kernels Reset it
// per row, growing it to the current target width as needed.
func (s *Scratch) SPA() *SPA { return &s.spa }

// SPAs returns the worker's two reusable sparse accumulators — a row pass's
// total and part — for a caller that ping-pongs rows between them.
func (s *Scratch) SPAs() (*SPA, *SPA) { return &s.spa, &s.part }

// Merge returns the worker's reusable loser-tree merge arena for the
// outer-product SpGEMM kernel. Grow-only, like every other arena here.
func (s *Scratch) Merge() *MergeScratch { return &s.merge }

// Acc returns the worker's reusable sparse accumulation target, resized to
// rows×cols with no row written (segment capacity retained).
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

// Bytes returns the arena's resident footprint — the scratch high-water
// mark, since buffers only grow.
func (s *Scratch) Bytes() int64 {
	b := s.spa.bytes() + s.part.bytes() + s.acc.bytes() + s.merge.bytes() + s.bcols.bytes()
	b += int64(cap(s.terms)) * int64(unsafe.Sizeof(termRows{}))
	b += int64(cap(s.panels)) * 8 // the panel arena's pointer slice
	for _, p := range s.panels {
		b += int64(cap(p.Data)) * 8
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
