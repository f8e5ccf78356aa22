package kernels

import (
	"math"
	"slices"
)

// This file implements the ninth tile kernel, OuterSpSp: an outer-product
// SpGEMM in the style of SpArch (Zhang et al., HPCA'20) for the
// hypersparse×hypersparse tile class, where Gustavson's SPA pays a full
// accumulator scatter (random accesses across the whole target width plus
// an ordered emit of the scattered entries) for rows that only ever hold a
// handful of elements.
//
// The outer-product view: C = Σ_k A[·,k] ⊗ B[k,·]. Every stored element
// a_ik selects the sorted partial-product run a_ik·B[k,·] of output row i,
// so row i of C is exactly the multiway merge of the runs selected by the
// stored elements of A row i. OuterSpSp combines those runs with a k-way
// loser-tree merge — O(log R) comparisons per emitted element for R runs —
// and emits strictly ascending, duplicate-combined columns straight into
// the target's segment. The output being sorted is itself part of the win:
// the kernel pays nothing for the ordered emit Gustavson's SPA needs, and a
// row no other contribution reaches is final as merged (SpAcc.pass).
//
// All merge state lives in the MergeScratch arena carved from the worker's
// Scratch, so the kernel is allocation-free in steady state and passes the
// hotpath-alloc fence.

// mergeRun is one sorted partial-product run feeding the loser tree: the
// [pos, end) span of the B matrix's backing ColIdx/Val arrays selected by
// one stored A element, scaled by alpha = a_ik at emission time. Spans
// instead of subslices keep the struct pointer-free: the gather loop
// writes one descriptor per stored A element, and with pointer fields each
// of those stores would pay a GC write barrier (measured at ~40% of kernel
// time on hypersparse tiles).
type mergeRun struct {
	pos   int64
	end   int64
	alpha float64
}

// mergeDone is the sentinel key of an exhausted run. Real column ids are
// bounded far below it (tile dimensions are capped at 2^30).
const mergeDone = int32(math.MaxInt32)

// MergeScratch is the reusable state of the loser-tree merge: the run
// descriptors, the tree of losers (tree[0] holds the winner), the
// build-time winners array, and the B operand's backing arrays hoisted for
// the duration of one kernel call. A zero MergeScratch is ready to use.
type MergeScratch struct {
	runs []mergeRun
	tree []int32
	win  []int32

	// Backing arrays of the current B operand, installed per kernel call
	// so key() resolves spans without chasing the CSR header.
	colIdx []int32
	val    []float64
}

// NewMergeScratch returns an empty merge arena.
func NewMergeScratch() *MergeScratch { return &MergeScratch{} }

// runsFor returns a run array of length n, growing the arena when needed.
// This is the cold boundary of the merge hot path: growth is grow-only and
// amortizes to zero across the rows of a worker's lifetime.
func (ms *MergeScratch) runsFor(n int) []mergeRun {
	if cap(ms.runs) < n {
		ms.runs = make([]mergeRun, n)
		ms.tree = make([]int32, n)
		ms.win = make([]int32, 2*n)
	}
	return ms.runs[:cap(ms.runs)][:n]
}

// release drops any operand references retained across a kernel call so a
// parked worker arena does not pin the previous task's tiles.
func (ms *MergeScratch) release() {
	ms.colIdx = nil
	ms.val = nil
}

// bytes is the arena's resident footprint for scratch accounting.
func (ms *MergeScratch) bytes() int64 {
	return int64(cap(ms.runs))*24 + int64(cap(ms.tree))*4 + int64(cap(ms.win))*4
}

// key returns run j's current column, or mergeDone when exhausted. The
// runs of one output row all come from the same B window, so raw column
// ids compare consistently; rebasing happens once at emission.
//
//atlint:hotpath
func (ms *MergeScratch) key(j int32) int32 {
	rn := &ms.runs[j]
	if rn.pos >= rn.end {
		return mergeDone
	}
	return ms.colIdx[rn.pos]
}

// build runs a full bottom-up tournament over runs [0, r): leaf j sits at
// node r+j, each internal node x records the loser in tree[x] and passes
// the winner up through win[x], and tree[0] ends up holding the overall
// winner. O(r), called once per output row.
//
//atlint:hotpath
func (ms *MergeScratch) build(r int) {
	win := ms.win
	tree := ms.tree
	for j := 0; j < r; j++ {
		win[r+j] = int32(j)
	}
	for x := r - 1; x >= 1; x-- {
		l, w := win[2*x], win[2*x+1]
		if ms.key(l) <= ms.key(w) {
			l, w = w, l
		}
		tree[x] = l
		win[x] = w
	}
	tree[0] = win[1]
}

// replay re-plays the path of run j — the previous winner, just advanced —
// from its leaf to the root, swapping with stored losers that now beat it,
// and installs the new winner in tree[0]. O(log r) comparisons.
//
//atlint:hotpath
func (ms *MergeScratch) replay(j int32, r int) {
	tree := ms.tree
	w := j
	for x := (int(j) + r) / 2; x >= 1; x /= 2 {
		if ms.key(tree[x]) < ms.key(w) {
			w, tree[x] = tree[x], w
		}
	}
	tree[0] = w
}

// OuterSpSp computes cAcc[window] = a·b for sparse operands with the
// outer-product multiway-merge algorithm (outerspsp_gemm). It is
// algebraically interchangeable with SpSpSp; the cost model routes the
// hypersparse×hypersparse tile class here (costmodel.PreferOuter), where
// the per-row loser tree is small and the merge beats the SPA's wide
// scatter. Each row is written as merged: strictly ascending and
// duplicate-free, with no ordered emit.
func OuterSpSp(cAcc *SpAcc, cRow0, cCol0 int, a, b CSRWin, ms *MergeScratch) {
	checkAccDims(cAcc, cRow0, cCol0, a.Rows, a.Cols, b.Rows, b.Cols)
	cAcc.single(cRow0, a.Rows, newTermRows(a, b, nil, nil, true, cCol0), nil, ms)
}

// merge appends window rows [i0, i1) of an outer-product term to g, back to
// back, and stores each row's length in lens.
//
//atlint:hotpath
func (ms *MergeScratch) merge(t *termRows, i0, i1 int, g *accSeg, lens []int32) {
	ar, br := &t.ar, &t.br
	ac0, bc0 := t.ac0, t.bc0
	aIdx, aVal := ar.m.ColIdx, ar.m.Val
	colIdx, val := br.m.ColIdx, br.m.Val
	ms.colIdx, ms.val = colIdx, val
	// Span lookups are open-coded (rowsOf.span is beyond the inlining
	// budget, and a call per row plus one per stored element is measurable
	// on hypersparse tiles). Each window's access form — pre-indexed,
	// full-width, or column-searched — is hoisted into locals here.
	aSpanLo, aSpanHi := ar.spanLo, ar.spanHi
	aRp := ar.m.RowPtr[ar.row0:]
	aFull := ar.full
	bSpanLo, bSpanHi := br.spanLo, br.spanHi
	bRp := br.m.RowPtr[br.row0:]
	bFull := br.full
	for i := i0; i < i1; i++ {
		lens[i-i0] = 0
		var alo, ahi int64
		if aSpanLo != nil {
			alo, ahi = aSpanLo[i], aSpanHi[i]
		} else if aFull {
			alo, ahi = aRp[i], aRp[i+1]
		} else {
			alo, ahi = ar.spanSlow(i)
		}
		if alo >= ahi {
			continue
		}
		// Gather the row's partial-product runs, dropping empty B rows so
		// the tree only ever holds live runs. The first live run stays in
		// locals and the arena is only touched from the second run on: on
		// hypersparse tiles (≈1 stored element per A row) most rows never
		// spill, which is worth ~15% of the kernel on that class.
		var lo0, hi0 int64
		var alpha0 float64
		var runs []mergeRun
		live := 0
		total := 0 // Σ run lengths: an upper bound on the row's output
		for p := alo; p < ahi; p++ {
			k := int(aIdx[p] - ac0)
			var lo, hi int64
			if bSpanLo != nil {
				lo, hi = bSpanLo[k], bSpanHi[k]
			} else if bFull {
				lo, hi = bRp[k], bRp[k+1]
			} else {
				lo, hi = br.spanSlow(k)
			}
			if lo >= hi {
				continue
			}
			switch live {
			case 0:
				lo0, hi0, alpha0 = lo, hi, aVal[p]
			case 1:
				runs = ms.runsFor(int(ahi - p + 1))
				runs[0] = mergeRun{pos: lo0, end: hi0, alpha: alpha0}
				runs[1] = mergeRun{pos: lo, end: hi, alpha: aVal[p]}
			default:
				runs[live] = mergeRun{pos: lo, end: hi, alpha: aVal[p]}
			}
			live++
			total += int(hi - lo)
		}
		if live == 0 {
			continue
		}
		// The row's output is written by index into segment storage
		// reserved once for the upper bound; products that are exactly zero
		// (explicit zeros in an operand, cancellation between runs,
		// underflow) are dropped here, so every merged row is zero-free.
		n0 := len(g.cols)
		oc := slices.Grow(g.cols, total)[:n0+total]
		ov := slices.Grow(g.vals, total)[:n0+total]
		w := n0
		if live == 1 {
			// Single-run fast path: a scaled copy, no tree.
			for q := lo0; q < hi0; q++ {
				if v := alpha0 * val[q]; v != 0 {
					oc[w], ov[w] = colIdx[q]-bc0, v
					w++
				}
			}
			g.cols, g.vals, lens[i-i0] = oc[:w], ov[:w], int32(w-n0)
			continue
		}
		if live == 2 {
			// Two-run merge: a plain two-pointer walk beats the tree (no
			// replay bookkeeping), and with Poisson-distributed run counts
			// at the crossover density two-run rows are the bulk of the
			// multi-run rows.
			r0, r1 := &runs[0], &runs[1]
			for r0.pos < r0.end && r1.pos < r1.end {
				c0, c1 := colIdx[r0.pos], colIdx[r1.pos]
				var col int32
				var sum float64
				switch {
				case c0 < c1:
					col, sum = c0, r0.alpha*val[r0.pos]
					r0.pos++
				case c1 < c0:
					col, sum = c1, r1.alpha*val[r1.pos]
					r1.pos++
				default:
					col, sum = c0, r0.alpha*val[r0.pos]+r1.alpha*val[r1.pos]
					r0.pos++
					r1.pos++
				}
				if sum != 0 {
					oc[w], ov[w] = col-bc0, sum
					w++
				}
			}
			for _, rn := range [2]*mergeRun{r0, r1} {
				alpha := rn.alpha
				for q := rn.pos; q < rn.end; q++ {
					if v := alpha * val[q]; v != 0 {
						oc[w], ov[w] = colIdx[q]-bc0, v
						w++
					}
				}
			}
			g.cols, g.vals, lens[i-i0] = oc[:w], ov[:w], int32(w-n0)
			continue
		}
		ms.build(live)
		tree := ms.tree
		for {
			t := tree[0]
			rn := &runs[t]
			if rn.pos >= rn.end {
				break // the minimum is exhausted ⇒ all runs are
			}
			col := colIdx[rn.pos]
			sum := rn.alpha * val[rn.pos]
			rn.pos++
			ms.replay(t, live)
			// Combine duplicates: keep popping while the winner carries the
			// same column. A run's own columns are strictly ascending, so
			// only *other* runs can match.
			for {
				t = tree[0]
				rn = &runs[t]
				if rn.pos >= rn.end || colIdx[rn.pos] != col {
					break
				}
				sum += rn.alpha * val[rn.pos]
				rn.pos++
				ms.replay(t, live)
			}
			if sum != 0 {
				oc[w], ov[w] = col-bc0, sum
				w++
			}
		}
		g.cols, g.vals, lens[i-i0] = oc[:w], ov[:w], int32(w-n0)
	}
	ms.colIdx, ms.val = nil, nil
}
