package core

import (
	"math/bits"
	"slices"
	"sort"

	"atmatrix/internal/kernels"
	"atmatrix/internal/mat"
	"atmatrix/internal/sched"
)

// Every layout build goes through one staging form: the whole matrix as a
// *mat.CSR — row-major, columns ascending within a row, no duplicate
// coordinates — that stores no exact zero. The paper Z-sorts its staging
// table (§II-C1), but the quadtree recursion reads only the per-block
// counts, so only those are Z-ordered (zBlockCounts) and no producer sorts
// what it already emits in row order: an upload is radix-sorted once
// (stageCOO), an AT MATRIX is gathered band by band (rowGatherer), a sum
// merges two gathers (stageSum), and internal/expr hands its fused rows
// over as they are (PartitionRows). The layout is a function of the entry
// set alone, so all of them serialize to the bytes the Z-sorted table gave
// (DESIGN.md §4, "One staging form").

// sortRowMajor returns src ordered by (row, col) in a fresh slice; src is
// only read. It is a stable LSD radix sort over the significant bytes of
// row<<bits(cols)|col, so equal coordinates keep their input order. One scan
// takes every digit's histogram; a digit all keys share costs no pass.
// Input that is row-major already — generated operands, most files — is
// found out by a scan that stops at the first inversion, and only copied.
func sortRowMajor(src []mat.Entry, rows, cols int) []mat.Entry {
	n := len(src)
	colBits := bits.Len(uint(cols - 1))
	key := func(e mat.Entry) uint64 { return uint64(e.Row)<<colBits | uint64(e.Col) }
	sorted := true
	for i := 1; i < n && sorted; i++ {
		sorted = key(src[i-1]) <= key(src[i])
	}
	if sorted {
		return slices.Clone(src)
	}
	passes := (bits.Len(uint(rows-1)) + colBits + 7) / 8
	var count [8][256]int
	for _, e := range src {
		for p, k := 0, key(e); p < passes; p, k = p+1, k>>8 {
			count[p][byte(k)]++
		}
	}
	cur, spare := src, []mat.Entry(nil)
	for p := 0; p < passes; p++ {
		cnt, shift := &count[p], 8*p
		if cnt[byte(key(src[0])>>shift)] == n {
			continue
		}
		pos := 0
		for d, c := range cnt {
			cnt[d], pos = pos, pos+c
		}
		dst := spare
		if dst == nil {
			dst = make([]mat.Entry, n)
		}
		for _, e := range cur {
			d := byte(key(e) >> shift)
			dst[cnt[d]] = e
			cnt[d]++
		}
		if spare, cur = cur, dst; &spare[0] == &src[0] {
			spare = nil
		}
	}
	return cur
}

// stageCOO stages an upload: sort, fold duplicates in input order, drop zeros.
func stageCOO(src *mat.COO) (*mat.CSR, error) {
	if err := src.Validate(); err != nil {
		return nil, err
	}
	ents := mat.FoldSorted(sortRowMajor(src.Ent, src.Rows, src.Cols))
	s := &mat.CSR{Rows: src.Rows, Cols: src.Cols, RowPtr: make([]int64, src.Rows+1), ColIdx: make([]int32, len(ents)), Val: make([]float64, len(ents))}
	for i, e := range ents {
		s.RowPtr[e.Row+1]++
		s.ColIdx[i], s.Val[i] = e.Col, e.Val
	}
	for r := 0; r < s.Rows; r++ {
		s.RowPtr[r+1] += s.RowPtr[r]
	}
	return s, nil
}

// rowBlock is a run of consecutive rows as one producer task delivers it:
// nnz[i] entries for its i-th row, back to back in col/val.
type rowBlock struct {
	nnz, col []int32
	val      []float64
}

// joinBlocks concatenates blocks that cover rows 0..rows-1 in order.
func joinBlocks(rows, cols int, blocks []rowBlock) *mat.CSR {
	var n int
	for i := range blocks {
		n += len(blocks[i].col)
	}
	s := &mat.CSR{Rows: rows, Cols: cols, RowPtr: make([]int64, 1, rows+1), ColIdx: make([]int32, 0, n), Val: make([]float64, 0, n)}
	for i := range blocks {
		for _, cnt := range blocks[i].nnz {
			s.RowPtr = append(s.RowPtr, s.RowPtr[len(s.RowPtr)-1]+int64(cnt))
		}
		s.ColIdx, s.Val = append(s.ColIdx, blocks[i].col...), append(s.Val, blocks[i].val...)
	}
	return s
}

// stageBlocks builds a stage on the worker teams: fill appends rows [lo, hi)
// to its block, one task per row range, homed by its first row. Several
// ranges per core let a dry team take what a skewed matrix piles on another.
func stageBlocks(rows, cols int, cfg Config, fill func(lo, hi int, b *rowBlock)) (*mat.CSR, error) {
	parts := 4 * cfg.Topology.TotalCores()
	step := max(1, (rows+parts-1)/parts)
	blocks := make([]rowBlock, (rows+step-1)/step)
	_, err := RunHomed(nil, cfg, 0, len(blocks),
		func(i int) int { return i * step },
		func(_ *sched.Team, i int) { fill(i*step, min(rows, (i+1)*step), &blocks[i]) })
	if err != nil {
		return nil, err
	}
	return joinBlocks(rows, cols, blocks), nil
}

// rowGatherer returns the function that appends rows [lo, hi) of a to b. A
// row is its pieces in the tiles of its row band, left to right; tiles do not
// overlap, so the columns ascend. Stored zeros (a tile scaled to zero, a
// cancellation) are dropped.
func (a *ATMatrix) rowGatherer() func(lo, hi int, b *rowBlock) {
	x := &a.index().rows
	bands := x.bands
	byCol := slices.Clone(x.tiles)
	tiles := make([][]*Tile, len(bands))
	for i := range bands {
		tiles[i] = byCol[x.off[i]:x.off[i+1]]
		slices.SortFunc(tiles[i], func(p, q *Tile) int { return p.Col0 - q.Col0 })
	}
	return func(lo, hi int, b *rowBlock) {
		for bi := sort.Search(len(bands), func(i int) bool { return bands[i].Hi > lo }); bi < len(bands) && bands[bi].Lo < hi; bi++ {
			r0, r1 := max(lo, bands[bi].Lo), min(hi, bands[bi].Hi)
			need := 0 // upper bound: the appends below never reallocate
			for _, t := range tiles[bi] {
				if t.Kind == mat.Sparse {
					need += int(t.Sp.RowPtr[r1-t.Row0] - t.Sp.RowPtr[r0-t.Row0])
				} else {
					need += (r1 - r0) * t.Cols
				}
			}
			col, val := slices.Grow(b.col, need), slices.Grow(b.val, need) // locals: no write barrier per entry
			for r := r0; r < r1; r++ {
				start := len(col)
				for _, t := range tiles[bi] {
					if t.Kind == mat.Sparse {
						plo, phi := t.Sp.RowRange(r - t.Row0)
						for p := plo; p < phi; p++ {
							if v := t.Sp.Val[p]; v != 0 {
								col, val = append(col, int32(t.Col0)+t.Sp.ColIdx[p]), append(val, v)
							}
						}
						continue
					}
					for c, v := range t.D.RowSlice(r - t.Row0) {
						if v != 0 {
							col, val = append(col, int32(t.Col0+c)), append(val, v)
						}
					}
				}
				b.nnz = append(b.nnz, int32(len(col)-start))
			}
			b.col, b.val = col, val
		}
	}
}

// stageSum stages α·a + β·b: each task gathers its rows of both operands and
// sums them through the multiply kernels' sparse accumulator, whose ordered
// emit drops zero sums. A zero weight contributes nothing, whatever a holds.
func stageSum(a, b *ATMatrix, alpha, beta float64, cfg Config) (*mat.CSR, error) {
	if alpha == 0 {
		a = newATMatrix(a.Rows, a.Cols, a.BAtomic)
	}
	if beta == 0 {
		b = newATMatrix(b.Rows, b.Cols, b.BAtomic)
	}
	rowsOfA, rowsOfB := a.rowGatherer(), b.rowGatherer()
	return stageBlocks(a.Rows, a.Cols, cfg, func(lo, hi int, out *rowBlock) {
		var ta, tb rowBlock
		rowsOfA(lo, hi, &ta)
		rowsOfB(lo, hi, &tb)
		spa := kernels.NewSPA(a.Cols)
		i, j := 0, 0
		for k := range ta.nnz {
			start := len(out.col)
			spa.Reset(a.Cols)
			for ie := i + int(ta.nnz[k]); i < ie; i++ {
				spa.Add(ta.col[i], alpha*ta.val[i])
			}
			for je := j + int(tb.nnz[k]); j < je; j++ {
				spa.Add(tb.col[j], beta*tb.val[j])
			}
			out.col, out.val = spa.AppendSorted(out.col, out.val)
			out.nnz = append(out.nnz, int32(len(out.col)-start))
		}
	})
}
