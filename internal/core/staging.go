package core

import (
	"context"
	"math/bits"
	"slices"
	"sort"
	"time"

	"atmatrix/internal/kernels"
	"atmatrix/internal/mat"
	"atmatrix/internal/sched"
)

// Every layout build by a row producer goes through one staging form: the
// whole matrix as a *mat.CSR — row-major, columns ascending within a row,
// no duplicate coordinates — that stores no exact zero. The paper Z-sorts
// its staging table (§II-C1), but the quadtree recursion reads only the
// per-block counts, so only those are Z-ordered (zBlockCounts) and no
// producer sorts what it already emits in row order: an upload is
// radix-sorted once (stageCOO), a sum merges two row gathers (stageSum),
// and internal/expr fills in its fused rows as it computes them
// (PartitionRows). All but the upload fill their rows through one stage
// (stageRows), cut into tasks by one rule (rowCuts). Repartition stages
// nothing: it counts and cuts straight from the AT MATRIX's tiles
// (tileLayout), reading each row as the row gather does. The layout is a
// function of the entry set alone, so all of them serialize to the bytes
// the Z-sorted table gave (DESIGN.md §4, "One staging form").

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

// RowBlock is a run of consecutive rows as one producer task delivers it:
// NNZ[i] entries for its i-th row, back to back in Col/Val.
type RowBlock struct {
	NNZ, Col []int32
	Val      []float64
}

// AppendSPA appends the accumulated row as the block's next row: its
// columns ascending, exact zeros dropped. A block that must grow doubles:
// it is copied once into the stage, so the append's own growth (about
// 1.25× for large slices) would allocate several times what it keeps.
func (b *RowBlock) AppendSPA(spa *kernels.SPA) {
	start := len(b.Col)
	if t := len(spa.Touched()); cap(b.Col)-start < t {
		grow := max(cap(b.Col), t)
		b.Col, b.Val = slices.Grow(b.Col, grow), slices.Grow(b.Val, grow)
	}
	b.Col, b.Val = spa.AppendSorted(b.Col, b.Val)
	b.NNZ = append(b.NNZ, int32(len(b.Col)-start))
}

// joinBlocks concatenates blocks that cover rows 0..rows-1 in order.
func joinBlocks(rows, cols int, blocks []RowBlock) *mat.CSR {
	var n int
	for i := range blocks {
		n += len(blocks[i].Col)
	}
	s := &mat.CSR{Rows: rows, Cols: cols, RowPtr: make([]int64, 1, rows+1), ColIdx: make([]int32, 0, n), Val: make([]float64, 0, n)}
	for i := range blocks {
		for _, cnt := range blocks[i].NNZ {
			s.RowPtr = append(s.RowPtr, s.RowPtr[len(s.RowPtr)-1]+int64(cnt))
		}
		s.ColIdx, s.Val = append(s.ColIdx, blocks[i].Col...), append(s.Val, blocks[i].Val...)
	}
	return s
}

// rowCuts is the one rule that cuts work on a matrix's rows into tasks —
// the stages below and the verify sweep: sweepChunksPerCore ranges per core,
// balanced by the stored cells of by's rows (the matrix whose rows are being
// produced or swept, rows tall), or of equal height when there is none.
// Several ranges per core let a dry worker take what a skewed matrix piles on
// another.
func rowCuts(rows int, by *ATMatrix, cfg Config) []int {
	parts := sweepChunksPerCore * cfg.Topology.TotalCores()
	if by != nil {
		return by.cellBalancedCuts(parts)
	}
	step := max(1, (rows+parts-1)/parts)
	cuts := make([]int, 0, parts+1)
	for lo := 0; lo < rows; lo += step {
		cuts = append(cuts, lo)
	}
	return append(cuts, rows)
}

// stageRows builds a stage on the workers: fill appends rows [lo, hi)
// to its block (NNZ sized for them), one task per range of rowCuts, homed by
// its first row, on the arena of the worker that runs it. A cancelled ctx
// ends the stage with its error.
func stageRows(ctx context.Context, cfg Config, watchdog time.Duration, rows, cols int, by *ATMatrix, fill func(scr *kernels.Scratch, lo, hi int, b *RowBlock)) (*mat.CSR, error) {
	cuts := rowCuts(rows, by, cfg)
	blocks := make([]RowBlock, len(cuts)-1)
	_, err := RunHomed(ctx, cfg, watchdog, len(blocks),
		func(i int) int { return cuts[i] },
		func(team *sched.Team, i int) {
			ws := stateFor(team, cfg.EphemeralWorkers)
			defer ws.syncFootprint()
			blocks[i].NNZ = make([]int32, 0, cuts[i+1]-cuts[i])
			fill(ws.scratch, cuts[i], cuts[i+1], &blocks[i])
		})
	if ctx != nil && ctx.Err() != nil {
		return nil, ctx.Err()
	}
	if err != nil {
		return nil, err
	}
	return joinBlocks(rows, cols, blocks), nil
}

// rowBands returns a's row bands and the tiles of each, ordered by Col0: a
// row is its pieces in its band's tiles in this order, and tiles do not
// overlap, so the columns ascend.
func (a *ATMatrix) rowBands() ([]Band, [][]*Tile) {
	x := &a.index().rows
	byCol := slices.Clone(x.tiles)
	tiles := make([][]*Tile, len(x.bands))
	for i := range x.bands {
		tiles[i] = byCol[x.off[i]:x.off[i+1]]
		slices.SortFunc(tiles[i], func(p, q *Tile) int { return p.Col0 - q.Col0 })
	}
	return x.bands, tiles
}

// appendRow appends the entries of row r in columns [c0, c1) of tiles — a
// row band's tiles by Col0 — to col and val, columns rebased by c0. Stored
// zeros (a tile scaled to zero, a cancellation) are dropped: v != 0, so a
// NaN stays and a −0 goes.
func appendRow(col []int32, val []float64, tiles []*Tile, r, c0, c1 int) ([]int32, []float64) {
	for _, t := range tiles {
		if t.Col0 >= c1 {
			break
		}
		lo, hi := max(c0, t.Col0)-t.Col0, min(c1, t.Col0+t.Cols)-t.Col0 // the piece, in t's columns
		if lo >= hi {
			continue
		}
		base := int32(t.Col0 - c0)
		if t.Kind == mat.Sparse {
			plo, phi := t.Sp.RowRange(r - t.Row0)
			if lo > 0 || hi < t.Cols {
				plo, phi = t.Sp.ColSpan(r-t.Row0, int32(lo), int32(hi))
			}
			for p := plo; p < phi; p++ {
				if v := t.Sp.Val[p]; v != 0 {
					col, val = append(col, base+t.Sp.ColIdx[p]), append(val, v)
				}
			}
			continue
		}
		for c, v := range t.D.RowSlice(r - t.Row0)[lo:hi] {
			if v != 0 {
				col, val = append(col, base+int32(lo+c)), append(val, v)
			}
		}
	}
	return col, val
}

// rowGatherer returns the function that appends rows [lo, hi) of a to b,
// each row whole (appendRow over the full width).
func (a *ATMatrix) rowGatherer() func(_ *kernels.Scratch, lo, hi int, b *RowBlock) {
	bands, tiles := a.rowBands()
	return func(_ *kernels.Scratch, lo, hi int, b *RowBlock) {
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
			col, val := slices.Grow(b.Col, need), slices.Grow(b.Val, need) // locals: no write barrier per entry
			for r := r0; r < r1; r++ {
				start := len(col)
				col, val = appendRow(col, val, tiles[bi], r, 0, a.Cols)
				b.NNZ = append(b.NNZ, int32(len(col)-start))
			}
			b.Col, b.Val = col, val
		}
	}
}

// stageSum stages α·a + β·b: each task gathers its rows of both operands
// and merges each pair of rows, whose columns ascend. A column in both sums
// α·a + β·b, each product rounded on its own, as a sparse accumulator adds
// them; a zero sum is dropped. A zero weight contributes nothing, whatever a
// holds. The tasks are cut over a's rows.
func stageSum(a, b *ATMatrix, alpha, beta float64, cfg Config) (*mat.CSR, error) {
	by := a
	if alpha == 0 {
		a = newATMatrix(a.Rows, a.Cols, a.BAtomic)
	}
	if beta == 0 {
		b = newATMatrix(b.Rows, b.Cols, b.BAtomic)
	}
	rowsOfA, rowsOfB := a.rowGatherer(), b.rowGatherer()
	return stageRows(nil, cfg, 0, a.Rows, a.Cols, by, func(scr *kernels.Scratch, lo, hi int, out *RowBlock) {
		var ta, tb RowBlock
		rowsOfA(scr, lo, hi, &ta)
		rowsOfB(scr, lo, hi, &tb)
		n := len(ta.Col) + len(tb.Col) // no sum row is longer than its two rows
		col, val := slices.Grow(out.Col, n), slices.Grow(out.Val, n)
		i, j := 0, 0
		for k := range ta.NNZ {
			start := len(col)
			for ie, je := i+int(ta.NNZ[k]), j+int(tb.NNZ[k]); i < ie || j < je; {
				var c int32
				var v float64
				switch {
				case j == je || i < ie && ta.Col[i] < tb.Col[j]:
					c, v = ta.Col[i], alpha*ta.Val[i]
					i++
				case i == ie || tb.Col[j] < ta.Col[i]:
					c, v = tb.Col[j], beta*tb.Val[j]
					j++
				default:
					c, v = ta.Col[i], float64(alpha*ta.Val[i])+float64(beta*tb.Val[j]) // no fused multiply-add
					i, j = i+1, j+1
				}
				if v != 0 {
					col, val = append(col, c), append(val, v)
				}
			}
			out.NNZ = append(out.NNZ, int32(len(col)-start))
		}
		out.Col, out.Val = col, val
	})
}
