package core

import (
	"math"
	"math/bits"
	"sort"

	"atmatrix/internal/kernels"
	"atmatrix/internal/mat"
	"atmatrix/internal/morton"
	"atmatrix/internal/numa"
)

// This file rounds out the AT MATRIX operator surface beyond
// multiplication: transposition and re-partitioning (compaction) of
// multiplication results.

// Transpose returns Aᵀ as an AT MATRIX. Each tile is transposed in place
// of its mirrored bounding box; the tile kinds are preserved (density is
// invariant under transposition). Tile homes follow the new tile-rows, by
// the configuration's one placement rule.
func (a *ATMatrix) Transpose(cfg Config) *ATMatrix {
	out := newATMatrix(a.Cols, a.Rows, a.BAtomic)
	for _, t := range a.Tiles {
		nt := &Tile{
			Row0: t.Col0, Col0: t.Row0,
			Rows: t.Cols, Cols: t.Rows,
			Kind: t.Kind, NNZ: t.NNZ,
			Home: cfg.HomeOfRow(t.Col0),
		}
		if t.Kind == mat.DenseKind {
			nt.D = t.D.Transpose()
		} else {
			nt.Sp = t.Sp.Transpose()
		}
		out.Tiles = append(out.Tiles, nt)
	}
	return out
}

// Repartition rebuilds the AT MATRIX with the full quadtree partitioning —
// useful to compact a multiplication result (whose tiles follow the
// operand band grid) into the optimal adaptive layout before it enters
// further multiplications, and cheap enough to serve as a deep copy. Like
// the density map, it reads its counts from the tiles, and it cuts the new
// tiles straight out of the old ones (tileLayout): nothing is staged, so
// SortTime is 0. The result serializes to the bytes partitioning a.ToCOO()
// gives.
func (a *ATMatrix) Repartition(cfg Config) (*ATMatrix, *PartitionStats, error) {
	return buildLayout(a.Rows, a.Cols, cfg, (*partitioner).quadtree, func(*PartitionStats) (layoutSource, error) {
		return a.tileLayout(), nil
	})
}

// tileLayout is the layout source of an AT MATRIX: its row bands and each
// band's tiles by Col0 (rowBands), read row by row in the order the row
// gather reads them.
type tileLayout struct {
	rows, cols int
	bands      []Band
	tiles      [][]*Tile
}

func (a *ATMatrix) tileLayout() tileLayout {
	bands, tiles := a.rowBands()
	return tileLayout{rows: a.Rows, cols: a.Cols, bands: bands, tiles: tiles}
}

// blockCounts walks the rows in ascending order, each row's pieces left to
// right, and adds their non-zeros to one array of b-aligned block columns
// (blockRow), which joins the list whenever a row crosses into the next
// block row of b. The rows of a band are added a block-row run at a time.
// Band edges need not lie on that grid — a foreign b_atomic, a one-tile
// FromCSR, a ragged edge — as the flush goes by rows, not bands. Nothing is
// sized by the block grid: the array is one block row wide, the list as
// long as the blocks that hold entries.
func (l tileLayout) blockCounts(b int) []blockCount {
	br := blockRow{shift: bits.TrailingZeros(uint(b)), cnt: make([]int64, (l.cols+b-1)/b)}
	var out []blockCount
	cur := 0 // the block row br counts
	flush := func() {
		for _, bc := range br.touched {
			out = append(out, blockCount{morton.Encode(uint32(cur), uint32(bc)), br.cnt[bc]})
			br.cnt[bc] = 0
		}
		br.touched = br.touched[:0]
	}
	for i, band := range l.bands {
		for r := band.Lo; r < band.Hi; {
			if r>>br.shift != cur {
				flush()
				cur = r >> br.shift
			}
			end := min(band.Hi, (cur+1)<<br.shift)
			for _, t := range l.tiles[i] {
				br.addTileRows(t, r-t.Row0, end-t.Row0)
			}
			r = end
		}
	}
	flush()
	return sortByZ(out, gridCells(l.rows, l.cols, b))
}

// cut builds the box's tile from the pieces of the tiles it overlaps,
// keeping v != 0 only, as the row gather does.
func (l tileLayout) cut(bx tileBox, home numa.Node) *Tile {
	tile := &Tile{Row0: bx.r0, Col0: bx.c0, Rows: bx.h, Cols: bx.w, Kind: bx.kind, NNZ: bx.nnz, Home: home}
	var n int64
	if bx.kind == mat.DenseKind {
		tile.D, n = l.cutDense(bx)
	} else {
		tile.Sp = l.cutSparse(bx)
		n = int64(len(tile.Sp.Val))
	}
	bx.mustHold(n)
	return tile
}

// bandsOf returns the run [lo, hi) of bands that hold rows of the box.
func (l tileLayout) bandsOf(bx tileBox) (lo, hi int) {
	lo = sort.Search(len(l.bands), func(i int) bool { return l.bands[i].Hi > bx.r0 })
	hi = sort.Search(len(l.bands), func(i int) bool { return l.bands[i].Lo >= bx.r0+bx.h })
	return lo, hi
}

// cutDense starts the box zeroed and copies in each dense piece's cells,
// then turns a −0 into +0, and scatters each sparse piece's non-zero entries
// in the box's columns. It returns the tile and its non-zeros.
func (l tileLayout) cutDense(bx tileBox) (*mat.Dense, int64) {
	d := mat.NewDense(bx.h, bx.w)
	c1 := bx.c0 + bx.w
	var n int64
	blo, bhi := l.bandsOf(bx)
	for bi := blo; bi < bhi; bi++ {
		for r := max(bx.r0, l.bands[bi].Lo); r < min(bx.r0+bx.h, l.bands[bi].Hi); r++ {
			dst := d.RowSlice(r - bx.r0)
			for _, t := range l.tiles[bi] {
				if t.Col0 >= c1 {
					break
				}
				lo, hi := max(bx.c0, t.Col0)-t.Col0, min(c1, t.Col0+t.Cols)-t.Col0 // the piece, in t's columns
				if lo >= hi {
					continue
				}
				off := t.Col0 - bx.c0
				if t.Kind == mat.DenseKind {
					piece := dst[off+lo : off+hi]
					copy(piece, t.D.RowSlice(r - t.Row0)[lo:hi])
					n += kernels.NonZeros(piece)
					for c, v := range piece {
						if math.Float64bits(v) == negZero {
							piece[c] = 0
						}
					}
					continue
				}
				plo, phi := t.Sp.ColSpan(r-t.Row0, int32(lo), int32(hi))
				for p := plo; p < phi; p++ {
					if v := t.Sp.Val[p]; v != 0 {
						dst[off+int(t.Sp.ColIdx[p])] = v
						n++
					}
				}
			}
		}
	}
	return d, n
}

// cutSparse fills the box's rows in order (appendRow) into slices of
// exactly its count. Where a band's part of the box is the whole width of
// one sparse tile and that tile stores no zero there, the band's rows are
// one run of its entries and are copied at once.
func (l tileLayout) cutSparse(bx tileBox) *mat.CSR {
	sp := &mat.CSR{Rows: bx.h, Cols: bx.w, RowPtr: make([]int64, bx.h+1)}
	col, val := make([]int32, 0, bx.nnz), make([]float64, 0, bx.nnz)
	c1 := bx.c0 + bx.w
	blo, bhi := l.bandsOf(bx)
	for bi := blo; bi < bhi; bi++ {
		ra, rb := max(bx.r0, l.bands[bi].Lo), min(bx.r0+bx.h, l.bands[bi].Hi)
		if t := soleSparse(l.tiles[bi], bx.c0, c1); t != nil {
			p0, p1 := t.Sp.RowPtr[ra-t.Row0], t.Sp.RowPtr[rb-t.Row0]
			if vals := t.Sp.Val[p0:p1]; kernels.NonZeros(vals) == int64(len(vals)) {
				n0 := len(col)
				col, val = append(col, t.Sp.ColIdx[p0:p1]...), append(val, vals...)
				if base := int32(t.Col0 - bx.c0); base != 0 {
					for i := n0; i < len(col); i++ {
						col[i] += base
					}
				}
				for r, off := ra, int64(n0)-p0; r < rb; r++ {
					sp.RowPtr[r-bx.r0+1] = off + t.Sp.RowPtr[r-t.Row0+1]
				}
				continue
			}
		}
		for r := ra; r < rb; r++ {
			col, val = appendRow(col, val, l.tiles[bi], r, bx.c0, c1)
			sp.RowPtr[r-bx.r0+1] = int64(len(col))
		}
	}
	sp.ColIdx, sp.Val = col, val
	return sp
}

// soleSparse returns the one tile of tiles (by Col0) that overlaps columns
// [c0, c1) when it is sparse and lies wholly inside them, else nil.
func soleSparse(tiles []*Tile, c0, c1 int) *Tile {
	var only *Tile
	for _, t := range tiles {
		if t.Col0 >= c1 {
			break
		}
		if t.Col0+t.Cols <= c0 {
			continue
		}
		if only != nil {
			return nil
		}
		only = t
	}
	if only == nil || only.Kind != mat.Sparse || only.Col0 < c0 || only.Col0+only.Cols > c1 {
		return nil
	}
	return only
}

const negZero = 1 << 63 // the bits of −0
