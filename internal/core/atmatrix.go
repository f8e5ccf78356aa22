package core

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"

	"atmatrix/internal/density"
	"atmatrix/internal/kernels"
	"atmatrix/internal/mat"
)

// ATMatrix is the adaptive tile matrix of the paper (§II): a heterogeneous
// collection of sparse (CSR) and dense (array) tiles of variable sizes
// covering the matrix. Regions without a tile are structurally zero.
type ATMatrix struct {
	Rows, Cols int
	// BAtomic is the atomic block side the matrix was partitioned with;
	// every tile boundary is aligned to it (except at the matrix edges).
	BAtomic int
	Tiles   []*Tile

	// BR, BC are the block-grid dimensions ⌈Rows/BAtomic⌉ × ⌈Cols/BAtomic⌉.
	BR, BC int

	idxOnce sync.Once
	idx     tileIndex
	// ops is what ATMULT builds from this matrix alone (operandIndex).
	// idxBytes counts what idx and ops hold: each build adds its bytes.
	ops      operandIndex
	idxBytes atomic.Int64

	mapOnce sync.Once
	dmap    *density.Map
	// coarse caches DensityMapAt's aggregations of dmap, one per block size
	// asked for (in practice one or two: the estimation grids of the
	// products and expressions the matrix takes part in). Like dmap the
	// maps are built on first use and then shared: callers only read them.
	coarseMu sync.Mutex
	coarse   []*density.Map

	// tileSums holds one CRC-32C per tile payload, set by SealChecksums at
	// store admission and re-verified by the background scrubber.
	tileSums []uint32
}

// newATMatrix allocates an empty AT MATRIX shell.
func newATMatrix(rows, cols, bAtomic int) *ATMatrix {
	return &ATMatrix{Rows: rows, Cols: cols, BAtomic: bAtomic,
		BR: max(1, (rows+bAtomic-1)/bAtomic), BC: max(1, (cols+bAtomic-1)/bAtomic)}
}

// NewFromTiles assembles an AT MATRIX of the given dimensions directly
// from already-partitioned tiles, sharing their payloads. Callers that
// carve shards out of a partitioned matrix or merge disjoint partial
// products back together use this instead of re-running the partitioner;
// the structural invariants are validated.
func NewFromTiles(rows, cols, bAtomic int, tiles []*Tile) (*ATMatrix, error) {
	out := newATMatrix(rows, cols, bAtomic)
	out.Tiles = append(out.Tiles, tiles...)
	if err := out.Validate(); err != nil {
		return nil, err
	}
	return out, nil
}

// NNZ returns the total number of structural non-zeros.
func (a *ATMatrix) NNZ() int64 {
	var n int64
	for _, t := range a.Tiles {
		n += t.NNZ
	}
	return n
}

// Density returns the global population density.
func (a *ATMatrix) Density() float64 { return mat.Density(a.NNZ(), a.Rows, a.Cols) }

// Bytes returns the total tile memory with the paper's accounting. It is
// the quantity compared in Fig. 8c.
func (a *ATMatrix) Bytes() int64 {
	var b int64
	for _, t := range a.Tiles {
		b += t.Bytes()
	}
	return b
}

// TileCount returns (sparse, dense) tile counts.
func (a *ATMatrix) TileCount() (sparse, dense int) {
	for _, t := range a.Tiles {
		if t.Kind == mat.DenseKind {
			dense++
		} else {
			sparse++
		}
	}
	return sparse, dense
}

// TileAt returns the tile covering matrix coordinates (r, c), or nil when
// the coordinate lies in an empty region.
func (a *ATMatrix) TileAt(r, c int) *Tile {
	if r < 0 || r >= a.Rows || c < 0 || c >= a.Cols {
		return nil
	}
	for _, t := range a.RowTiles(r) {
		if c >= t.Col0 && c < t.Col0+t.Cols {
			return t
		}
	}
	return nil
}

// At returns the matrix element at (r, c).
func (a *ATMatrix) At(r, c int) float64 {
	t := a.TileAt(r, c)
	if t == nil {
		return 0
	}
	return t.At(r, c)
}

// Band is a half-open index interval [Lo, Hi).
type Band struct{ Lo, Hi int }

func (b Band) Len() int { return b.Hi - b.Lo }

// tileIndex is the band structure of an AT MATRIX: the tile-rows and
// tile-cols ATMULT walks (Alg. 2) and the tiles of each. It is built once,
// on first use, and only read after: O(tiles + bands + BR), nothing in it
// sized by the block grid.
type tileIndex struct {
	rows, cols bandAxis
	// bandOfBlockRow maps an atomic block-row to the row band holding it.
	// Band cuts are tile edges, which are block-aligned, so a block-row
	// lies in exactly one band.
	bandOfBlockRow []int32
}

// bandAxis is one axis of the index: the sorted distinct intervals induced
// by the tile edges, and for band i the tiles covering it — a tile either
// contains a band or misses it — as ids[off[i]:off[i+1]] (their positions
// in Tiles, ascending) and the same run of tiles.
type bandAxis struct {
	bands []Band
	off   []int32
	ids   []int32
	tiles []*Tile
}

func (x *bandAxis) tilesOf(i int) []*Tile { return x.tiles[x.off[i]:x.off[i+1]] }
func (x *bandAxis) idsOf(i int) []int32   { return x.ids[x.off[i]:x.off[i+1]] }

// newBandAxis indexes tiles along the axis of length limit whose extent
// span returns. Without tiles the single band [0, limit) is returned (an
// empty one when limit is 0).
func newBandAxis(tiles []*Tile, limit int, span func(*Tile) (lo, hi int)) bandAxis {
	cuts := make([]int, 0, 2*len(tiles)+2)
	cuts = append(cuts, 0, limit)
	for _, t := range tiles {
		lo, hi := span(t)
		cuts = append(cuts, lo, hi)
	}
	slices.Sort(cuts)
	cuts = slices.Compact(cuts)
	x := bandAxis{bands: make([]Band, max(1, len(cuts)-1))}
	for i := 1; i < len(cuts); i++ {
		x.bands[i-1] = Band{cuts[i-1], cuts[i]}
	}
	// bandsOf returns the run [f, l) of bands tile t covers.
	bandsOf := func(t *Tile) (f, l int) {
		lo, hi := span(t)
		f, _ = slices.BinarySearch(cuts, lo)
		l, _ = slices.BinarySearch(cuts, hi)
		return f, l
	}
	// off and ids share one array, sized by a first pass. Then count each
	// band's tiles, sum the counts up to band ends, and fill back to front:
	// each band keeps Tiles order, and off[i] steps down to band i's start.
	n := 0
	for _, t := range tiles {
		f, l := bandsOf(t)
		n += l - f
	}
	nb := len(x.bands) + 1
	buf := make([]int32, nb+n)
	x.off, x.ids, x.tiles = buf[:nb:nb], buf[nb:], make([]*Tile, n)
	for _, t := range tiles {
		f, l := bandsOf(t)
		for i := f; i < l; i++ {
			x.off[i]++
		}
	}
	for i := 1; i < nb; i++ {
		x.off[i] += x.off[i-1]
	}
	for ti := len(tiles) - 1; ti >= 0; ti-- {
		f, l := bandsOf(tiles[ti])
		for i := f; i < l; i++ {
			x.off[i]--
			x.ids[x.off[i]], x.tiles[x.off[i]] = int32(ti), tiles[ti]
		}
	}
	return x
}

func (x *bandAxis) bytes() int64 {
	return int64(cap(x.bands))*int64(unsafe.Sizeof(Band{})) + int64(cap(x.off)+cap(x.ids))*4 +
		int64(cap(x.tiles))*int64(unsafe.Sizeof((*Tile)(nil)))
}

func rowSpan(t *Tile) (lo, hi int) { return t.Row0, t.Row0 + t.Rows }
func colSpan(t *Tile) (lo, hi int) { return t.Col0, t.Col0 + t.Cols }

// index returns the matrix's tile index, building it on first use. Tiles
// must not change once it has been asked for.
func (a *ATMatrix) index() *tileIndex {
	a.idxOnce.Do(func() {
		x := &a.idx
		x.rows = newBandAxis(a.Tiles, a.Rows, rowSpan)
		x.cols = newBandAxis(a.Tiles, a.Cols, colSpan)
		x.bandOfBlockRow = make([]int32, a.BR)
		for i, band := range x.rows.bands {
			for br := band.Lo / a.BAtomic; br*a.BAtomic < band.Hi; br++ {
				x.bandOfBlockRow[br] = int32(i)
			}
		}
		a.idxBytes.Add(x.rows.bytes() + x.cols.bytes() + int64(cap(x.bandOfBlockRow))*4)
	})
	return &a.idx
}

// operandIndex is what ATMULT reads a matrix by besides its tiles, built
// from the matrix alone and so kept with it, to be reused by every product
// it takes part in (the paper's build once, multiply many times): as B,
// its sparse tiles windowed to each column band; as A, the column view of
// each sparse tile's rows in each row band, for SpSpDCols. Each is built on
// first use — every view under its own Once, so concurrent products build
// it once and others wait only for that entry — and only read after. Views
// copy the tile's cells and windows point into the tile, so nothing here
// refers to a product's buffers; it goes when the matrix goes.
type operandIndex struct {
	winOnce sync.Once
	wins    [][]kernels.CSRWin // by column band: the band's tiles' windows (sparse tiles only)

	viewsOnce sync.Once
	views     []colViewEntry // by position in the row axis's tile runs
}

type colViewEntry struct {
	once sync.Once
	v    *kernels.ColView
}

// operandIndexHook, when set, is called after every build of an operand
// index entry: the column-band windows of a, or one of its views.
var operandIndexHook func(a *ATMatrix)

// IndexBytes returns the bytes the matrix's indexes hold on top of its
// tiles: the band index and what ATMULT has built of the operand index so
// far, counted from slice capacities. It grows as products build entries and
// may be called while they do. Bytes does not count it.
func (a *ATMatrix) IndexBytes() int64 { return a.idxBytes.Load() }

// colBandWindows returns the matrix's sparse tiles windowed to each column
// band, by band and in the band's tile order, building them on first use.
func (a *ATMatrix) colBandWindows() [][]kernels.CSRWin {
	a.ops.winOnce.Do(func() {
		var n int64
		a.ops.wins, n = indexColBandWindows(&a.index().cols)
		a.idxBytes.Add(n)
		if operandIndexHook != nil {
			operandIndexHook(a)
		}
	})
	return a.ops.wins
}

// rowBandView returns the column view of the k-th tile of row band i,
// which must be sparse, and whether this call built it.
func (a *ATMatrix) rowBandView(i, k int) (*kernels.ColView, bool) {
	x := &a.index().rows
	a.ops.viewsOnce.Do(func() {
		a.ops.views = make([]colViewEntry, len(x.tiles))
		a.idxBytes.Add(int64(cap(a.ops.views)) * int64(unsafe.Sizeof(colViewEntry{})))
	})
	p := int(x.off[i]) + k
	e, built := &a.ops.views[p], false
	e.once.Do(func() {
		t, band := x.tiles[p], x.bands[i]
		e.v = kernels.NewColView(t.Sp, band.Lo-t.Row0, band.Hi-t.Row0)
		a.idxBytes.Add(e.v.Bytes())
		built = true
		if operandIndexHook != nil {
			operandIndexHook(a)
		}
	})
	return e.v, built
}

// dropViews forgets the operand index's column views, for a matrix whose
// values changed in place; they are rebuilt on next use. The caller must
// hold the only reference to the matrix.
func (a *ATMatrix) dropViews() {
	n := int64(cap(a.ops.views)) * int64(unsafe.Sizeof(colViewEntry{}))
	for i := range a.ops.views {
		if v := a.ops.views[i].v; v != nil {
			n += v.Bytes()
		}
	}
	a.ops.viewsOnce, a.ops.views = sync.Once{}, nil
	a.idxBytes.Add(-n)
}

// indexColBandWindows builds the (sparse tile × column band) windows of an
// axis, carving every window's row spans from a single backing array, and
// returns them with the bytes they hold. Gustavson revisits B rows per
// contributing A element, and the same window recurs in every row-band pair
// of every product, so the spans are computed once and row-sliced per
// contribution.
func indexColBandWindows(x *bandAxis) ([][]kernels.CSRWin, int64) {
	flat := make([]kernels.CSRWin, len(x.tiles))
	out := make([][]kernels.CSRWin, len(x.bands))
	spanRows := 0
	for j, band := range x.bands {
		wins := flat[x.off[j]:x.off[j+1]:x.off[j+1]]
		for ti, tile := range x.tilesOf(j) {
			if tile.Kind != mat.Sparse {
				continue
			}
			w := kernels.CSRWin{M: tile.Sp, Col0: band.Lo - tile.Col0, Rows: tile.Rows, Cols: band.Len()}
			if w.NeedsIndex() {
				spanRows += tile.Rows
			}
			wins[ti] = w
		}
		out[j] = wins
	}
	buf := make([]int64, 2*spanRows)
	n := int64(cap(flat))*int64(unsafe.Sizeof(kernels.CSRWin{})) +
		int64(cap(out))*int64(unsafe.Sizeof([]kernels.CSRWin(nil))) + int64(cap(buf))*8
	for _, wins := range out {
		for ti := range wins {
			if wins[ti].M != nil && wins[ti].NeedsIndex() {
				buf = wins[ti].BuildIndexIn(buf)
			}
		}
	}
	return out, n
}

// RowBands returns the sorted distinct row intervals induced by the tile
// boundaries — the "tile-rows" ti that ATMULT iterates over (Alg. 2).
// For a matrix without tiles the single band [0, Rows) is returned. The
// slice is shared and must not be modified.
func (a *ATMatrix) RowBands() []Band { return a.index().rows.bands }

// ColBands returns the analogous column intervals (the "tile-cols" tj).
func (a *ATMatrix) ColBands() []Band { return a.index().cols.bands }

// RowBandTileIDs returns the positions in Tiles of the tiles covering row
// band i, ascending. The slice is shared and must not be modified.
func (a *ATMatrix) RowBandTileIDs(i int) []int32 { return a.index().rows.idsOf(i) }

// RowTiles returns the tiles covering row r, in Tiles order. The slice is
// shared and must not be modified.
func (a *ATMatrix) RowTiles(r int) []*Tile {
	x := a.index()
	return x.rows.tilesOf(int(x.bandOfBlockRow[r/a.BAtomic]))
}

// DensityMap returns the exact atomic-block density map of the matrix,
// computed once and cached. For an input operand this reuses the
// ZBlockCnts information of the partitioning phase conceptually; for a
// multiplication result it is what a subsequent ATMULT consumes.
func (a *ATMatrix) DensityMap() *density.Map {
	a.mapOnce.Do(func() {
		m := density.NewMap(a.Rows, a.Cols, a.BAtomic)
		cnt := make([]int64, a.BR*a.BC)
		for _, t := range a.Tiles {
			countTileBlocks(t, a.BAtomic, a.BC, cnt)
		}
		for i := 0; i < a.BR; i++ {
			for j := 0; j < a.BC; j++ {
				if area := m.CellArea(i, j); area > 0 {
					m.Set(i, j, float64(cnt[i*a.BC+j])/float64(area))
				}
			}
		}
		a.dmap = m
	})
	return a.dmap
}

// DensityMapAt returns the density map aggregated to the given block size
// (a power-of-two multiple of BAtomic). ATMULT coarsens the estimation
// grid for very high-dimension matrices so that the estimator cost stays
// negligible — the paper observes the estimate growing to 5% of runtime
// for hypersparse R9 because its cost follows the grid dimensions rather
// than the nnz (§IV-D); density.EstimateProduct visits only non-empty cell
// pairs, which leaves the grid scans as the dimension-driven part.
//
// The returned map is cached on the matrix and shared between callers; it
// must not be modified.
func (a *ATMatrix) DensityMapAt(block int) *density.Map {
	fine := a.DensityMap()
	if block <= a.BAtomic {
		return fine
	}
	a.coarseMu.Lock()
	defer a.coarseMu.Unlock()
	for _, m := range a.coarse {
		if m.Block == block {
			return m
		}
	}
	m := coarsen(fine, block)
	a.coarse = append(a.coarse, m)
	return m
}

// coarsen aggregates a density map to a block size that is a multiple of
// its own: every coarse cell is the area-weighted mean of the cells it
// covers.
func coarsen(fine *density.Map, block int) *density.Map {
	coarse := density.NewMap(fine.Rows, fine.Cols, block)
	ratio := block / fine.Block
	areas := make([]float64, coarse.BR*coarse.BC)
	for i := 0; i < fine.BR; i++ {
		ci := i / ratio
		for j := 0; j < fine.BC; j++ {
			cj := j / ratio
			area := float64(fine.CellArea(i, j))
			coarse.Rho[ci*coarse.BC+cj] += fine.At(i, j) * area
			areas[ci*coarse.BC+cj] += area
		}
	}
	for idx := range coarse.Rho {
		if areas[idx] > 0 {
			coarse.Rho[idx] /= areas[idx]
		}
	}
	return coarse
}

// countTileBlocks adds the tile's non-zeros to cnt, the row-major counts of
// the b-sided block grid bc blocks wide, one block row at a time (blockRow).
func countTileBlocks(t *Tile, b, bc int, cnt []int64) {
	br := blockRow{shift: bits.TrailingZeros(uint(b))}
	for r := 0; r < t.Rows; {
		blk := (t.Row0 + r) >> br.shift
		end := min(t.Rows, (blk+1)<<br.shift-t.Row0)
		br.cnt, br.touched = cnt[blk*bc:(blk+1)*bc], br.touched[:0]
		br.addTileRows(t, r, end)
		r = end
	}
}

// blockRow holds the non-zero counts of one row of blocks of side 1<<shift:
// cnt by block column, and touched, the block columns whose count has left
// zero, in the order they did. It is the one block-count rule: the density
// map and Repartition's counts both add tile rows through it.
type blockRow struct {
	shift   int
	cnt     []int64
	touched []int
}

// addTileRows adds the non-zeros of rows [lo, hi) of tile t, which lie in
// the one block row: v != 0, so a NaN counts and a −0 or any other stored
// zero does not. A dense row is counted a block segment at a time: the
// cells [c, end) share one block column.
func (br *blockRow) addTileRows(t *Tile, lo, hi int) {
	if t.Kind == mat.Sparse {
		p0, p1 := t.Sp.RowPtr[lo], t.Sp.RowPtr[hi]
		vals := t.Sp.Val[p0:p1]
		for i, c := range t.Sp.ColIdx[p0:p1] {
			if vals[i] != 0 {
				br.add((t.Col0+int(c))>>br.shift, 1)
			}
		}
		return
	}
	for r := lo; r < hi; r++ {
		row := t.D.RowSlice(r)
		for c := 0; c < len(row); {
			blk := (t.Col0 + c) >> br.shift
			end := min(len(row), (blk+1)<<br.shift-t.Col0)
			br.add(blk, kernels.NonZeros(row[c:end]))
			c = end
		}
	}
}

func (br *blockRow) add(bc int, n int64) {
	if n != 0 && br.cnt[bc] == 0 {
		br.touched = append(br.touched, bc)
	}
	br.cnt[bc] += n
}

// ToCOO flattens the AT MATRIX back into a staging table.
func (a *ATMatrix) ToCOO() *mat.COO {
	out := mat.NewCOO(a.Rows, a.Cols)
	for _, t := range a.Tiles {
		if t.Kind == mat.Sparse {
			for r := 0; r < t.Rows; r++ {
				lo, hi := t.Sp.RowRange(r)
				for p := lo; p < hi; p++ {
					out.Append(t.Row0+r, t.Col0+int(t.Sp.ColIdx[p]), t.Sp.Val[p])
				}
			}
		} else {
			for r := 0; r < t.Rows; r++ {
				row := t.D.RowSlice(r)
				for c, v := range row {
					if v != 0 {
						out.Append(t.Row0+r, t.Col0+c, v)
					}
				}
			}
		}
	}
	return out
}

// ToCSR converts the whole matrix to a single CSR structure (the row
// gather of Add's stage, on the calling goroutine); stored zeros drop out.
func (a *ATMatrix) ToCSR() *mat.CSR {
	var b RowBlock
	a.rowGatherer()(nil, 0, a.Rows, &b)
	return joinBlocks(a.Rows, a.Cols, []RowBlock{b})
}

// ToDense materializes the whole matrix densely. Use only for small
// matrices (tests, examples).
func (a *ATMatrix) ToDense() *mat.Dense {
	d := mat.NewDense(a.Rows, a.Cols)
	for _, t := range a.Tiles {
		w := d.Window(t.Row0, t.Row0+t.Rows, t.Col0, t.Col0+t.Cols)
		if t.Kind == mat.Sparse {
			for r := 0; r < t.Rows; r++ {
				lo, hi := t.Sp.RowRange(r)
				for p := lo; p < hi; p++ {
					w.Add(r, int(t.Sp.ColIdx[p]), t.Sp.Val[p])
				}
			}
		} else {
			for r := 0; r < t.Rows; r++ {
				copy(w.RowSlice(r), t.D.RowSlice(r))
			}
		}
	}
	return d
}

// Validate checks the AT MATRIX invariants: every tile is internally
// valid, tiles lie inside the matrix and do not overlap, and tile
// boundaries are aligned to the atomic block grid (except at the matrix
// edges). Overlap is checked per row band, on bands built here rather than
// by the index: a decoder validates before anything has vouched for the
// header, whose block-row count sizes the index's table.
func (a *ATMatrix) Validate() error {
	for ti, t := range a.Tiles {
		if err := t.Validate(); err != nil {
			return fmt.Errorf("core: tile %d: %w", ti, err)
		}
		if t.Row0+t.Rows > a.Rows || t.Col0+t.Cols > a.Cols {
			return fmt.Errorf("core: tile %d exceeds matrix bounds", ti)
		}
		if t.Row0%a.BAtomic != 0 || t.Col0%a.BAtomic != 0 {
			return fmt.Errorf("core: tile %d origin (%d,%d) not block-aligned", ti, t.Row0, t.Col0)
		}
		if (t.Rows%a.BAtomic != 0 && t.Row0+t.Rows != a.Rows) ||
			(t.Cols%a.BAtomic != 0 && t.Col0+t.Cols != a.Cols) {
			return fmt.Errorf("core: tile %d extent %d×%d not block-aligned", ti, t.Rows, t.Cols)
		}
	}
	if len(a.Tiles) < 2 {
		return nil
	}
	// Two tiles overlap exactly when they share a row band and their
	// column extents intersect: sorted by Col0, a band's tiles must each
	// end before the next begins.
	rows := newBandAxis(a.Tiles, a.Rows, rowSpan)
	var ids []int32
	for i, band := range rows.bands {
		ids = append(ids[:0], rows.idsOf(i)...)
		slices.SortFunc(ids, func(p, q int32) int { return a.Tiles[p].Col0 - a.Tiles[q].Col0 })
		for k := 1; k < len(ids); k++ {
			if p, q := a.Tiles[ids[k-1]], a.Tiles[ids[k]]; q.Col0 < p.Col0+p.Cols {
				return fmt.Errorf("core: tiles %d and %d overlap in rows %d–%d", ids[k-1], ids[k], band.Lo, band.Hi)
			}
		}
	}
	return nil
}

// LayoutString renders the tile layout in the style of Fig. 2: a character
// grid at atomic-block granularity where dense tiles print '#', sparse
// tiles a grayscale by density, and empty regions a space.
func (a *ATMatrix) LayoutString() string {
	const shades = " .:-=+*%"
	scale := a.tileShadeScale()
	var sb strings.Builder
	line := make([]byte, a.BC)
	for br := 0; br < a.BR; br++ {
		for i := range line {
			line[i] = ' '
		}
		for _, t := range a.RowTiles(br * a.BAtomic) {
			ch := byte('#')
			if t.Kind == mat.Sparse {
				ch = shades[max(1, min(len(shades)-1, int(t.Density()/scale*float64(len(shades)))))]
			}
			for bc := t.Col0 / a.BAtomic; bc*a.BAtomic < t.Col0+t.Cols; bc++ {
				line[bc] = ch
			}
		}
		sb.Write(line)
		sb.WriteByte('\n')
	}
	return sb.String()
}

func (a *ATMatrix) tileShadeScale() float64 {
	// Scale the grayscale so the densest sparse tile uses the top shade.
	mx := 1e-12
	for _, t := range a.Tiles {
		if t.Kind == mat.Sparse && t.Density() > mx {
			mx = t.Density()
		}
	}
	return mx
}

// FromCSR wraps a plain CSR matrix as a single-tile AT MATRIX — the
// adapter that lets ATMULT accept the common plain representations
// (§III: "each matrix type can be one of the following: a plain matrix
// structure ... or a heterogeneous AT MATRIX").
func FromCSR(m *mat.CSR, bAtomic int) *ATMatrix {
	a := newATMatrix(m.Rows, m.Cols, bAtomic)
	if m.NNZ() > 0 {
		a.Tiles = append(a.Tiles, &Tile{Rows: m.Rows, Cols: m.Cols, Kind: mat.Sparse, Sp: m, NNZ: m.NNZ()})
	}
	return a
}

// FromDense wraps a plain dense matrix as a single-tile AT MATRIX.
func FromDense(m *mat.Dense, bAtomic int) *ATMatrix {
	a := newATMatrix(m.Rows, m.Cols, bAtomic)
	a.Tiles = append(a.Tiles, &Tile{Rows: m.Rows, Cols: m.Cols, Kind: mat.DenseKind, D: m, NNZ: m.NNZ()})
	return a
}
