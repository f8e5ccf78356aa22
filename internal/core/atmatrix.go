package core

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"atmatrix/internal/density"
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

	// blockIdx maps each atomic block (block-row-major) to the index of
	// the tile covering it, or -1 when the block is empty.
	blockIdx []int32
	// BR, BC are the block-grid dimensions ⌈Rows/BAtomic⌉ × ⌈Cols/BAtomic⌉.
	BR, BC int

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

// newATMatrix allocates an empty AT MATRIX shell with an unpopulated
// block index.
func newATMatrix(rows, cols, bAtomic int) *ATMatrix {
	br := (rows + bAtomic - 1) / bAtomic
	bc := (cols + bAtomic - 1) / bAtomic
	if br < 1 {
		br = 1
	}
	if bc < 1 {
		bc = 1
	}
	a := &ATMatrix{Rows: rows, Cols: cols, BAtomic: bAtomic, BR: br, BC: bc}
	a.blockIdx = make([]int32, br*bc)
	for i := range a.blockIdx {
		a.blockIdx[i] = -1
	}
	return a
}

// NewFromTiles assembles an AT MATRIX of the given dimensions directly
// from already-partitioned tiles, sharing their payloads. Callers that
// carve shards out of a partitioned matrix or merge disjoint partial
// products back together use this instead of re-running the partitioner;
// the structural invariants are validated.
func NewFromTiles(rows, cols, bAtomic int, tiles []*Tile) (*ATMatrix, error) {
	out := newATMatrix(rows, cols, bAtomic)
	for _, t := range tiles {
		out.addTile(t)
	}
	if err := out.Validate(); err != nil {
		return nil, err
	}
	return out, nil
}

// addTile registers a tile and indexes the atomic blocks it covers.
func (a *ATMatrix) addTile(t *Tile) {
	idx := int32(len(a.Tiles))
	a.Tiles = append(a.Tiles, t)
	b := a.BAtomic
	for br := t.Row0 / b; br*b < t.Row0+t.Rows && br < a.BR; br++ {
		for bc := t.Col0 / b; bc*b < t.Col0+t.Cols && bc < a.BC; bc++ {
			a.blockIdx[br*a.BC+bc] = idx
		}
	}
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
	idx := a.blockIdx[r/a.BAtomic*a.BC+c/a.BAtomic]
	if idx < 0 {
		return nil
	}
	return a.Tiles[idx]
}

// At returns the matrix element at (r, c).
func (a *ATMatrix) At(r, c int) float64 {
	t := a.TileAt(r, c)
	if t == nil {
		return 0
	}
	return t.At(r, c)
}

// RowBands returns the sorted distinct row intervals induced by the tile
// boundaries — the "tile-rows" ti that ATMULT iterates over (Alg. 2).
// For a matrix without tiles the single band [0, Rows) is returned.
func (a *ATMatrix) RowBands() []Band {
	cuts := map[int]bool{0: true, a.Rows: true}
	for _, t := range a.Tiles {
		cuts[t.Row0] = true
		cuts[t.Row0+t.Rows] = true
	}
	return bandsFromCuts(cuts, a.Rows)
}

// ColBands returns the analogous column intervals (the "tile-cols" tj).
func (a *ATMatrix) ColBands() []Band {
	cuts := map[int]bool{0: true, a.Cols: true}
	for _, t := range a.Tiles {
		cuts[t.Col0] = true
		cuts[t.Col0+t.Cols] = true
	}
	return bandsFromCuts(cuts, a.Cols)
}

// Band is a half-open index interval [Lo, Hi).
type Band struct{ Lo, Hi int }

func (b Band) Len() int { return b.Hi - b.Lo }

func bandsFromCuts(cuts map[int]bool, limit int) []Band {
	xs := make([]int, 0, len(cuts))
	for x := range cuts {
		if x >= 0 && x <= limit {
			xs = append(xs, x)
		}
	}
	sort.Ints(xs)
	bands := make([]Band, 0, len(xs)-1)
	for i := 1; i < len(xs); i++ {
		if xs[i] > xs[i-1] {
			bands = append(bands, Band{Lo: xs[i-1], Hi: xs[i]})
		}
	}
	if len(bands) == 0 {
		bands = append(bands, Band{0, limit})
	}
	return bands
}

// tilesInRowBand returns the tiles whose row extent contains the band.
// Because bands are induced by tile boundaries, a tile either contains a
// band completely or not at all.
func (a *ATMatrix) tilesInRowBand(b Band) []*Tile {
	seen := map[int32]bool{}
	var out []*Tile
	row := b.Lo
	for bc := 0; bc < a.BC; bc++ {
		idx := a.blockIdx[row/a.BAtomic*a.BC+bc]
		if idx >= 0 && !seen[idx] {
			seen[idx] = true
			out = append(out, a.Tiles[idx])
		}
	}
	return out
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

func countTileBlocks(t *Tile, b, bc int, cnt []int64) {
	if t.Kind == mat.Sparse {
		for r := 0; r < t.Rows; r++ {
			lo, hi := t.Sp.RowRange(r)
			base := (t.Row0 + r) / b * bc
			for p := lo; p < hi; p++ {
				cnt[base+(t.Col0+int(t.Sp.ColIdx[p]))/b]++
			}
		}
		return
	}
	for r := 0; r < t.Rows; r++ {
		row := t.D.RowSlice(r)
		base := (t.Row0 + r) / b * bc
		for c, v := range row {
			if v != 0 {
				cnt[base+(t.Col0+c)/b]++
			}
		}
	}
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
// gather of Repartition, on the calling goroutine); stored zeros drop out.
func (a *ATMatrix) ToCSR() *mat.CSR {
	var b rowBlock
	a.rowGatherer()(0, a.Rows, &b)
	return joinBlocks(a.Rows, a.Cols, []rowBlock{b})
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
// valid, tiles lie inside the matrix and do not overlap, tile boundaries
// are aligned to the atomic block grid (except at the matrix edges), and
// the block index agrees with the tiles.
func (a *ATMatrix) Validate() error {
	covered := make([]int32, a.BR*a.BC)
	for i := range covered {
		covered[i] = -1
	}
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
		b := a.BAtomic
		for br := t.Row0 / b; br*b < t.Row0+t.Rows; br++ {
			for bc := t.Col0 / b; bc*b < t.Col0+t.Cols; bc++ {
				cell := br*a.BC + bc
				if covered[cell] >= 0 {
					return fmt.Errorf("core: tiles %d and %d overlap at block (%d,%d)", covered[cell], ti, br, bc)
				}
				covered[cell] = int32(ti)
				if a.blockIdx[cell] != int32(ti) {
					return fmt.Errorf("core: block index at (%d,%d) = %d, want %d", br, bc, a.blockIdx[cell], ti)
				}
			}
		}
	}
	for cell, idx := range a.blockIdx {
		if idx >= 0 && covered[cell] != idx {
			return fmt.Errorf("core: block index points to tile %d at cell %d but no tile covers it", idx, cell)
		}
	}
	return nil
}

// LayoutString renders the tile layout in the style of Fig. 2: a character
// grid at atomic-block granularity where dense tiles print '#', sparse
// tiles a grayscale by density, and empty regions a space.
func (a *ATMatrix) LayoutString() string {
	const shades = " .:-=+*%"
	var sb strings.Builder
	for br := 0; br < a.BR; br++ {
		for bc := 0; bc < a.BC; bc++ {
			idx := a.blockIdx[br*a.BC+bc]
			if idx < 0 {
				sb.WriteByte(' ')
				continue
			}
			t := a.Tiles[idx]
			if t.Kind == mat.DenseKind {
				sb.WriteByte('#')
				continue
			}
			s := int(t.Density() / a.tileShadeScale() * float64(len(shades)))
			if s >= len(shades) {
				s = len(shades) - 1
			}
			if s < 1 {
				s = 1
			}
			sb.WriteByte(shades[s])
		}
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
		a.addTile(&Tile{Rows: m.Rows, Cols: m.Cols, Kind: mat.Sparse, Sp: m, NNZ: m.NNZ()})
	}
	return a
}

// FromDense wraps a plain dense matrix as a single-tile AT MATRIX.
func FromDense(m *mat.Dense, bAtomic int) *ATMatrix {
	a := newATMatrix(m.Rows, m.Cols, bAtomic)
	a.addTile(&Tile{Rows: m.Rows, Cols: m.Cols, Kind: mat.DenseKind, D: m, NNZ: m.NNZ()})
	return a
}
