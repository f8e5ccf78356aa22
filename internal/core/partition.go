package core

import (
	"cmp"
	"context"
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"time"

	"atmatrix/internal/kernels"
	"atmatrix/internal/mat"
	"atmatrix/internal/morton"
	"atmatrix/internal/numa"
	"atmatrix/internal/sched"
)

// PartitionStats records the duration of the partitioning components shown
// in Fig. 7 of the paper: ordering the staging table, creating ZBlockCnts,
// and the recursive partitioning routine including tile materialization.
type PartitionStats struct {
	SortTime  time.Duration // producing the row-major staging: radix sort + fold of an upload, row gather or merge otherwise
	CountTime time.Duration // ZBlockCnts single pass
	BuildTime time.Duration // quadtree recursion + tile materialization
}

// Total returns the end-to-end partitioning time.
func (s PartitionStats) Total() time.Duration { return s.SortTime + s.CountTime + s.BuildTime }

// Partition converts a raw staging matrix into an AT MATRIX using the
// recursive quadtree partitioning of Alg. 1: per-atomic-block non-zero
// counts are collected in a single pass, and the quadtree recursion melts
// homogeneous neighbor blocks into larger tiles bottom-up — bounded by the
// maximum tile sizes of Eqs. 1–2 — or materializes them where the density
// types diverge. The table is staged row-major rather than along the
// Z-curve of §II-C1: only the counts need that order (see staging.go).
//
// Duplicate coordinates are summed in input order and entries that are or
// sum to zero are dropped — they would corrupt the density accounting. src
// is not modified.
func Partition(src *mat.COO, cfg Config) (*ATMatrix, *PartitionStats, error) {
	return buildLayout(src.Rows, src.Cols, cfg, (*partitioner).quadtree, staged(func() (*mat.CSR, error) { return stageCOO(src) }))
}

// PartitionRows is Partition for a producer that computes the matrix row by
// row: fill appends rows [lo, hi) to b — columns strictly ascending, no zero
// values — using scr, the arena of the worker that runs it. The row ranges
// are cut over the rows of by, the rows-tall matrix whose rows are being
// produced (nil: equal ranges), and run on the workers like any stage;
// ctx and watchdog bound them as they bound a multiplication's tasks.
func PartitionRows(ctx context.Context, cfg Config, watchdog time.Duration, rows, cols int, by *ATMatrix, fill func(scr *kernels.Scratch, lo, hi int, b *RowBlock)) (*ATMatrix, *PartitionStats, error) {
	return buildLayout(rows, cols, cfg, (*partitioner).quadtree, staged(func() (*mat.CSR, error) {
		s, err := stageRows(ctx, cfg, watchdog, rows, cols, by, fill)
		if err != nil {
			return nil, err
		}
		if err := s.Validate(); err != nil {
			return nil, fmt.Errorf("core: staged rows: %w", err)
		}
		if slices.Contains(s.Val, 0) {
			return nil, fmt.Errorf("core: staged rows store a zero")
		}
		return s, nil
	}))
}

// layoutSource is what a layout is built from: the non-empty atomic blocks
// of side b in ascending Z-order with their non-zero counts, and the tile a
// planned box becomes. cut runs on the workers, one box per task, and
// panics when the box does not hold the entries its count says.
type layoutSource interface {
	blockCounts(b int) []blockCount
	cut(bx tileBox, home numa.Node) *Tile
}

// buildLayout is the one routine behind every layout build: open readies
// the source (a row producer stages its rows, timed as SortTime), one pass
// counts its entries per atomic block, plan turns the counts into tile
// boxes — it only *plans* — and the boxes are cut out of the source, one
// task per tile on the workers.
func buildLayout(rows, cols int, cfg Config, plan func(*partitioner) []tileBox, open func(*PartitionStats) (layoutSource, error)) (*ATMatrix, *PartitionStats, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	if rows <= 0 || cols <= 0 {
		return nil, nil, fmt.Errorf("core: cannot partition %d×%d matrix", rows, cols)
	}
	stats := &PartitionStats{}
	src, err := open(stats)
	if err != nil {
		return nil, nil, err
	}
	t0 := time.Now()
	p := &partitioner{cfg: cfg, cnts: src.blockCounts(cfg.BAtomic), cells: gridCells(rows, cols, cfg.BAtomic), out: newATMatrix(rows, cols, cfg.BAtomic)}
	stats.CountTime = time.Since(t0)
	t0 = time.Now()
	boxes := plan(p)
	tiles := make([]*Tile, len(boxes))
	if len(boxes) == 1 && boxes[0].wholeSparse(rows, cols) {
		// One sparse tile over the whole matrix is one exact-size CSR of
		// the source's entries, or a stage itself: nothing to spread.
		tiles[0] = src.cut(boxes[0], cfg.HomeOfRow(0))
	} else {
		_, err = RunHomed(nil, cfg, 0, len(boxes),
			func(i int) int { return boxes[i].r0 },
			func(_ *sched.Team, i int) { tiles[i] = src.cut(boxes[i], cfg.HomeOfRow(boxes[i].r0)) })
		if err != nil {
			return nil, nil, err
		}
	}
	p.out.Tiles = append(p.out.Tiles, tiles...) // in plan order
	stats.BuildTime = time.Since(t0)
	return p.out, stats, nil
}

// stagedCSR is the layout source of a row producer: the whole matrix staged
// as one row-major CSR that stores no zero (staging.go).
type stagedCSR struct{ s *mat.CSR }

// staged opens the stage that stage produces as a layout source.
func staged(stage func() (*mat.CSR, error)) func(*PartitionStats) (layoutSource, error) {
	return func(stats *PartitionStats) (layoutSource, error) {
		t0 := time.Now()
		s, err := stage()
		stats.SortTime = time.Since(t0)
		return stagedCSR{s}, err
	}
}

func (st stagedCSR) blockCounts(b int) []blockCount { return zBlockCounts(st.s, b) }

func (st stagedCSR) cut(bx tileBox, home numa.Node) *Tile {
	if bx.wholeSparse(st.s.Rows, st.s.Cols) {
		// One sparse tile over the whole matrix is the stage itself, which
		// is fresh and exactly sized: it is adopted, not copied.
		return &Tile{Rows: bx.h, Cols: bx.w, Kind: mat.Sparse, NNZ: bx.nnz, Home: home, Sp: st.s}
	}
	return cutTile(st.s, bx, home)
}

// gridCells is the number of atomic blocks in the padded square block grid
// of a rows×cols matrix: a power of four.
func gridCells(rows, cols, b int) uint64 {
	side := uint64(max(1, morton.SideLen(rows, cols)/b))
	return side * side
}

// blockCount is one non-empty atomic block: its Z-order position in the
// padded block grid and its non-zero count.
type blockCount struct {
	z uint64
	n int64
}

// zBlockCounts returns ZBlockCnts (§II-C2) kept sparse: the non-empty
// atomic blocks in ascending Z-order, with their counts. The entries of a
// band of b rows are contiguous in the stage, all in one block row, and are
// counted a block-run at a time into one reused array of block-column
// counts; the band's non-empty blocks join the list as it leaves them, and
// sortByZ orders the list. Nothing is sized by the block grid: the array is
// one band wide, the list as long as the blocks that hold entries.
func zBlockCounts(s *mat.CSR, b int) []blockCount {
	shift := bits.TrailingZeros(uint(b))
	band := make([]int64, (s.Cols+b-1)>>shift)
	var touched []int // the band's non-empty block columns
	var out []blockCount
	for r0 := 0; r0 < s.Rows; r0 += b {
		cols := s.ColIdx[s.RowPtr[r0]:s.RowPtr[min(r0+b, s.Rows)]]
		touched = touched[:0]
		for p := 0; p < len(cols); {
			bc := int(cols[p]) >> shift
			q := p + 1
			for q < len(cols) && int(cols[q])>>shift == bc { // a run may cross into the next row
				q++
			}
			if band[bc] == 0 {
				touched = append(touched, bc)
			}
			band[bc] += int64(q - p)
			p = q
		}
		br := uint32(r0 >> shift)
		for _, bc := range touched {
			out = append(out, blockCount{morton.Encode(br, uint32(bc)), band[bc]})
			band[bc] = 0
		}
	}
	return sortByZ(out, gridCells(s.Rows, s.Cols, b))
}

// sortByZ orders a list of blocks of a grid of the given cell count by z:
// an LSD radix sort, one linear pass per byte of z the grid uses. A list
// cut from a full grid is long, and a comparison sort of it would cost
// more than counting its entries did.
func sortByZ(list []blockCount, cells uint64) []blockCount {
	spare := make([]blockCount, len(list))
	for shift := 0; shift < bits.Len64(cells-1); shift += 8 {
		var count [256]int
		for _, c := range list {
			count[byte(c.z>>shift)]++
		}
		pos := 0
		for d, n := range count {
			count[d], pos = pos, pos+n
		}
		for _, c := range list {
			d := byte(c.z >> shift)
			spare[count[d]] = c
			count[d]++
		}
		list, spare = spare, list
	}
	return list
}

const (
	stOOB = iota
	stForward
	stMaterialized
)

type partitioner struct {
	cfg   Config
	cnts  []blockCount // non-empty blocks, ascending z (zBlockCounts)
	cells uint64       // blocks in the padded grid (gridCells)
	out   *ATMatrix
	boxes []tileBox // planned tiles, in recursion order
}

// clippedDims returns the in-bounds height and width of the block-space
// Z-range [zs, ze).
func (p *partitioner) clippedDims(zs, ze uint64) (h, w int) {
	b := p.cfg.BAtomic
	br, bc := morton.Decode(zs)
	sideBlocks := regionSide(ze - zs)
	r0, c0 := int(br)*b, int(bc)*b
	r1, c1 := r0+sideBlocks*b, c0+sideBlocks*b
	if r1 > p.out.Rows {
		r1 = p.out.Rows
	}
	if c1 > p.out.Cols {
		c1 = p.out.Cols
	}
	return r1 - r0, c1 - c0
}

// regionSide returns the side length (in blocks) of a Z-range of the given
// size (a power of four).
func regionSide(size uint64) int {
	if size == 0 {
		return 0
	}
	return 1 << ((bits.Len64(size) - 1) / 2)
}

// kindOf classifies a region by comparing its density with ρ0^R — the
// homogeneity-type decision of §II-C3.
func (p *partitioner) kindOf(nnz int64, h, w int) mat.Kind {
	if mat.Density(nnz, h, w) >= p.cfg.RhoRead {
		return mat.DenseKind
	}
	return mat.Sparse
}

// fits checks the maximum tile size criteria of Eqs. 1–2 for a merged
// region of the given clipped dims and density type.
func (p *partitioner) fits(kind mat.Kind, nnz int64, h, w int) bool {
	dim := h
	if w > dim {
		dim = w
	}
	if kind == mat.DenseKind {
		return dim <= p.cfg.MaxDenseTileDim()
	}
	return dim <= p.cfg.MaxSparseTileDim(mat.Density(nnz, h, w))
}

// rec implements RECQTPART (Alg. 1) over the block counts of the Z-range
// [zs, ze), which are p.cnts[lo:hi]: it returns OOB for fully out-of-bounds
// regions, FORWARD with the region nnz when the region is homogeneous and
// may still be melted into a larger tile by the caller, and MATERIALIZED
// once tiles have been emitted. Only quadrants that hold entries are
// descended into. A quadrant whose origin lies outside the matrix is outside
// it altogether. An empty one (lo == hi) emits no tile at any depth, so all
// the descent decides is its status — FORWARD when the quadrant fits as one
// empty tile, else MATERIALIZED: fits is monotone in the clipped dimension,
// so a quadrant that fits has only sub-quadrants that fit (all of one kind,
// the kind of density 0) and melts level by level, and one that does not fit
// ends materialized whatever its sub-quadrants returned.
func (p *partitioner) rec(zs, ze uint64, lo, hi int) (int, int64) {
	if br, bc := morton.Decode(zs); int(br)*p.cfg.BAtomic >= p.out.Rows || int(bc)*p.cfg.BAtomic >= p.out.Cols {
		return stOOB, 0
	}
	if ze-zs == 1 {
		if lo == hi {
			return stForward, 0
		}
		return stForward, p.cnts[lo].n
	}
	if lo == hi {
		h, w := p.clippedDims(zs, ze)
		if p.fits(p.kindOf(0, h, w), 0, h, w) {
			return stForward, 0
		}
		return stMaterialized, 0
	}
	stride := (ze - zs) / 4
	type child struct {
		zs, ze uint64
		status int
		nnz    int64
	}
	var children [4]child
	anyMat := false
	allOOB := true
	for q := 0; q < 4; q++ {
		cs := zs + uint64(q)*stride
		ce := cs + stride
		end := lo + sort.Search(hi-lo, func(i int) bool { return p.cnts[lo+i].z >= ce })
		st, n := p.rec(cs, ce, lo, end)
		lo = end
		children[q] = child{zs: cs, ze: ce, status: st, nnz: n}
		if st == stMaterialized {
			anyMat = true
		}
		if st != stOOB {
			allOOB = false
		}
	}
	if allOOB {
		return stOOB, 0
	}
	if !anyMat {
		// All in-bounds children are forwarded; check homogeneity: same
		// density type, and the melted region still within the maximum
		// tile size for that type.
		var total int64
		kindSet := false
		var kind mat.Kind
		homogeneous := true
		for _, c := range children {
			if c.status != stForward {
				continue
			}
			h, w := p.clippedDims(c.zs, c.ze)
			k := p.kindOf(c.nnz, h, w)
			if !kindSet {
				kind, kindSet = k, true
			} else if k != kind {
				homogeneous = false
			}
			total += c.nnz
		}
		if homogeneous {
			h, w := p.clippedDims(zs, ze)
			if p.fits(p.kindOf(total, h, w), total, h, w) {
				return stForward, total
			}
		}
	}
	// Heterogeneous neighbors (or an already-materialized subtree, or a
	// region that would exceed the size bounds): materialize each
	// still-forwarded child at its own level.
	for _, c := range children {
		if c.status == stForward {
			p.materialize(c.zs, c.ze, c.nnz)
		}
	}
	return stMaterialized, 0
}

// materialize plans one tile for the block-space Z-range [zs, ze); empty
// regions produce no tile. buildLayout cuts the payloads afterwards.
func (p *partitioner) materialize(zs, ze uint64, nnz int64) {
	if nnz > 0 {
		p.boxes = append(p.boxes, p.box(zs, ze, nnz))
	}
}

// tileBox is one planned tile: its bounding box, entry count and kind.
type tileBox struct {
	r0, c0, h, w int
	nnz          int64
	kind         mat.Kind
}

// box returns the tile the Z-range [zs, ze) with nnz entries becomes.
func (p *partitioner) box(zs, ze uint64, nnz int64) tileBox {
	br, bc := morton.Decode(zs)
	h, w := p.clippedDims(zs, ze)
	return tileBox{r0: int(br) * p.cfg.BAtomic, c0: int(bc) * p.cfg.BAtomic, h: h, w: w, nnz: nnz, kind: p.kindOf(nnz, h, w)}
}

// quadtree plans the adaptive layout: the tiles of Alg. 1.
func (p *partitioner) quadtree() []tileBox {
	if status, nnz := p.rec(0, p.cells, 0, len(p.cnts)); status == stForward {
		p.materialize(0, p.cells, nnz)
	}
	return p.boxes
}

// cutTile materializes one planned tile: each row is the column range
// [c0, c0+w) of the staged row — a CSR tile rebases it, a dense one scatters it.
func cutTile(s *mat.CSR, bx tileBox, home numa.Node) *Tile {
	tile := &Tile{Row0: bx.r0, Col0: bx.c0, Rows: bx.h, Cols: bx.w, Kind: bx.kind, NNZ: bx.nnz, Home: home}
	var n int64
	if bx.kind == mat.DenseKind {
		tile.D = mat.NewDense(bx.h, bx.w)
		for r := 0; r < bx.h; r++ {
			lo, hi := s.ColSpan(bx.r0+r, int32(bx.c0), int32(bx.c0+bx.w))
			row := tile.D.RowSlice(r)
			for p := lo; p < hi; p++ {
				row[int(s.ColIdx[p])-bx.c0] = s.Val[p]
			}
			n += hi - lo
		}
	} else {
		tile.Sp = &mat.CSR{Rows: bx.h, Cols: bx.w, RowPtr: make([]int64, bx.h+1), ColIdx: make([]int32, bx.nnz), Val: make([]float64, bx.nnz)}
		for r := 0; r < bx.h; r++ {
			lo, hi := s.ColSpan(bx.r0+r, int32(bx.c0), int32(bx.c0+bx.w))
			for i, c := range s.ColIdx[lo:hi] {
				tile.Sp.ColIdx[n+int64(i)] = c - int32(bx.c0)
			}
			copy(tile.Sp.Val[n:], s.Val[lo:hi])
			n += hi - lo
			tile.Sp.RowPtr[r+1] = n
		}
	}
	bx.mustHold(n)
	return tile
}

// wholeSparse reports whether the box is one sparse tile over the whole
// rows×cols matrix.
func (bx tileBox) wholeSparse(rows, cols int) bool {
	return bx.kind == mat.Sparse && bx.h == rows && bx.w == cols
}

// mustHold panics unless n, the entries cut into the box, is its count.
func (bx tileBox) mustHold(n int64) {
	if n != bx.nnz {
		panic(fmt.Sprintf("core: tile (%d,%d) holds %d entries, counts say %d", bx.r0, bx.c0, n, bx.nnz))
	}
}

// PartitionFixed tiles the matrix into a naive fixed grid of
// b_atomic×b_atomic tiles — the strawman the paper ablates against in
// Fig. 10 (steps 2–4) and attributes to fixed-block systems [15], [7].
// With mixed=false every tile is sparse; with mixed=true tiles whose
// density reaches ρ0^R are stored dense. Empty blocks produce no tile.
// Duplicates and zeros are treated as in Partition; src is not modified.
func PartitionFixed(src *mat.COO, cfg Config, mixed bool) (*ATMatrix, *PartitionStats, error) {
	grid := func(p *partitioner) []tileBox {
		for _, c := range p.cnts {
			p.materialize(c.z, c.z+1, c.n)
		}
		if !mixed {
			for i := range p.boxes {
				p.boxes[i].kind = mat.Sparse
			}
		}
		slices.SortFunc(p.boxes, func(x, y tileBox) int { return cmp.Or(cmp.Compare(x.r0, y.r0), cmp.Compare(x.c0, y.c0)) })
		return p.boxes // block-row-major
	}
	return buildLayout(src.Rows, src.Cols, cfg, grid, staged(func() (*mat.CSR, error) { return stageCOO(src) }))
}
