package core

import (
	"cmp"
	"context"
	"fmt"
	"math/bits"
	"slices"
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
	return buildLayout(src.Rows, src.Cols, cfg, (*partitioner).quadtree, func() (*mat.CSR, error) { return stageCOO(src) })
}

// PartitionRows is Partition for a producer that computes the matrix row by
// row: fill appends rows [lo, hi) to b — columns strictly ascending, no zero
// values — using scr, the arena of the worker that runs it. The row ranges
// are cut over the rows of by, the rows-tall matrix whose rows are being
// produced (nil: equal ranges), and run on the worker teams like any stage;
// ctx and watchdog bound them as they bound a multiplication's tasks.
func PartitionRows(ctx context.Context, cfg Config, watchdog time.Duration, rows, cols int, by *ATMatrix, fill func(scr *kernels.Scratch, lo, hi int, b *RowBlock)) (*ATMatrix, *PartitionStats, error) {
	return buildLayout(rows, cols, cfg, (*partitioner).quadtree, func() (*mat.CSR, error) {
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
	})
}

// buildLayout is the one routine behind every layout build: stage produces
// the rows (its duration is SortTime), one pass counts them per atomic
// block, plan turns the counts into tile boxes — it only *plans* — and the
// boxes are cut out of the stage, one task per tile on the worker teams.
func buildLayout(rows, cols int, cfg Config, plan func(*partitioner) []tileBox, stage func() (*mat.CSR, error)) (*ATMatrix, *PartitionStats, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	if rows <= 0 || cols <= 0 {
		return nil, nil, fmt.Errorf("core: cannot partition %d×%d matrix", rows, cols)
	}
	stats := &PartitionStats{}
	t0 := time.Now()
	s, err := stage()
	if err != nil {
		return nil, nil, err
	}
	stats.SortTime = time.Since(t0)
	t0 = time.Now()
	p := &partitioner{cfg: cfg, cnts: zBlockCounts(s, cfg.BAtomic), out: newATMatrix(rows, cols, cfg.BAtomic)}
	stats.CountTime = time.Since(t0)
	t0 = time.Now()
	boxes := plan(p)
	tiles := make([]*Tile, len(boxes))
	_, err = RunHomed(nil, cfg, 0, len(boxes),
		func(i int) int { return boxes[i].r0 },
		func(_ *sched.Team, i int) { tiles[i] = cutTile(s, boxes[i], cfg.HomeOfRow(boxes[i].r0)) })
	if err != nil {
		return nil, nil, err
	}
	for _, t := range tiles {
		p.out.Tiles = append(p.out.Tiles, t) // in plan order
	}
	stats.BuildTime = time.Since(t0)
	return p.out, stats, nil
}

// zBlockCounts returns ZBlockCnts: the non-zero count per atomic block,
// Z-ordered over the padded square block grid (§II-C2). Blocks outside the
// matrix count nothing; the recursion tells them from their position. A
// row's ascending columns are counted a block-run at a time.
func zBlockCounts(s *mat.CSR, b int) []int64 {
	gridSide := max(1, morton.SideLen(s.Rows, s.Cols)/b)
	cnts := make([]int64, uint64(gridSide)*uint64(gridSide))
	shift := bits.TrailingZeros(uint(b))
	for r := 0; r < s.Rows; r++ {
		for p, end := s.RowRange(r); p < end; {
			bc := int(s.ColIdx[p]) >> shift
			q := p + 1
			for limit := (bc + 1) << shift; q < end && int(s.ColIdx[q]) < limit; q++ {
			}
			cnts[morton.Encode(uint32(r>>shift), uint32(bc))] += q - p
			p = q
		}
	}
	return cnts
}

// occupancy summarizes the counts per quadtree level, SMASH's hierarchical
// bitmap used as an index: bit q of level l ≥ 1 is set when the Z-range
// [q·4^l, (q+1)·4^l) holds an entry. Level 0 is the counts themselves.
func occupancy(cnts []int64) [][]uint64 {
	occ := make([][]uint64, 1, bits.Len(uint(len(cnts)))/2+1) // len(cnts) = 4^(levels-1)
	for n := len(cnts) / 4; n > 0; n /= 4 {
		occ = append(occ, make([]uint64, (n+63)/64))
	}
	markOccupied(cnts, occ)
	return occ
}

// markOccupied fills the levels bottom-up: the first from the counts, four
// to a bit, every further one from the four bits below it.
//
//atlint:hotpath
func markOccupied(cnts []int64, occ [][]uint64) {
	for l := 1; l < len(occ); l++ {
		level, n := occ[l], len(cnts)>>(2*l)
		if l == 1 {
			for q := 0; q < n; q++ {
				if cnts[4*q]|cnts[4*q+1]|cnts[4*q+2]|cnts[4*q+3] != 0 {
					level[q>>6] |= 1 << (q & 63)
				}
			}
			continue
		}
		below := occ[l-1]
		for q := 0; q < n; q++ {
			if below[q>>4]>>(4*q&63)&0xF != 0 {
				level[q>>6] |= 1 << (q & 63)
			}
		}
	}
}

const (
	stOOB = iota
	stForward
	stMaterialized
)

type partitioner struct {
	cfg   Config
	cnts  []int64
	occ   [][]uint64 // which quadrants of each level hold entries; quadtree builds it
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

// rec implements RECQTPART (Alg. 1) over the Z-ordered block-count array:
// it returns OOB for fully out-of-bounds regions, FORWARD with the region
// nnz when the region is homogeneous and may still be melted into a larger
// tile by the caller, and MATERIALIZED once tiles have been emitted. Only
// quadrants that hold entries are descended into. A quadrant whose origin
// lies outside the matrix is outside it altogether. An empty one emits no
// tile at any depth, so all the descent decides is its status — FORWARD
// when the quadrant fits as one empty tile, else MATERIALIZED: fits is
// monotone in the clipped dimension, so a quadrant that fits has only
// sub-quadrants that fit (all of one kind, the kind of density 0) and melts
// level by level, and one that does not fit ends materialized whatever its
// sub-quadrants returned.
func (p *partitioner) rec(zs, ze uint64) (int, int64) {
	if br, bc := morton.Decode(zs); int(br)*p.cfg.BAtomic >= p.out.Rows || int(bc)*p.cfg.BAtomic >= p.out.Cols {
		return stOOB, 0
	}
	if ze-zs == 1 {
		return stForward, p.cnts[zs]
	}
	level := (bits.Len64(ze-zs) - 1) / 2
	if q := zs >> (2 * level); p.occ[level][q>>6]>>(q&63)&1 == 0 {
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
		st, n := p.rec(cs, ce)
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
	p.occ = occupancy(p.cnts)
	if status, nnz := p.rec(0, uint64(len(p.cnts))); status == stForward {
		p.materialize(0, uint64(len(p.cnts)), nnz)
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
	if n != bx.nnz {
		panic(fmt.Sprintf("core: tile (%d,%d) holds %d entries, counts say %d", bx.r0, bx.c0, n, bx.nnz))
	}
	return tile
}

// PartitionFixed tiles the matrix into a naive fixed grid of
// b_atomic×b_atomic tiles — the strawman the paper ablates against in
// Fig. 10 (steps 2–4) and attributes to fixed-block systems [15], [7].
// With mixed=false every tile is sparse; with mixed=true tiles whose
// density reaches ρ0^R are stored dense. Empty blocks produce no tile.
// Duplicates and zeros are treated as in Partition; src is not modified.
func PartitionFixed(src *mat.COO, cfg Config, mixed bool) (*ATMatrix, *PartitionStats, error) {
	grid := func(p *partitioner) []tileBox {
		for z, nnz := range p.cnts {
			p.materialize(uint64(z), uint64(z)+1, nnz) // nothing for an empty block, in bounds or out
		}
		if !mixed {
			for i := range p.boxes {
				p.boxes[i].kind = mat.Sparse
			}
		}
		slices.SortFunc(p.boxes, func(x, y tileBox) int { return cmp.Or(cmp.Compare(x.r0, y.r0), cmp.Compare(x.c0, y.c0)) })
		return p.boxes // block-row-major
	}
	return buildLayout(src.Rows, src.Cols, cfg, grid, func() (*mat.CSR, error) { return stageCOO(src) })
}
