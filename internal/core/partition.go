package core

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"time"

	"atmatrix/internal/mat"
	"atmatrix/internal/morton"
	"atmatrix/internal/sched"
)

// PartitionStats records the duration of the partitioning components shown
// in Fig. 7 of the paper: the preceding Z-ordering sort, the creation of
// the ZBlockCnts array, and the recursive partitioning routine including
// tile materialization.
type PartitionStats struct {
	SortTime  time.Duration // Z-curve reordering of the staging table
	CountTime time.Duration // ZBlockCnts single pass
	BuildTime time.Duration // quadtree recursion + tile materialization
}

// Total returns the end-to-end partitioning time.
func (s PartitionStats) Total() time.Duration { return s.SortTime + s.CountTime + s.BuildTime }

// zEntry pairs a staging entry with its precomputed Z-value.
type zEntry struct {
	z uint64
	e mat.Entry
}

// Partition converts a raw staging matrix into an AT MATRIX using the
// recursive quadtree partitioning of Alg. 1: the elements are reordered
// along the Z-curve, per-atomic-block non-zero counts are collected in a
// single pass, and the quadtree recursion melts homogeneous neighbor
// blocks into larger tiles bottom-up — bounded by the maximum tile sizes
// of Eqs. 1–2 — or materializes them where the density types diverge.
//
// Duplicate coordinates are summed in input order and entries that are or
// sum to zero are dropped — they would corrupt the density accounting. src
// is not modified.
func Partition(src *mat.COO, cfg Config) (*ATMatrix, *PartitionStats, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	if err := src.Validate(); err != nil {
		return nil, nil, err
	}
	if src.Rows <= 0 || src.Cols <= 0 {
		return nil, nil, fmt.Errorf("core: cannot partition %d×%d matrix", src.Rows, src.Cols)
	}

	stats := &PartitionStats{}
	b := cfg.BAtomic

	// Z-curve reordering (§II-C1). The radix sort is stable, so equal
	// coordinates end up adjacent in input order and fold in one pass.
	t0 := time.Now()
	ents := make([]zEntry, len(src.Ent))
	for i, e := range src.Ent {
		ents[i] = zEntry{z: morton.Encode(uint32(e.Row), uint32(e.Col)), e: e}
	}
	radixSortZ(ents, src.Rows, src.Cols)
	ents = foldDuplicatesZ(ents)
	stats.SortTime = time.Since(t0)

	// ZBlockCnts: non-zero count per atomic block, Z-ordered over the
	// padded square block grid; -1 marks blocks outside the matrix
	// bounds (§II-C2).
	t0 = time.Now()
	side := morton.SideLen(src.Rows, src.Cols)
	gridSide := side / b
	if gridSide < 1 {
		gridSide = 1
	}
	cnts := make([]int64, uint64(gridSide)*uint64(gridSide))
	for zb := range cnts {
		br, bc := morton.Decode(uint64(zb))
		if int(br)*b >= src.Rows || int(bc)*b >= src.Cols {
			cnts[zb] = -1
		}
	}
	for i := range ents {
		e := ents[i].e
		zb := morton.Encode(uint32(int(e.Row)/b), uint32(int(e.Col)/b))
		cnts[zb]++
	}
	stats.CountTime = time.Since(t0)

	// Recursive quadtree partitioning (Alg. 1). The recursion itself is
	// cheap; it only *plans* the tiles. The expensive materialization
	// (copy + reorder into CSR or arrays) is embarrassingly parallel per
	// tile, so the collected jobs run on the worker pool afterwards.
	t0 = time.Now()
	p := &partitioner{
		cfg:  cfg,
		cnts: cnts,
		ents: ents,
		out:  newATMatrix(src.Rows, src.Cols, b),
	}
	status, nnz := p.rec(0, uint64(len(cnts)))
	if status == stForward {
		p.materialize(0, uint64(len(cnts)), nnz)
	}
	if err := p.buildTiles(); err != nil {
		return nil, nil, err
	}
	stats.BuildTime = time.Since(t0)
	return p.out, stats, nil
}

// foldDuplicatesZ sums runs of equal Z-value (equal coordinates) of a
// Z-sorted table in place, in table order, and drops entries whose value
// is or sums to zero.
func foldDuplicatesZ(ents []zEntry) []zEntry {
	out := ents[:0]
	for i := 0; i < len(ents); {
		cur := ents[i]
		for i++; i < len(ents) && ents[i].z == cur.z; i++ {
			cur.e.Val += ents[i].e.Val
		}
		if cur.e.Val != 0 {
			out = append(out, cur)
		}
	}
	return out
}

const (
	stOOB = iota
	stForward
	stMaterialized
)

type partitioner struct {
	cfg  Config
	cnts []int64
	ents []zEntry
	out  *ATMatrix
	jobs []matJob
}

// matJob is one planned tile materialization.
type matJob struct {
	zs, ze uint64
	nnz    int64
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
// tile by the caller, and MATERIALIZED once tiles have been emitted.
func (p *partitioner) rec(zs, ze uint64) (int, int64) {
	if ze-zs == 1 {
		if p.cnts[zs] < 0 {
			return stOOB, 0
		}
		return stForward, p.cnts[zs]
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
// regions produce no tile. The actual payload construction happens in
// buildTiles.
func (p *partitioner) materialize(zs, ze uint64, nnz int64) {
	if nnz == 0 {
		return
	}
	p.jobs = append(p.jobs, matJob{zs: zs, ze: ze, nnz: nnz})
}

// buildTiles executes the planned materializations — in parallel across
// the pool's workers when there is enough work — and registers the tiles
// in deterministic (recursion) order.
func (p *partitioner) buildTiles() error {
	tiles := make([]*Tile, len(p.jobs))
	if len(p.jobs) >= 4 && p.cfg.Topology.TotalCores() > 1 {
		_, err := RunHomed(nil, p.cfg, 0, len(p.jobs),
			func(i int) int {
				br, _ := morton.Decode(p.jobs[i].zs)
				return int(br) * p.cfg.BAtomic
			},
			func(_ *sched.Team, i int) { tiles[i] = p.buildTile(p.jobs[i]) })
		if err != nil {
			return err
		}
	} else {
		for i := range p.jobs {
			tiles[i] = p.buildTile(p.jobs[i])
		}
	}
	for _, t := range tiles {
		p.out.addTile(t)
	}
	return nil
}

// buildTile materializes one planned tile: because an element's Z-value
// is its block's Z-value times b² plus its in-block Z-value, the region's
// elements form a contiguous range of the Z-sorted staging table located
// with binary search.
func (p *partitioner) buildTile(job matJob) *Tile {
	zs, ze, nnz := job.zs, job.ze, job.nnz
	b := p.cfg.BAtomic
	br, bc := morton.Decode(zs)
	r0, c0 := int(br)*b, int(bc)*b
	h, w := p.clippedDims(zs, ze)

	zLo := zs * uint64(b) * uint64(b)
	zHi := ze * uint64(b) * uint64(b)
	lo := sort.Search(len(p.ents), func(i int) bool { return p.ents[i].z >= zLo })
	hi := sort.Search(len(p.ents), func(i int) bool { return p.ents[i].z >= zHi })
	region := p.ents[lo:hi]
	if int64(len(region)) != nnz {
		panic(fmt.Sprintf("core: materialize nnz mismatch: range holds %d, counts say %d", len(region), nnz))
	}

	tile := &Tile{
		Row0: r0, Col0: c0, Rows: h, Cols: w,
		NNZ:  nnz,
		Home: p.cfg.HomeOfRow(r0),
	}
	if p.kindOf(nnz, h, w) == mat.DenseKind {
		tile.Kind = mat.DenseKind
		d := mat.NewDense(h, w)
		for i := range region {
			e := region[i].e
			d.Set(int(e.Row)-r0, int(e.Col)-c0, e.Val)
		}
		tile.D = d
	} else {
		tile.Kind = mat.Sparse
		// Copy and reorder the region row-major, then build CSR with
		// rebased, per-row sorted column ids.
		tmp := make([]mat.Entry, len(region))
		for i := range region {
			tmp[i] = region[i].e
		}
		sort.Slice(tmp, func(i, j int) bool {
			if tmp[i].Row != tmp[j].Row {
				return tmp[i].Row < tmp[j].Row
			}
			return tmp[i].Col < tmp[j].Col
		})
		tile.Sp = csrFromSorted(tmp, r0, c0, h, w)
	}
	return tile
}

// csrFromSorted builds the h×w CSR tile at origin (r0, c0) from its
// entries in row-major order, rebasing the coordinates.
func csrFromSorted(ents []mat.Entry, r0, c0, h, w int) *mat.CSR {
	csr := mat.NewCSR(h, w)
	csr.ColIdx = make([]int32, len(ents))
	csr.Val = make([]float64, len(ents))
	for i, e := range ents {
		csr.RowPtr[int(e.Row)-r0+1]++
		csr.ColIdx[i] = e.Col - int32(c0)
		csr.Val[i] = e.Val
	}
	for r := 0; r < h; r++ {
		csr.RowPtr[r+1] += csr.RowPtr[r]
	}
	return csr
}

// PartitionFixed tiles the matrix into a naive fixed grid of
// b_atomic×b_atomic tiles — the strawman the paper ablates against in
// Fig. 10 (steps 2–4) and attributes to fixed-block systems [15], [7].
// With mixed=false every tile is sparse; with mixed=true tiles whose
// density reaches ρ0^R are stored dense. Empty blocks produce no tile.
// Duplicates and zeros are treated as in Partition; src is not modified.
func PartitionFixed(src *mat.COO, cfg Config, mixed bool) (*ATMatrix, *PartitionStats, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	if err := src.Validate(); err != nil {
		return nil, nil, err
	}
	stats := &PartitionStats{}
	b := cfg.BAtomic

	t0 := time.Now()
	out := newATMatrix(src.Rows, src.Cols, b)
	// Bucket entries by block (block-row-major) with a counting sort.
	nBlocks := out.BR * out.BC
	cnt := make([]int64, nBlocks+1)
	for _, e := range src.Ent {
		blk := int(e.Row)/b*out.BC + int(e.Col)/b
		cnt[blk+1]++
	}
	stats.CountTime = time.Since(t0)

	t0 = time.Now()
	for i := 0; i < nBlocks; i++ {
		cnt[i+1] += cnt[i]
	}
	bucketed := make([]mat.Entry, len(src.Ent))
	next := append([]int64(nil), cnt[:nBlocks]...)
	for _, e := range src.Ent {
		blk := int(e.Row)/b*out.BC + int(e.Col)/b
		bucketed[next[blk]] = e
		next[blk]++
	}
	for blk := 0; blk < nBlocks; blk++ {
		lo, hi := cnt[blk], cnt[blk+1]
		if lo == hi {
			continue
		}
		br, bc := blk/out.BC, blk%out.BC
		r0, c0 := br*b, bc*b
		r1, c1 := min(r0+b, src.Rows), min(c0+b, src.Cols)
		h, w := r1-r0, c1-c0
		// Row-major within the block; the bucketing and this sort are both
		// stable, so duplicates fold in input order.
		region := bucketed[lo:hi]
		slices.SortStableFunc(region, func(x, y mat.Entry) int {
			return cmp.Or(cmp.Compare(x.Row, y.Row), cmp.Compare(x.Col, y.Col))
		})
		region = mat.FoldSorted(region)
		nnz := int64(len(region))
		if nnz == 0 {
			continue
		}
		tile := &Tile{Row0: r0, Col0: c0, Rows: h, Cols: w, NNZ: nnz, Home: cfg.HomeOfRow(r0)}
		if mixed && mat.Density(nnz, h, w) >= cfg.RhoRead {
			tile.Kind = mat.DenseKind
			d := mat.NewDense(h, w)
			for _, e := range region {
				d.Set(int(e.Row)-r0, int(e.Col)-c0, e.Val)
			}
			tile.D = d
		} else {
			tile.Kind = mat.Sparse
			tile.Sp = csrFromSorted(region, r0, c0, h, w)
		}
		out.addTile(tile)
	}
	stats.BuildTime = time.Since(t0)
	return out, stats, nil
}
