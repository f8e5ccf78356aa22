package core

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"atmatrix/internal/gen"
	"atmatrix/internal/mat"
	"atmatrix/internal/morton"
	"atmatrix/internal/numa"
)

// refPlanner is the quadtree planner as it stood before it learned to skip
// empty quadrants: the counts are a dense Z-ordered grid, blocks outside
// the matrix are marked -1 in it, and the recursion visits every cell of
// the padded grid. partitioner.rec, over the sparse list of non-empty
// blocks, must plan the same tiles, in the same order.
type refPlanner struct {
	*partitioner
	cnts []int64
}

// newRefPlanner plans a copy of the dense grid cnts of a rows×cols matrix,
// its out-of-bounds blocks marked.
func newRefPlanner(cfg Config, rows, cols int, cnts []int64) refPlanner {
	b := cfg.BAtomic
	cnts = slices.Clone(cnts)
	for zb := range cnts {
		br, bc := morton.Decode(uint64(zb))
		if int(br)*b >= rows || int(bc)*b >= cols {
			if cnts[zb] != 0 {
				panic(fmt.Sprintf("reference: out-of-bounds block (%d,%d) counts %d", br, bc, cnts[zb]))
			}
			cnts[zb] = -1
		}
	}
	return refPlanner{&partitioner{cfg: cfg, out: newATMatrix(rows, cols, b)}, cnts}
}

// quadtree plans the tiles by the full descent.
func (p refPlanner) quadtree() []tileBox {
	if status, nnz := p.rec(0, uint64(len(p.cnts))); status == stForward {
		p.materialize(0, uint64(len(p.cnts)), nnz)
	}
	return p.boxes
}

func (p refPlanner) rec(zs, ze uint64) (int, int64) {
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

// sparseCounts is the list zBlockCounts keeps of a dense count grid: its
// non-empty blocks in Z-order.
func sparseCounts(cnts []int64) []blockCount {
	var out []blockCount
	for z, n := range cnts {
		if n != 0 {
			out = append(out, blockCount{uint64(z), n})
		}
	}
	return out
}

// samePlan fails unless the planner over the sparse list and the full
// descent over the dense grid cnts plan the same boxes — position, size,
// nnz and kind — in the same order, and return the same status and count
// for every quadrant of every level.
func samePlan(t *testing.T, name string, cfg Config, rows, cols int, cnts []int64) {
	t.Helper()
	list := sparseCounts(cnts)
	p := &partitioner{cfg: cfg, cnts: list, cells: gridCells(rows, cols, cfg.BAtomic), out: newATMatrix(rows, cols, cfg.BAtomic)}
	if p.cells != uint64(len(cnts)) {
		t.Fatalf("%s: the grid has %d cells, the planner %d", name, len(cnts), p.cells)
	}
	want := newRefPlanner(cfg, rows, cols, cnts).quadtree()
	if got := p.quadtree(); !slices.Equal(got, want) {
		t.Errorf("%s (%d×%d, b=%d): planned %d tiles %v, full descent %d tiles %v", name, rows, cols, cfg.BAtomic, len(got), clip(got), len(want), clip(want))
		return
	}
	ref := newRefPlanner(cfg, rows, cols, cnts)
	for size := uint64(1); size <= uint64(len(cnts)); size *= 4 {
		lo := 0
		for zs := uint64(0); zs < uint64(len(cnts)); zs += size {
			hi := lo
			for hi < len(list) && list[hi].z < zs+size {
				hi++
			}
			p.boxes, ref.boxes = nil, nil
			st, n := p.rec(zs, zs+size, lo, hi)
			wantSt, wantN := ref.rec(zs, zs+size)
			if st != wantSt || n != wantN || !slices.Equal(p.boxes, ref.boxes) {
				t.Errorf("%s (%d×%d, b=%d): quadrant [%d,%d) returns (%d, %d) and %d tiles, full descent (%d, %d) and %d",
					name, rows, cols, cfg.BAtomic, zs, zs+size, st, n, len(p.boxes), wantSt, wantN, len(ref.boxes))
				return
			}
			lo = hi
		}
	}
}

func clip(boxes []tileBox) []tileBox { return boxes[:min(len(boxes), 6)] }

// denseCountsOf counts the entries of m's stage per atomic block into the
// dense Z-ordered grid the full descent reads, entry by entry, and fails
// unless zBlockCounts of that stage keeps exactly the grid's non-empty
// blocks.
func denseCountsOf(t *testing.T, m *ATMatrix, b int) []int64 {
	t.Helper()
	s, err := stageCOO(m.ToCOO())
	if err != nil {
		t.Fatal(err)
	}
	grid := max(1, morton.SideLen(m.Rows, m.Cols)/b)
	cnts := make([]int64, grid*grid)
	for r := 0; r < s.Rows; r++ {
		lo, hi := s.RowRange(r)
		for _, c := range s.ColIdx[lo:hi] {
			cnts[morton.Encode(uint32(r/b), uint32(int(c)/b))]++
		}
	}
	if got, want := zBlockCounts(s, b), sparseCounts(cnts); !slices.Equal(got, want) {
		t.Fatalf("%d×%d, b=%d: zBlockCounts keeps %d blocks, the grid %d", m.Rows, m.Cols, b, len(got), len(want))
	}
	return cnts
}

// tinyLLCConfig cannot hold even one atomic block as a sparse tile:
// b_atomic = 8 > τ^sp_max(0) = 4, so no empty quadrant ever fits.
func tinyLLCConfig() Config {
	cfg := testConfig()
	cfg.LLCBytes = llcBeta * 8 * 4
	return cfg
}

func TestQuadtreeMatchesFullDescent(t *testing.T) {
	for _, topo := range layoutTopologies {
		cfg := testConfig()
		cfg.Topology = topo
		for _, c := range layoutCases(t, cfg) {
			samePlan(t, c.name, cfg, c.m.Rows, c.m.Cols, denseCountsOf(t, c.m, cfg.BAtomic))
		}
	}
	// R9³ at the benchmark's scale and configuration: eval_chain's chain3
	// result, 198 414 entries in 1 199 of the 512² padded grid's blocks.
	bench := benchLayoutConfig()
	spec, err := gen.Lookup("R9")
	if err != nil {
		t.Fatal(err)
	}
	spec.Seed += 1000
	r9coo, err := spec.Generate(1.0 / 16)
	if err != nil {
		t.Fatal(err)
	}
	r9, _, err := Partition(r9coo, bench)
	if err != nil {
		t.Fatal(err)
	}
	cube := r9
	for range 2 {
		if cube, _, err = Multiply(cube, r9, bench); err != nil {
			t.Fatal(err)
		}
	}
	samePlan(t, "R9³", bench, cube.Rows, cube.Cols, denseCountsOf(t, cube, bench.BAtomic))
	tiny := tinyLLCConfig()
	if tiny.BAtomic <= tiny.MaxSparseTileDim(0) {
		t.Fatalf("b_atomic %d fits τ^sp_max(0) = %d; the case is not covered", tiny.BAtomic, tiny.MaxSparseTileDim(0))
	}
	rng := rand.New(rand.NewSource(193))
	for _, cfg := range []Config{testConfig(), benchLayoutConfig(), tiny} {
		b := cfg.BAtomic
		for _, shape := range [][2]int{
			{1, 1}, {1, 40 * b}, {40 * b, 1}, {b, b}, {b + 1, b + 1},
			// ≥ 3/4 of the padded grid out of bounds: just past a power of
			// two in one dimension, narrow in the other.
			{16*b + 1, 3 * b}, {3 * b, 16*b + 1}, {32*b + 1, 32*b + 1}, {33 * b, b}, {2, 64*b + 3},
		} {
			rows, cols := shape[0], shape[1]
			part := func(nnz int) *ATMatrix {
				m, _, err := Partition(mat.RandomCOO(rng, rows, cols, min(nnz, rows*cols)), cfg)
				if err != nil {
					t.Fatal(err)
				}
				return m
			}
			for _, nnz := range []int{0, 1, 7, rows + cols, 40 * (rows + cols)} {
				m := part(nnz)
				samePlan(t, fmt.Sprintf("random nnz=%d", nnz), cfg, rows, cols, denseCountsOf(t, m, b))
			}
		}
	}
}

// randomCounts draws a block-count grid for a rows×cols matrix: each
// in-bounds block is empty with probability pEmpty, else filled to a
// random share of its clipped area; whole quadrants are wiped at random so
// that empty regions of every size occur.
func randomCounts(rng *rand.Rand, rows, cols, b int, pEmpty float64) []int64 {
	grid := max(1, morton.SideLen(rows, cols)/b)
	cnts := make([]int64, grid*grid)
	for zb := range cnts {
		br, bc := morton.Decode(uint64(zb))
		h, w := min(b, rows-int(br)*b), min(b, cols-int(bc)*b)
		if h <= 0 || w <= 0 || rng.Float64() < pEmpty {
			continue
		}
		fill := rng.Float64()
		if rng.Intn(3) == 0 {
			fill *= fill * fill // mostly sparse blocks
		}
		cnts[zb] = int64(fill * float64(h*w))
	}
	levels := bits.Len(uint(len(cnts)))/2 + 1 // len(cnts) = 4^(levels-1)
	for wipes := rng.Intn(6); wipes > 0; wipes-- {
		size := 1 << (2 * rng.Intn(levels))
		zs := rng.Intn(len(cnts)/size) * size
		clear(cnts[zs : zs+size])
	}
	return cnts
}

func TestQuadtreeMatchesFullDescentOnRandomCounts(t *testing.T) {
	cfgs := []Config{testConfig(), benchLayoutConfig(), tinyLLCConfig()}
	small := testConfig()
	small.LLCBytes = 3 * 8 * 16 * 16 // τ^d_max = 16: two blocks a side
	cfgs = append(cfgs, small)
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := cfgs[rng.Intn(len(cfgs))]
		b := cfg.BAtomic
		rows, cols := 1+rng.Intn(70*b), 1+rng.Intn(70*b)
		switch rng.Intn(4) {
		case 0:
			rows = 1 + rng.Intn(2*b)
		case 1:
			cols = 1 + rng.Intn(2*b)
		}
		pEmpty := []float64{0, 0.3, 0.9, 0.995}[rng.Intn(4)]
		samePlan(t, fmt.Sprintf("seed %d", seed), cfg, rows, cols, randomCounts(rng, rows, cols, b, pEmpty))
	}
}

// TestPartitionUnderTinyLLC: the whole build, not only the plan, under the
// configuration in which an atomic block is already too large a tile.
func TestPartitionUnderTinyLLC(t *testing.T) {
	cfg := tinyLLCConfig()
	cfg.Topology = numa.Topology{Sockets: 2, CoresPerSocket: 1}
	rng := rand.New(rand.NewSource(194))
	for _, shape := range [][3]int{{77, 101, 900}, {300, 9, 200}, {5, 5, 3}, {130, 130, 0}} {
		src := mat.RandomCOO(rng, shape[0], shape[1], shape[2])
		got, _, err := Partition(src, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := got.Validate(); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(layoutBytes(t, got), layoutBytes(t, refPartition(t, src, cfg))) {
			t.Errorf("%d×%d: Partition differs from the full-descent reference", shape[0], shape[1])
		}
	}
}

// TestStageCOORowMajorInput: input that is already row-major skips the
// radix sort; it is still only read, and its duplicates still fold in input
// order. An inversion anywhere — here in the last pair — takes the sort.
func TestStageCOORowMajorInput(t *testing.T) {
	rng := rand.New(rand.NewSource(195))
	src := mat.RandomCOO(rng, 300, 200, 4000)
	src.SortRowMajor()
	for i := 0; i < len(src.Ent); i += 9 { // duplicates, zeros and cancelling pairs, still in order
		e := src.Ent[i]
		switch i % 3 {
		case 0:
			e.Val = rng.Float64()
		case 1:
			e.Val = -e.Val
		default:
			src.Ent[i].Val, e.Val = 0, 0
		}
		src.Ent = slices.Insert(src.Ent, i+1, e)
	}
	inverted := src.Clone()
	n := len(inverted.Ent)
	inverted.Ent[n-1], inverted.Ent[n-2] = inverted.Ent[n-2], inverted.Ent[n-1]
	for name, in := range map[string]*mat.COO{"row-major": src, "last pair inverted": inverted} {
		keep := in.Clone()
		got, err := stageCOO(in)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(in.Ent, keep.Ent) {
			t.Fatalf("%s: stageCOO modified its input", name)
		}
		want := in.Clone()
		sort.SliceStable(want.Ent, func(i, j int) bool { return rowMajorLess(want.Ent[i], want.Ent[j]) })
		want.Ent = mat.FoldSorted(want.Ent)
		if err := got.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !slices.Equal(got.ToCOO().Ent, want.Ent) {
			t.Errorf("%s: staged rows differ from the stable sort + fold", name)
		}
	}
}
