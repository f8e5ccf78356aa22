package core

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"atmatrix/internal/mat"
)

func TestPartitionPaperFig3(t *testing.T) {
	// The schematic example of Fig. 3: a sparse 7×8 matrix with a 2×2
	// block granularity.
	cfg := testConfig()
	cfg.BAtomic = 2
	a := mat.NewCOO(7, 8)
	rng := rand.New(rand.NewSource(1))
	// A dense cluster in the upper-left 4×4 and scattered elements.
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			a.Append(r, c, 1)
		}
	}
	a.Append(6, 7, 1)
	a.Append(5, 1, 1)
	_ = rng
	am, stats, err := Partition(a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := am.Validate(); err != nil {
		t.Fatal(err)
	}
	if am.NNZ() != a.NNZ() {
		t.Fatalf("nnz %d, want %d", am.NNZ(), a.NNZ())
	}
	if !am.ToDense().EqualApprox(a.ToDense(), 0) {
		t.Fatal("partitioned content differs from source")
	}
	// The dense 4×4 cluster must be a dense tile.
	tile := am.TileAt(1, 1)
	if tile == nil || tile.Kind != mat.DenseKind {
		t.Fatalf("upper-left cluster tile = %+v, want dense", tile)
	}
	if stats.Total() <= 0 {
		t.Fatal("partition stats not recorded")
	}
}

func TestPartitionRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	cfg := testConfig()
	for trial := 0; trial < 12; trial++ {
		rows := 1 + rng.Intn(200)
		cols := 1 + rng.Intn(200)
		nnz := rng.Intn(rows*cols/2 + 1)
		a := mat.RandomCOO(rng, rows, cols, nnz)
		am, _, err := Partition(a, cfg)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := am.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if am.NNZ() != a.NNZ() {
			t.Fatalf("trial %d: nnz %d, want %d", trial, am.NNZ(), a.NNZ())
		}
		if !am.ToDense().EqualApprox(a.ToDense(), 0) {
			t.Fatalf("trial %d: content mismatch", trial)
		}
	}

	// Duplicates, cancellation and explicit zeros: a staging table carrying
	// duplicate coordinates, a pair summing to exactly 0 and an explicit
	// zero partitions tile for tile like its deduplicated form, under both
	// partitioners, and is itself left bit-unchanged.
	for trial := 0; trial < 6; trial++ {
		rows, cols := 40+rng.Intn(200), 40+rng.Intn(200)
		clean := mat.RandomCOO(rng, rows, cols, rows*cols/8)
		// Keep two cells free for the entries that must vanish.
		clean.Ent = slices.DeleteFunc(clean.Ent, func(e mat.Entry) bool { return e.Row == 0 && e.Col <= 1 })
		dirty := clean.Clone()
		for i := 0; i < len(clean.Ent); i += 3 {
			// Split an entry in two: halves of a float64 sum back exactly.
			e := clean.Ent[i]
			dirty.Ent[i].Val = e.Val / 2
			dirty.Append(int(e.Row), int(e.Col), e.Val/2)
		}
		dirty.Append(0, 0, 2.5)
		dirty.Append(0, 0, -2.5)
		dirty.Append(0, 1, 0)
		rng.Shuffle(len(dirty.Ent), func(i, j int) { dirty.Ent[i], dirty.Ent[j] = dirty.Ent[j], dirty.Ent[i] })
		before := dirty.Clone()

		want, _, err := Partition(clean, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := Partition(dirty, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Tiles, want.Tiles) {
			t.Fatalf("dedup trial %d: Partition of the duplicated table differs from its deduplicated form", trial)
		}
		wantFixed, _, err := PartitionFixed(clean, cfg, true)
		if err != nil {
			t.Fatal(err)
		}
		gotFixed, _, err := PartitionFixed(dirty, cfg, true)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotFixed.Tiles, wantFixed.Tiles) {
			t.Fatalf("dedup trial %d: PartitionFixed of the duplicated table differs from its deduplicated form", trial)
		}
		if !reflect.DeepEqual(dirty, before) {
			t.Fatalf("dedup trial %d: partitioning modified its input", trial)
		}
	}

	// The phase timers account for the whole call: nothing substantial
	// (a clone, a second sort) may run outside them.
	big := mat.RandomCOO(rng, 4000, 4000, 300000)
	rng.Shuffle(len(big.Ent), func(i, j int) { big.Ent[i], big.Ent[j] = big.Ent[j], big.Ent[i] })
	t0 := time.Now()
	_, stats, err := Partition(big, cfg)
	wall := time.Since(t0)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Total() < wall*9/10 {
		t.Fatalf("PartitionStats.Total() = %v covers less than 90%% of the %v the call took", stats.Total(), wall)
	}
}

func TestPartitionTileInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cfg := testConfig()
	a := mat.RandomCOO(rng, 300, 300, 9000)
	// Add a dense block to force heterogeneity.
	for r := 64; r < 128; r++ {
		for c := 64; c < 128; c++ {
			a.Append(r, c, 1)
		}
	}
	a.Dedup()
	am, _, err := Partition(a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := am.Validate(); err != nil {
		t.Fatal(err)
	}
	for i, tile := range am.Tiles {
		if tile.NNZ == 0 {
			t.Fatalf("tile %d is empty; empty regions must not materialize", i)
		}
		dim := tile.Rows
		if tile.Cols > dim {
			dim = tile.Cols
		}
		if tile.Kind == mat.DenseKind {
			// A dense tile larger than one atomic block must respect Eq. 1.
			if dim > cfg.BAtomic && dim > cfg.MaxDenseTileDim() {
				t.Fatalf("tile %d: dense dim %d exceeds τ^d_max %d", i, dim, cfg.MaxDenseTileDim())
			}
			if tile.Density() < cfg.RhoRead {
				t.Fatalf("tile %d: dense tile with ρ=%g < ρ0^R", i, tile.Density())
			}
		} else {
			if dim > cfg.BAtomic && dim > cfg.MaxSparseTileDim(tile.Density()) {
				t.Fatalf("tile %d: sparse dim %d exceeds τ^sp_max %d", i, dim, cfg.MaxSparseTileDim(tile.Density()))
			}
			// A merged (multi-block) sparse tile must be below ρ0^R;
			// single atomic blocks are classified directly.
			if tile.Density() >= cfg.RhoRead {
				t.Fatalf("tile %d: sparse tile with ρ=%g ≥ ρ0^R", i, tile.Density())
			}
		}
		// Power-of-two sizing except at matrix edges.
		if tile.Row0+tile.Rows != am.Rows && tile.Rows&(tile.Rows-1) != 0 {
			t.Fatalf("tile %d: interior height %d not a power of two multiple", i, tile.Rows)
		}
	}
}

func TestPartitionDenseRegionDetection(t *testing.T) {
	cfg := testConfig()
	a := mat.NewCOO(64, 64)
	// Fully dense 16×16 block at (16,16) — block-aligned.
	for r := 16; r < 32; r++ {
		for c := 16; c < 32; c++ {
			a.Append(r, c, 1)
		}
	}
	// Sparse background elsewhere.
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 80; i++ {
		a.Append(rng.Intn(16), rng.Intn(64), 1)
	}
	a.Dedup()
	am, _, err := Partition(a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tile := am.TileAt(20, 20)
	if tile == nil || tile.Kind != mat.DenseKind {
		t.Fatalf("dense region stored as %+v", tile)
	}
	sp, d := am.TileCount()
	if d == 0 || sp == 0 {
		t.Fatalf("expected heterogeneous tiling, got %d sparse / %d dense", sp, d)
	}
}

// TestHypersparseSingleTile reproduces the §II-B2 claim: a large uniform
// hypersparse matrix is not split at all.
func TestHypersparseSingleTile(t *testing.T) {
	cfg := testConfig()
	cfg.BAtomic = 8
	// Dimension bound: LLC/(β·S_d) = 98304/24 = 4096 ≥ 2048; memory
	// bound at the resulting density is far above the dimension too.
	rng := rand.New(rand.NewSource(5))
	a := mat.RandomCOO(rng, 2048, 2048, 400) // ρ ≈ 1e-4
	am, _, err := Partition(a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(am.Tiles) != 1 {
		t.Fatalf("hypersparse matrix split into %d tiles, want 1", len(am.Tiles))
	}
	if am.Tiles[0].Kind != mat.Sparse {
		t.Fatal("hypersparse tile not sparse")
	}
}

// TestHypersparseSplitsWhenMemoryBoundHit: raising the density until the
// Eq. 2 memory bound bites must split the matrix.
func TestHypersparseSplitsWhenMemoryBoundHit(t *testing.T) {
	cfg := testConfig()
	cfg.BAtomic = 8
	rng := rand.New(rand.NewSource(6))
	// ρ = 0.05 on 1024² gives τ^sp_max = √(98304/(3·0.05·16)) ≈ 202 < 1024.
	a := mat.RandomCOO(rng, 1024, 1024, 52000)
	am, _, err := Partition(a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(am.Tiles) < 4 {
		t.Fatalf("matrix above the memory bound kept %d tiles", len(am.Tiles))
	}
}

func TestPartitionGranularityTradeoff(t *testing.T) {
	// Fig. 2a/2b: a finer granularity (smaller k) resolves the
	// heterogeneous substructure more precisely. Place the dense blob at
	// an offset that is not aligned with the coarse block grid, so the
	// coarse partitioning must over-approximate the dense region.
	rng := rand.New(rand.NewSource(7))
	n := 256
	src := mat.NewCOO(n, n)
	for r := 8; r < 72; r++ {
		for c := 8; c < 72; c++ {
			src.Append(r, c, rng.Float64()+0.1)
		}
	}
	for i := 0; i < n*n/200; i++ {
		src.Append(rng.Intn(n), rng.Intn(n), rng.Float64())
	}
	src.Dedup()

	coarse := testConfig()
	coarse.BAtomic = 32
	fine := testConfig()
	fine.BAtomic = 4
	amC, _, err := Partition(src, coarse)
	if err != nil {
		t.Fatal(err)
	}
	amF, _, err := Partition(src, fine)
	if err != nil {
		t.Fatal(err)
	}
	denseArea := func(am *ATMatrix) int64 {
		var a int64
		for _, tile := range am.Tiles {
			if tile.Kind == mat.DenseKind {
				a += int64(tile.Rows) * int64(tile.Cols)
			}
		}
		return a
	}
	if denseArea(amF) >= denseArea(amC) {
		t.Fatalf("finer granularity dense area %d not below coarse %d", denseArea(amF), denseArea(amC))
	}
	if len(amF.Tiles) <= len(amC.Tiles) {
		t.Fatalf("finer granularity produced %d tiles vs %d coarse", len(amF.Tiles), len(amC.Tiles))
	}
	if !amF.ToDense().EqualApprox(amC.ToDense(), 0) {
		t.Fatal("granularity changed the content")
	}
}

// genHeterogeneous builds a matrix with dense blobs over a sparse
// background for partitioning tests.
func genHeterogeneous(rng *rand.Rand, n int) (*mat.COO, error) {
	a := mat.NewCOO(n, n)
	for r := 0; r < n/4; r++ {
		for c := 0; c < n/4; c++ {
			a.Append(r, c, rng.Float64()+0.1)
		}
	}
	for i := 0; i < n*n/100; i++ {
		a.Append(rng.Intn(n), rng.Intn(n), rng.Float64())
	}
	a.Dedup()
	return a, nil
}

func TestPartitionEmptyMatrix(t *testing.T) {
	cfg := testConfig()
	am, _, err := Partition(mat.NewCOO(50, 50), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(am.Tiles) != 0 || am.NNZ() != 0 {
		t.Fatal("empty matrix produced tiles")
	}
	if err := am.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionRejectsBadInput(t *testing.T) {
	cfg := testConfig()
	bad := mat.NewCOO(4, 4)
	bad.Append(9, 0, 1)
	if _, _, err := Partition(bad, cfg); err == nil {
		t.Fatal("out-of-bounds entry accepted")
	}
	badCfg := cfg
	badCfg.BAtomic = 3
	if _, _, err := Partition(mat.NewCOO(4, 4), badCfg); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestPartitionFixedGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	cfg := testConfig()
	cfg.BAtomic = 16
	src, err := genHeterogeneous(rng, 128)
	if err != nil {
		t.Fatal(err)
	}
	am, _, err := PartitionFixed(src, cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := am.Validate(); err != nil {
		t.Fatal(err)
	}
	for i, tile := range am.Tiles {
		if tile.Kind != mat.Sparse {
			t.Fatalf("tile %d not sparse in sparse-only fixed grid", i)
		}
		if tile.Rows > 16 || tile.Cols > 16 {
			t.Fatalf("tile %d exceeds fixed grid size", i)
		}
	}
	if !am.ToDense().EqualApprox(src.ToDense(), 0) {
		t.Fatal("fixed partitioning lost content")
	}

	mixed, _, err := PartitionFixed(src, cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := mixed.Validate(); err != nil {
		t.Fatal(err)
	}
	_, denseCount := mixed.TileCount()
	if denseCount == 0 {
		t.Fatal("mixed fixed grid stored no dense tiles for a matrix with a dense corner")
	}
}

func TestPartitionNonSquare(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	cfg := testConfig()
	a := mat.RandomCOO(rng, 130, 70, 1500)
	am, _, err := Partition(a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := am.Validate(); err != nil {
		t.Fatal(err)
	}
	if !am.ToDense().EqualApprox(a.ToDense(), 0) {
		t.Fatal("non-square content mismatch")
	}
	// No tile may extend past the (unpadded) matrix bounds even though
	// the Z-space is padded to 256².
	for i, tile := range am.Tiles {
		if tile.Row0+tile.Rows > 130 || tile.Col0+tile.Cols > 70 {
			t.Fatalf("tile %d leaks into the Z-padding", i)
		}
	}
}

func TestPartitionDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	cfg := testConfig()
	a := mat.RandomCOO(rng, 100, 100, 2000)
	m1, _, err := Partition(a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m2, _, err := Partition(a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(m1.Tiles) != len(m2.Tiles) {
		t.Fatal("partitioning not deterministic")
	}
	for i := range m1.Tiles {
		a, b := m1.Tiles[i], m2.Tiles[i]
		if a.Row0 != b.Row0 || a.Col0 != b.Col0 || a.Rows != b.Rows || a.Cols != b.Cols || a.Kind != b.Kind {
			t.Fatalf("tile %d differs between runs", i)
		}
	}
}

// TestMemoryWorstCase reproduces the §II-C3 memory bound: when all tiles
// have densities slightly above ρ0^R the whole matrix is stored dense,
// consuming S_d/(ρ0^R·S_sp) ≈ 2× the sparse representation — the worst
// case — while never exceeding a plain dense array.
func TestMemoryWorstCase(t *testing.T) {
	cfg := testConfig() // ρ0^R = 0.25
	n := 64
	a := mat.NewCOO(n, n)
	// Deterministic ρ = 2/7 ≈ 0.286, with every 8×8 atomic block at
	// ρ ≥ 0.25 (any 8 consecutive residues mod 7 hit {0,1} at least
	// twice per row).
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			if (r*n+c)%7 < 2 {
				a.Append(r, c, 1)
			}
		}
	}
	a.Dedup()
	am, _, err := Partition(a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, tile := range am.Tiles {
		if tile.Kind != mat.Sparse {
			continue
		}
		t.Fatalf("tile %d stored sparse at ρ=%g", i, tile.Density())
	}
	sparseBytes := mat.SparseBytes(a.NNZ())
	ratio := float64(am.Bytes()) / float64(sparseBytes)
	// S_d/(ρ·S_sp) = 8/(0.278·16) ≈ 1.8; must stay below the 2× worst
	// case of the paper's configuration and above 1 (it IS paying for
	// density).
	if ratio < 1.2 || ratio > 2.05 {
		t.Fatalf("worst-case memory ratio %.2f, want ≈1.75 (≤2×)", ratio)
	}
	if am.Bytes() > mat.DenseBytes(n, n) {
		t.Fatal("AT MATRIX exceeded the plain dense footprint")
	}
}
