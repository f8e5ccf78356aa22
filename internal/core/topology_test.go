package core

import (
	"math/rand"
	"testing"

	"atmatrix/internal/mat"
)

// Topology-specific partitioning tests: the paper's §II-A2 cites Saad's
// taxonomy of special non-zero patterns (band, diagonal-dominated,
// triangular). The adaptive partitioner must handle all of them
// gracefully — producing few tiles where the structure is homogeneous and
// resolving the heterogeneity where it is not.

func partitionAndVerify(t *testing.T, a *mat.COO, cfg Config) *ATMatrix {
	t.Helper()
	am, _, err := Partition(a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := am.Validate(); err != nil {
		t.Fatal(err)
	}
	if !am.ToDense().EqualApprox(a.ToDense(), 0) {
		t.Fatal("content mismatch")
	}
	return am
}

func TestTopologyPureDiagonal(t *testing.T) {
	cfg := testConfig()
	n := 256
	a := mat.NewCOO(n, n)
	for i := 0; i < n; i++ {
		a.Append(i, i, 1)
	}
	am := partitionAndVerify(t, a, cfg)
	// Every block on the diagonal has ρ = 1/b ≪ ρ0^R; the whole matrix is
	// homogeneous sparse and must stay in very few tiles.
	if len(am.Tiles) > 4 {
		t.Fatalf("pure diagonal split into %d tiles", len(am.Tiles))
	}
	for _, tile := range am.Tiles {
		if tile.Kind != mat.Sparse {
			t.Fatal("diagonal stored dense")
		}
	}
	// The self-product of a diagonal matrix is diagonal.
	c, _, err := Multiply(am, am, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.NNZ() != int64(n) {
		t.Fatalf("diagonal² has %d non-zeros, want %d", c.NNZ(), n)
	}
}

func TestTopologyLowerTriangular(t *testing.T) {
	cfg := testConfig()
	n := 128
	a := mat.NewCOO(n, n)
	rng := rand.New(rand.NewSource(161))
	for r := 0; r < n; r++ {
		for c := 0; c <= r; c++ {
			if rng.Float64() < 0.4 {
				a.Append(r, c, rng.Float64()+0.1)
			}
		}
	}
	a.Dedup()
	am := partitionAndVerify(t, a, cfg)
	// The product of two lower-triangular matrices is lower-triangular.
	c, _, err := Multiply(am, am, cfg)
	if err != nil {
		t.Fatal(err)
	}
	d := c.ToDense()
	for r := 0; r < n; r++ {
		for cc := r + 1; cc < n; cc++ {
			if d.At(r, cc) != 0 {
				t.Fatalf("upper triangle polluted at (%d,%d)", r, cc)
			}
		}
	}
	// The dense lower region and the empty upper region must not share
	// tiles: no tile fully inside the strict upper triangle.
	for i, tile := range am.Tiles {
		if tile.Col0 > tile.Row0+tile.Rows-1 {
			t.Fatalf("tile %d lies in the structurally empty upper triangle", i)
		}
	}
}

func TestTopologyDenseRowStripe(t *testing.T) {
	// A single fully dense row stripe (a hub row block) over an empty
	// matrix: the partitioner must isolate it into dense tiles without
	// touching the empty remainder.
	cfg := testConfig()
	n := 128
	a := mat.NewCOO(n, n)
	for r := 64; r < 72; r++ { // one atomic-block-high stripe (b=8)
		for c := 0; c < n; c++ {
			a.Append(r, c, 1)
		}
	}
	am := partitionAndVerify(t, a, cfg)
	_, dense := am.TileCount()
	if dense == 0 {
		t.Fatal("dense stripe not stored dense")
	}
	for i, tile := range am.Tiles {
		if tile.Row0 < 64 && tile.Row0+tile.Rows > 72 {
			t.Fatalf("tile %d spans beyond the stripe into empty space", i)
		}
	}
}

func TestTopologyCheckerboard(t *testing.T) {
	// Alternating dense/empty atomic blocks — the adversarial case for
	// quadtree melting: nothing above the block level is homogeneous, so
	// the tiling must stay at block granularity for the dense blocks and
	// skip the empty ones.
	cfg := testConfig()
	b := cfg.BAtomic // 8
	nBlocks := 8
	n := b * nBlocks
	a := mat.NewCOO(n, n)
	for br := 0; br < nBlocks; br++ {
		for bc := 0; bc < nBlocks; bc++ {
			if (br+bc)%2 != 0 {
				continue
			}
			for r := br * b; r < (br+1)*b; r++ {
				for c := bc * b; c < (bc+1)*b; c++ {
					a.Append(r, c, 1)
				}
			}
		}
	}
	am := partitionAndVerify(t, a, cfg)
	sp, dense := am.TileCount()
	if sp != 0 {
		t.Fatalf("checkerboard produced %d sparse tiles", sp)
	}
	if dense != nBlocks*nBlocks/2 {
		t.Fatalf("checkerboard produced %d dense tiles, want %d", dense, nBlocks*nBlocks/2)
	}
	for _, tile := range am.Tiles {
		if tile.Rows != b || tile.Cols != b {
			t.Fatalf("checkerboard tile melted to %d×%d", tile.Rows, tile.Cols)
		}
		if tile.Density() != 1 {
			t.Fatalf("checkerboard tile density %g", tile.Density())
		}
	}
}

func TestTopologyWideAspectRatios(t *testing.T) {
	cfg := testConfig()
	rng := rand.New(rand.NewSource(162))
	for _, shape := range [][2]int{{8, 512}, {512, 8}, {1, 300}, {300, 1}} {
		rows, cols := shape[0], shape[1]
		a := mat.RandomCOO(rng, rows, cols, rows*cols/10+1)
		am := partitionAndVerify(t, a, cfg)
		// Multiply with the transpose to exercise both orientations.
		c, _, err := Multiply(am, am.Transpose(cfg), cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := mat.MulReference(a.ToDense(), a.ToDense().Transpose())
		if !c.ToDense().EqualApprox(want, tol) {
			t.Fatalf("%dx%d: A·Aᵀ mismatch", rows, cols)
		}
	}
}
