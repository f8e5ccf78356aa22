package core

import (
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"atmatrix/internal/density"
	"atmatrix/internal/mat"
)

func TestATMatrixAccessors(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	cfg := testConfig()
	a := mat.RandomCOO(rng, 90, 110, 2000)
	am, _, err := Partition(a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	d := a.ToDense()
	for trial := 0; trial < 500; trial++ {
		r, c := rng.Intn(90), rng.Intn(110)
		if got := am.At(r, c); got != d.At(r, c) {
			t.Fatalf("At(%d,%d) = %g, want %g", r, c, got, d.At(r, c))
		}
	}
	if am.At(-1, 0) != 0 || am.At(0, 200) != 0 {
		t.Fatal("out-of-bounds At should be 0")
	}
	if am.Density() != mat.Density(a.NNZ(), 90, 110) {
		t.Fatal("Density mismatch")
	}
}

func TestATMatrixBandsAlignedAndCovering(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	cfg := testConfig()
	src, err := genHeterogeneous(rng, 160)
	if err != nil {
		t.Fatal(err)
	}
	am, _, err := Partition(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rows := am.RowBands()
	pos := 0
	for _, b := range rows {
		if b.Lo != pos || b.Hi <= b.Lo {
			t.Fatalf("row bands not contiguous at %d: %+v", pos, b)
		}
		pos = b.Hi
	}
	if pos != am.Rows {
		t.Fatalf("row bands cover %d of %d rows", pos, am.Rows)
	}
	cols := am.ColBands()
	pos = 0
	for _, b := range cols {
		if b.Lo != pos {
			t.Fatalf("col bands not contiguous at %d", pos)
		}
		pos = b.Hi
	}
	if pos != am.Cols {
		t.Fatalf("col bands cover %d of %d cols", pos, am.Cols)
	}
	// Every tile in a row band must fully contain the band.
	for _, b := range rows {
		for _, tile := range am.tilesInRowBand(b) {
			if tile.Row0 > b.Lo || tile.Row0+tile.Rows < b.Hi {
				t.Fatalf("tile [%d+%d] does not contain band %+v", tile.Row0, tile.Rows, b)
			}
		}
	}
}

func TestATMatrixDensityMapMatchesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	cfg := testConfig()
	src, err := genHeterogeneous(rng, 128)
	if err != nil {
		t.Fatal(err)
	}
	am, _, err := Partition(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := am.DensityMap()
	want := density.FromCOO(src, cfg.BAtomic)
	if d := density.MaxAbsDiff(got, want); d != 0 {
		t.Fatalf("AT MATRIX density map deviates by %g from exact", d)
	}
	// Cached: same pointer on second call.
	if am.DensityMap() != got {
		t.Fatal("density map not cached")
	}
}

// TestDensityMapAtCached: the coarse maps DensityMapAt caches are, bit for
// bit, the aggregation every multiply used to redo — on every benchmark
// operand, at every grid from 2·b_atomic up to the coarsest one the product
// estimator or the expression planner picks.
func TestDensityMapAtCached(t *testing.T) {
	checkCoarseMaps(t, "R1", "R2", "R3", "R4", "R5", "R6", "R7", "R8", "R9", "G9")
}

// TestConcurrentDensityMapAt: concurrent first callers get one shared map
// (the race detector runs this one).
func TestConcurrentDensityMapAt(t *testing.T) { checkCoarseMaps(t, "R9") }

func checkCoarseMaps(t *testing.T, ids ...string) {
	cfg := benchLayoutConfig()
	for _, id := range ids {
		am, _, err := Partition(benchStandIn(t, id), cfg)
		if err != nil {
			t.Fatal(err)
		}
		fine := am.DensityMap()
		for block := 2 * cfg.BAtomic; cells(am.Rows, am.Cols, block/2) > 1<<12; block *= 2 {
			// The aggregation as MultiplyOpt ran it per call.
			want := density.NewMap(am.Rows, am.Cols, block)
			ratio := block / am.BAtomic
			areas := make([]float64, len(want.Rho))
			for i := 0; i < fine.BR; i++ {
				for j := 0; j < fine.BC; j++ {
					area := float64(fine.CellArea(i, j))
					want.Rho[i/ratio*want.BC+j/ratio] += fine.At(i, j) * area
					areas[i/ratio*want.BC+j/ratio] += area
				}
			}
			for idx := range want.Rho {
				if areas[idx] > 0 {
					want.Rho[idx] /= areas[idx]
				}
			}

			got := make([]*density.Map, 8)
			var wg sync.WaitGroup
			for g := range got {
				wg.Add(1)
				go func() {
					defer wg.Done()
					got[g] = am.DensityMapAt(block)
				}()
			}
			wg.Wait()
			for _, m := range got {
				if m != got[0] {
					t.Fatalf("%s block %d: concurrent callers got different maps", id, block)
				}
			}
			if got[0].BR != want.BR || got[0].BC != want.BC || got[0].Block != block {
				t.Fatalf("%s block %d: grid %d×%d@%d, want %d×%d", id, block, got[0].BR, got[0].BC, got[0].Block, want.BR, want.BC)
			}
			for idx, v := range want.Rho {
				if math.Float64bits(got[0].Rho[idx]) != math.Float64bits(v) {
					t.Fatalf("%s block %d cell %d: cached %g, recomputed %g", id, block, idx, got[0].Rho[idx], v)
				}
			}
		}
	}
}

func TestATMatrixToCOORoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	cfg := testConfig()
	src, err := genHeterogeneous(rng, 96)
	if err != nil {
		t.Fatal(err)
	}
	am, _, err := Partition(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	back := am.ToCOO()
	back.Dedup()
	if !back.ToDense().EqualApprox(src.ToDense(), 0) {
		t.Fatal("ToCOO round trip mismatch")
	}
	csr := am.ToCSR()
	if err := csr.Validate(); err != nil {
		t.Fatal(err)
	}
	if csr.NNZ() != am.NNZ() {
		t.Fatal("ToCSR nnz mismatch")
	}
}

func TestFromCSRAndFromDense(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	csr := mat.RandomCOO(rng, 50, 60, 500).ToCSR()
	am := FromCSR(csr, 8)
	if err := am.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(am.Tiles) != 1 || am.Tiles[0].Kind != mat.Sparse {
		t.Fatal("FromCSR should produce one sparse tile")
	}
	if am.NNZ() != csr.NNZ() {
		t.Fatal("FromCSR nnz mismatch")
	}
	d := mat.RandomDense(rng, 30, 40)
	dm := FromDense(d, 8)
	if err := dm.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(dm.Tiles) != 1 || dm.Tiles[0].Kind != mat.DenseKind {
		t.Fatal("FromDense should produce one dense tile")
	}
	// Empty CSR wraps to an empty AT MATRIX.
	if got := FromCSR(mat.NewCSR(5, 5), 8); len(got.Tiles) != 0 {
		t.Fatal("empty CSR produced tiles")
	}
}

func TestLayoutString(t *testing.T) {
	rng := rand.New(rand.NewSource(76))
	cfg := testConfig()
	src, err := genHeterogeneous(rng, 128)
	if err != nil {
		t.Fatal(err)
	}
	am, _, err := Partition(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := am.LayoutString()
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != am.BR {
		t.Fatalf("layout has %d lines, want %d", len(lines), am.BR)
	}
	if len(lines[0]) != am.BC {
		t.Fatalf("layout line width %d, want %d", len(lines[0]), am.BC)
	}
	if !strings.Contains(s, "#") {
		t.Fatal("layout of a heterogeneous matrix shows no dense tile")
	}
}

func TestTileBytesAccounting(t *testing.T) {
	csr := mat.NewCSR(10, 10)
	sp := &Tile{Rows: 10, Cols: 10, Kind: mat.Sparse, Sp: csr}
	if sp.Bytes() != 0 {
		t.Fatal("empty sparse tile should cost 0 bytes")
	}
	d := &Tile{Rows: 10, Cols: 10, Kind: mat.DenseKind, D: mat.NewDense(10, 10)}
	if d.Bytes() != 800 {
		t.Fatalf("dense tile bytes %d, want 800", d.Bytes())
	}
}

func TestTileValidateCatchesMismatch(t *testing.T) {
	tile := &Tile{Rows: 4, Cols: 4, Kind: mat.DenseKind, D: mat.NewDense(3, 4)}
	if err := tile.Validate(); err == nil {
		t.Fatal("payload shape mismatch accepted")
	}
	tile = &Tile{Rows: 4, Cols: 4, Kind: mat.Sparse, Sp: mat.NewCSR(4, 4), NNZ: 7}
	if err := tile.Validate(); err == nil {
		t.Fatal("nnz cache mismatch accepted")
	}
	tile = &Tile{Rows: 0, Cols: 4, Kind: mat.Sparse, Sp: mat.NewCSR(0, 4)}
	if err := tile.Validate(); err == nil {
		t.Fatal("degenerate tile accepted")
	}
}
