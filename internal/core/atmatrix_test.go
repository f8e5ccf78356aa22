package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
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
		for _, tile := range am.RowTiles(b.Lo) {
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

// densityMapByCell is DensityMap with each dense tile counted cell by cell,
// one v != 0 test and one block division per cell: the oracle of the
// segment count in countTileBlocks.
func densityMapByCell(a *ATMatrix) *density.Map {
	m := density.NewMap(a.Rows, a.Cols, a.BAtomic)
	cnt := make([]int64, a.BR*a.BC)
	for _, t := range a.Tiles {
		if t.Kind == mat.Sparse {
			countTileBlocks(t, a.BAtomic, a.BC, cnt)
			continue
		}
		for r := 0; r < t.Rows; r++ {
			base := (t.Row0 + r) / a.BAtomic * a.BC
			for c, v := range t.D.RowSlice(r) {
				if v != 0 {
					cnt[base+(t.Col0+c)/a.BAtomic]++
				}
			}
		}
	}
	for i := 0; i < a.BR; i++ {
		for j := 0; j < a.BC; j++ {
			if area := m.CellArea(i, j); area > 0 {
				m.Set(i, j, float64(cnt[i*a.BC+j])/float64(area))
			}
		}
	}
	return m
}

// TestDensityMapDenseTileBlockCounts: the density map counts a dense tile
// a block segment at a time and gets the cell-by-cell map's bits, on dense
// tiles at any Row0/Col0, of any width, with a stride past their width,
// holding ±0, NaN and ±Inf.
func TestDensityMapDenseTileBlockCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	odd := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 1}
	for trial := 0; trial < 300; trial++ {
		b := []int{1, 4, 8, 16, 64}[rng.Intn(5)]
		rows, cols := 1+rng.Intn(200), 1+rng.Intn(200)
		a := &ATMatrix{Rows: rows, Cols: cols, BAtomic: b, BR: (rows + b - 1) / b, BC: (cols + b - 1) / b}
		fill := rng.Intn(101)
		for n := 1 + rng.Intn(4); n > 0; n-- {
			r0, c0 := rng.Intn(rows), rng.Intn(cols)
			h, w := 1+rng.Intn(rows-r0), 1+rng.Intn(cols-c0)
			big := mat.NewDense(h, w+rng.Intn(3))
			for i := range big.Data {
				if rng.Intn(100) < fill {
					big.Data[i] = rng.NormFloat64()
				} else {
					big.Data[i] = odd[rng.Intn(len(odd))]
				}
			}
			d := big.View(0, h, 0, w)
			a.Tiles = append(a.Tiles, &Tile{Row0: r0, Col0: c0, Rows: h, Cols: w, Kind: mat.DenseKind, D: &d})
		}
		got, want := a.DensityMap(), densityMapByCell(a)
		if got.BR != want.BR || got.BC != want.BC || len(got.Rho) != len(want.Rho) {
			t.Fatalf("trial %d: map %dx%d, want %dx%d", trial, got.BR, got.BC, want.BR, want.BC)
		}
		for i := range want.Rho {
			if math.Float64bits(got.Rho[i]) != math.Float64bits(want.Rho[i]) {
				t.Fatalf("trial %d (b %d, %dx%d): cell %d = %v, want %v", trial, b, rows, cols, i, got.Rho[i], want.Rho[i])
			}
		}
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

// TestTileIndexMatchesScan checks the tile index against brute-force scans
// of Tiles on every kind of layout its consumers see: partitioned stand-ins,
// ATMULT results (cut on the operands' band grid), transposes, and
// tile-row shards reassembled with NewFromTiles as the cluster cuts them.
// Each band's tiles must be exactly the tiles covering it, in Tiles order,
// and TileAt must agree with a scan at every atomic block.
func TestTileIndexMatchesScan(t *testing.T) {
	cfg := benchLayoutConfig()
	for _, id := range []string{"R1", "R2", "R3", "R4", "R5", "R6", "R7", "R8", "R9", "G9"} {
		am, _, err := Partition(standIn(t, id), cfg)
		if err != nil {
			t.Fatal(err)
		}
		checkTileIndex(t, id, am)
		checkTileIndex(t, id+"'", am.Transpose(cfg))
		for w := 0; w < 2; w++ {
			var tiles []*Tile
			bands := am.RowBands()
			for i, tile := range am.Tiles {
				for b := w; b < len(bands); b += 2 {
					if tile.Row0 <= bands[b].Lo && bands[b].Hi <= tile.Row0+tile.Rows {
						tiles = append(tiles, am.Tiles[i])
						break
					}
				}
			}
			shard, err := NewFromTiles(am.Rows, am.Cols, am.BAtomic, tiles)
			if err != nil {
				t.Fatal(err)
			}
			checkTileIndex(t, fmt.Sprintf("%s shard %d", id, w), shard)
		}
		if id == "R3" || id == "R7" || id == "G9" {
			c, _, err := Multiply(am, am, cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkTileIndex(t, id+"²", c)
		}
	}
}

func checkTileIndex(t *testing.T, name string, m *ATMatrix) {
	t.Helper()
	x := m.index()
	for _, ax := range []struct {
		axis  string
		x     *bandAxis
		limit int
		span  func(*Tile) (int, int)
	}{{"row", &x.rows, m.Rows, rowSpan}, {"col", &x.cols, m.Cols, colSpan}} {
		cuts := map[int]bool{0: true, ax.limit: true}
		for _, tile := range m.Tiles {
			lo, hi := ax.span(tile)
			cuts[lo], cuts[hi] = true, true
		}
		var edges []int
		for c := range cuts {
			edges = append(edges, c)
		}
		slices.Sort(edges)
		if len(ax.x.bands) != len(edges)-1 {
			t.Fatalf("%s: %d %s bands, want %d", name, len(ax.x.bands), ax.axis, len(edges)-1)
		}
		for i, band := range ax.x.bands {
			if band != (Band{edges[i], edges[i+1]}) {
				t.Fatalf("%s: %s band %d = %+v, want [%d, %d)", name, ax.axis, i, band, edges[i], edges[i+1])
			}
			var ids []int32
			for ti, tile := range m.Tiles {
				lo, hi := ax.span(tile)
				if lo <= band.Lo && band.Hi <= hi {
					ids = append(ids, int32(ti))
				} else if lo < band.Hi && band.Lo < hi {
					t.Fatalf("%s: tile %d straddles %s band %+v", name, ti, ax.axis, band)
				}
			}
			if !slices.Equal(ax.x.idsOf(i), ids) {
				t.Fatalf("%s: %s band %d tiles %v, scan finds %v", name, ax.axis, i, ax.x.idsOf(i), ids)
			}
			for k, tile := range ax.x.tilesOf(i) {
				if tile != m.Tiles[ids[k]] {
					t.Fatalf("%s: %s band %d tile %d is not Tiles[%d]", name, ax.axis, i, k, ids[k])
				}
			}
		}
	}
	layout := strings.Split(m.LayoutString(), "\n")
	for br := 0; br < m.BR; br++ {
		r := br * m.BAtomic
		var inRow []*Tile
		for _, tile := range m.Tiles {
			if tile.Row0 <= r && r < tile.Row0+tile.Rows {
				inRow = append(inRow, tile)
			}
		}
		if !slices.Equal(m.RowTiles(r), inRow) {
			t.Fatalf("%s: RowTiles(%d) differs from a scan of Tiles", name, r)
		}
		for bc := 0; bc < m.BC; bc++ {
			c := bc * m.BAtomic
			var want *Tile
			for _, tile := range inRow {
				if tile.Col0 <= c && c < tile.Col0+tile.Cols {
					want = tile
				}
			}
			if got := m.TileAt(r, c); got != want {
				t.Fatalf("%s: TileAt(%d, %d) = %p, scan finds %p", name, r, c, got, want)
			}
			if ch := layout[br][bc]; (ch == ' ') != (want == nil) || (ch == '#') != (want != nil && want.Kind == mat.DenseKind) {
				t.Fatalf("%s: layout shows %q at block (%d,%d)", name, ch, br, bc)
			}
		}
	}
}

// TestValidateRejectsOverlap: tiles overlapping partly by row, partly by
// column, or one inside the other are rejected; edge-adjacent ones are not.
func TestValidateRejectsOverlap(t *testing.T) {
	tile := func(r0, c0, rows, cols int) *Tile {
		return &Tile{Row0: r0, Col0: c0, Rows: rows, Cols: cols, Kind: mat.Sparse, Sp: mat.NewCSR(rows, cols)}
	}
	for _, tc := range []struct {
		name    string
		second  *Tile
		overlap bool
	}{
		{"partly by row", tile(4, 0, 8, 8), true},
		{"partly by column", tile(0, 4, 8, 8), true},
		{"fully", tile(4, 4, 4, 4), true},
		{"below", tile(8, 0, 8, 8), false},
		{"beside", tile(0, 8, 8, 8), false},
	} {
		_, err := NewFromTiles(16, 16, 4, []*Tile{tile(0, 0, 8, 8), tile(12, 12, 4, 4), tc.second})
		if got := err != nil && strings.Contains(err.Error(), "overlap"); got != tc.overlap {
			t.Errorf("%s: NewFromTiles error %v, want overlap %v", tc.name, err, tc.overlap)
		}
	}
}

// TestTileIndexConcurrentFirstUse: goroutines asking a fresh matrix for its
// index at once all see the one build (the race detector runs this one).
func TestTileIndexConcurrentFirstUse(t *testing.T) {
	cfg := benchLayoutConfig()
	am, _, err := Partition(standIn(t, "G9"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := make([][]Band, 8)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			switch g % 4 {
			case 0:
				am.RowBands()
			case 1:
				am.TileAt(am.Rows-1, am.Cols-1)
			case 2:
				am.ToCSR()
			default:
				am.RowTiles(g)
			}
			got[g] = am.RowBands()
		}()
	}
	wg.Wait()
	for _, bands := range got {
		if &bands[0] != &got[0][0] {
			t.Fatal("concurrent first users got different indexes")
		}
	}
	checkTileIndex(t, "G9", am)
}

// TestDensityMapScaledToZero: a matrix scaled to zero keeps its sparse
// tiles' entries and its dense tiles' cells, every one a stored zero, so
// its density map is zero everywhere — for the sparse tiles too.
func TestDensityMapScaledToZero(t *testing.T) {
	cfg := testConfig()
	src, err := genHeterogeneous(rand.New(rand.NewSource(80)), 150)
	if err != nil {
		t.Fatal(err)
	}
	am, _, err := Partition(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sp, dn := am.TileCount(); sp == 0 || dn == 0 {
		t.Fatalf("%d sparse and %d dense tiles; both kinds are needed", sp, dn)
	}
	am.Scale(0)
	for i, rho := range am.DensityMap().Rho {
		if rho != 0 {
			t.Fatalf("cell %d of a scaled-to-zero matrix has density %g", i, rho)
		}
	}
}
