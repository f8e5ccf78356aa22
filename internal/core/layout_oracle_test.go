package core

import (
	"bytes"
	"cmp"
	"io"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"atmatrix/internal/gen"
	"atmatrix/internal/mat"
	"atmatrix/internal/morton"
	"atmatrix/internal/numa"
	"atmatrix/internal/rmat"
)

// This file is the oracle for the layout builders: every route that ends
// in an AT MATRIX (Partition, PartitionFixed, Repartition, Add) must
// serialize to the bytes the Z-sorting pipeline of §II-C produced for the
// same entries. The golden digests were recorded from that pipeline; the
// property tests compare against refPartition, a test-local rebuild of it.

// benchLayoutConfig is the benchmark server's configuration (-paper
// -b-atomic 64 -sockets 2 -cores 1): every field pinned, none detected.
func benchLayoutConfig() Config {
	cfg := PaperConfig()
	cfg.BAtomic = 64
	cfg.Topology = numa.Topology{Sockets: 2, CoresPerSocket: 1}
	return cfg
}

// standIn generates the Table I stand-in id at 1/32 with atload's seed
// rule for seed 1.
func standIn(t testing.TB, id string) *mat.COO {
	t.Helper()
	s, err := gen.Lookup(id)
	if err != nil {
		t.Fatal(err)
	}
	s.Seed += 1000
	coo, err := s.Generate(1.0 / 32)
	if err != nil {
		t.Fatal(err)
	}
	return coo
}

// layoutDigest is the CRC-32C of the serialized matrix up to its own
// CRC footer, which is the footer itself (over the footer too it would be
// the same constant residue for every stream).
func layoutDigest(t testing.TB, m *ATMatrix) uint32 {
	t.Helper()
	_, crc, err := m.Encode(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	return crc
}

func layoutBytes(t testing.TB, m *ATMatrix) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// reversed returns the entries back to front.
func reversed(src *mat.COO) *mat.COO {
	out := src.Clone()
	for i, j := 0, len(out.Ent)-1; i < j; i, j = i+1, j-1 {
		out.Ent[i], out.Ent[j] = out.Ent[j], out.Ent[i]
	}
	return out
}

// withDuplicates repeats every twentieth coordinate with a fresh value and
// shuffles the table, so the fold has to sum runs in input order.
func withDuplicates(src *mat.COO, seed int64) *mat.COO {
	rng := rand.New(rand.NewSource(seed))
	out := src.Clone()
	for i := 0; i < len(src.Ent); i += 20 {
		e := src.Ent[i]
		e.Val = rng.Float64() - 0.5
		out.Ent = append(out.Ent, e)
	}
	rng.Shuffle(len(out.Ent), func(i, j int) { out.Ent[i], out.Ent[j] = out.Ent[j], out.Ent[i] })
	return out
}

// goldenDigests holds CRC-32C(WriteTo) per case, recorded from the
// Z-sorting pipeline at the commit before the row-major staging replaced
// it. They are not to be edited: a mismatch means the layout changed.
var goldenDigests = map[string]uint32{
	"R1/sorted": 0x16240920, "R1/reversed": 0x16240920, "R1/duplicates": 0x814f5567,
	"R2/sorted": 0x1de13620, "R2/reversed": 0x1de13620, "R2/duplicates": 0x71860b51,
	"R3/sorted": 0x1f72ebd6, "R3/reversed": 0x1f72ebd6, "R3/duplicates": 0x25eb13c2, "R3/fixed-mixed": 0x15475308,
	"R4/sorted": 0x53315e8c, "R4/reversed": 0x53315e8c, "R4/duplicates": 0x92c5899f,
	"R5/sorted": 0x9265394a, "R5/reversed": 0x9265394a, "R5/duplicates": 0xdba4ef7d,
	"R6/sorted": 0xb4f43784, "R6/reversed": 0xb4f43784, "R6/duplicates": 0x2892f878,
	"R7/sorted": 0x35334c37, "R7/reversed": 0x35334c37, "R7/duplicates": 0x23c2aec5,
	"R8/sorted": 0x6b0a82ee, "R8/reversed": 0x6b0a82ee, "R8/duplicates": 0x7a4afd49, "R8/fixed-sparse": 0x068e1753,
	"R9/sorted": 0x9d57d185, "R9/reversed": 0x9d57d185, "R9/duplicates": 0x3462dbc3,
	"G9/sorted": 0x67b041ed, "G9/reversed": 0x67b041ed, "G9/duplicates": 0xbadbf97c,
}

func TestGoldenLayoutDigests(t *testing.T) {
	cfg := benchLayoutConfig()
	check := func(name string, m *ATMatrix, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := layoutDigest(t, m)
		if want, ok := goldenDigests[name]; !ok || got != want {
			t.Errorf("\t%q: 0x%08x, // golden 0x%08x", name, got, want)
		}
	}
	for _, id := range []string{"R1", "R2", "R3", "R4", "R5", "R6", "R7", "R8", "R9", "G9"} {
		src := standIn(t, id)
		m, _, err := Partition(src, cfg)
		check(id+"/sorted", m, err)
		m, _, err = Partition(reversed(src), cfg)
		check(id+"/reversed", m, err)
		m, _, err = Partition(withDuplicates(src, 7), cfg)
		check(id+"/duplicates", m, err)
		switch id {
		case "R3":
			m, _, err = PartitionFixed(withDuplicates(src, 7), cfg, true)
			check(id+"/fixed-mixed", m, err)
		case "R8":
			m, _, err = PartitionFixed(reversed(src), cfg, false)
			check(id+"/fixed-sparse", m, err)
		}
	}
}

// refPartition rebuilds the layout the Z-sorting pipeline gives src: the
// deduplicated table is counted per atomic block in Z-order, the full
// quadtree descent (refPlanner) plans the tiles, and each tile is filled
// from the entries inside its bounding box.
func refPartition(t testing.TB, src *mat.COO, cfg Config) *ATMatrix {
	t.Helper()
	// Dedup, with a sort that does not go through reflection (the race
	// detector makes sort.Slice the slowest thing in the package).
	c := src.Clone()
	slices.SortFunc(c.Ent, func(x, y mat.Entry) int { return cmp.Or(cmp.Compare(x.Row, y.Row), cmp.Compare(x.Col, y.Col)) })
	c.Ent = mat.FoldSorted(c.Ent)
	b := cfg.BAtomic
	grid := morton.SideLen(c.Rows, c.Cols) / b
	if grid < 1 {
		grid = 1
	}
	cnts := make([]int64, grid*grid)
	for _, e := range c.Ent {
		cnts[morton.Encode(uint32(int(e.Row)/b), uint32(int(e.Col)/b))]++
	}
	p := newRefPlanner(cfg, c.Rows, c.Cols, cnts)
	for _, bx := range p.quadtree() {
		r0, c0, h, w := bx.r0, bx.c0, bx.h, bx.w
		lo := sort.Search(len(c.Ent), func(i int) bool { return int(c.Ent[i].Row) >= r0 })
		hi := sort.Search(len(c.Ent), func(i int) bool { return int(c.Ent[i].Row) >= r0+h })
		tile := &Tile{Row0: r0, Col0: c0, Rows: h, Cols: w, NNZ: bx.nnz, Home: cfg.HomeOfRow(r0), Kind: bx.kind}
		if tile.Kind == mat.DenseKind {
			tile.D = mat.NewDense(h, w)
		} else {
			tile.Sp = mat.NewCSR(h, w)
		}
		var n int64
		for _, e := range c.Ent[lo:hi] {
			if int(e.Col) < c0 || int(e.Col) >= c0+w {
				continue
			}
			n++
			if tile.Kind == mat.DenseKind {
				tile.D.Set(int(e.Row)-r0, int(e.Col)-c0, e.Val)
				continue
			}
			tile.Sp.RowPtr[int(e.Row)-r0+1]++
			tile.Sp.ColIdx = append(tile.Sp.ColIdx, e.Col-int32(c0))
			tile.Sp.Val = append(tile.Sp.Val, e.Val)
		}
		if n != bx.nnz {
			t.Fatalf("reference: tile (%d,%d) holds %d entries, counts say %d", r0, c0, n, bx.nnz)
		}
		if tile.Kind == mat.Sparse {
			for r := 0; r < h; r++ {
				tile.Sp.RowPtr[r+1] += tile.Sp.RowPtr[r]
			}
		}
		p.out.Tiles = append(p.out.Tiles, tile)
	}
	return p.out
}

// layoutTopologies are the three socket×core shapes the byte identities
// are checked at.
var layoutTopologies = []numa.Topology{
	{Sockets: 1, CoresPerSocket: 1},
	{Sockets: 2, CoresPerSocket: 1},
	{Sockets: 2, CoresPerSocket: 2},
}

type layoutCase struct {
	name string
	m    *ATMatrix
}

// layoutCases builds the operands of the Repartition and Add properties
// under cfg: partitioned inputs, band-grid products, transposes, ragged
// edges, degenerate shapes, empty matrices and stored zeros.
func layoutCases(t *testing.T, cfg Config) []layoutCase {
	t.Helper()
	part := func(src *mat.COO, c Config) *ATMatrix {
		m, _, err := Partition(src, c)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	mul := func(a, b *ATMatrix) *ATMatrix {
		m, _, err := Multiply(a, b, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	rng := rand.New(rand.NewSource(191))
	var cases []layoutCase
	add := func(name string, m *ATMatrix) { cases = append(cases, layoutCase{name, m}) }

	g3, err := rmat.Generate(200, 3000, rmat.Params{A: 0.45, B: 0.18, C: 0.18, D: 0.19}, 11)
	if err != nil {
		t.Fatal(err)
	}
	g9, err := rmat.Generate(256, 6000, rmat.Params{A: 0.73, B: 0.09, C: 0.09, D: 0.09}, 12)
	if err != nil {
		t.Fatal(err)
	}
	het, err := genHeterogeneous(rng, 150)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := gen.Generate(gen.GeneExpr, 90, 3900, 13) // TP-like: the square is dense
	if err != nil {
		t.Fatal(err)
	}
	r3, err := gen.Generate(gen.PowerNetwork, 300, 2000, 14) // mixed product
	if err != nil {
		t.Fatal(err)
	}
	r8, err := gen.Generate(gen.Structural, 400, 1600, 15) // hypersparse
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range []struct {
		name string
		src  *mat.COO
	}{{"g3", g3}, {"g9", g9}, {"het", het}, {"r2", r2}, {"r3", r3}, {"r8", r8}} {
		name, m := in.name, part(in.src, cfg)
		add(name, m)
		add(name+"²", mul(m, m))
		add(name+"ᵀ", m.Transpose(cfg))
	}
	add("g3·g9 ragged", mul(part(mat.RandomCOO(rng, 77, 200, 2500), cfg), part(g3, cfg)))
	add("ragged 77×101", part(mat.RandomCOO(rng, 77, 101, 1800), cfg))
	add("1×n", part(mat.RandomCOO(rng, 1, 130, 60), cfg))
	add("n×1", part(mat.RandomCOO(rng, 130, 1, 60), cfg))
	add("1×1", part(mat.RandomCOO(rng, 1, 1, 1), cfg))
	add("all-zero", part(mat.NewCOO(60, 45), cfg))

	// Stored zeros: a scaled-to-zero copy keeps its sparse tiles' structure
	// and its dense tiles' cells, all of value 0.
	zeroed := part(het, cfg)
	zeroed.Scale(0)
	add("scale(0)", zeroed)
	half := part(het, cfg)
	for i, tile := range half.Tiles {
		if i%2 == 0 && tile.Kind == mat.Sparse {
			tile.Sp.Scale(0)
		}
	}
	add("half zeroed", half)
	cancel, err := Add(part(het, cfg), part(het, cfg), 1, -1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	add("a-a", cancel)

	// A layout cut at a foreign granularity (what catalog.Load may see).
	coarse := cfg
	coarse.BAtomic = 4 * cfg.BAtomic
	add("foreign b_atomic", part(het, coarse))
	add("plain CSR", FromCSR(g3.ToCSR(), cfg.BAtomic))

	// Special values, poked into the tiles after the fact: a dense tile may
	// hold NaN, ±Inf, −0 and subnormals, a sparse one a stored −0 and a NaN.
	// Only v != 0 is an entry, whatever the tile kind.
	odd := rand.New(rand.NewSource(194))
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 5e-324, -2.5e-310, math.Copysign(0, -1)}
	denseOdd := mul(part(r2, cfg), part(r2, cfg))
	for _, tile := range denseOdd.Tiles {
		if tile.Kind == mat.DenseKind {
			for _, v := range specials {
				tile.D.Data[odd.Intn(len(tile.D.Data))] = v
			}
		}
	}
	add("dense specials", mustHaveKinds(t, denseOdd, false, true))
	sparseOdd := part(g3, cfg)
	for _, tile := range sparseOdd.Tiles {
		if n := int(tile.NNZ); tile.Kind == mat.Sparse && n >= 2 {
			tile.Sp.Val[odd.Intn(n/2)] = math.Copysign(0, -1)
			tile.Sp.Val[n/2+odd.Intn(n-n/2)] = math.NaN()
		}
	}
	add("sparse specials", mustHaveKinds(t, sparseOdd, true, false))
	// Tiles of both kinds at a finer b_atomic than cfg's: band edges fall
	// inside cfg's block rows.
	fine := cfg
	fine.BAtomic = max(1, cfg.BAtomic/2)
	hetFine := part(het, fine)
	mixedFine, _, err := Multiply(hetFine, hetFine, fine)
	if err != nil {
		t.Fatal(err)
	}
	add("foreign b_atomic, mixed", mustHaveKinds(t, hetFine, true, true))
	add("foreign b_atomic, mixed²", mustHaveKinds(t, mixedFine, true, true))
	return cases
}

// mustHaveKinds returns m, failing unless it holds a sparse tile (when
// sparse) and a dense one (when dense): a case built to cover a tile kind
// must hold one.
func mustHaveKinds(t *testing.T, m *ATMatrix, sparse, dense bool) *ATMatrix {
	t.Helper()
	sp, dn := m.TileCount()
	if sparse && sp == 0 || dense && dn == 0 {
		t.Fatalf("the case holds %d sparse and %d dense tiles; a kind it should cover is missing", sp, dn)
	}
	return m
}

func TestRepartitionMatchesOldRoute(t *testing.T) {
	for _, topo := range layoutTopologies {
		cfg := testConfig()
		cfg.Topology = topo
		for _, c := range layoutCases(t, cfg) {
			got, _, err := c.m.Repartition(cfg)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if err := got.Validate(); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			want := refPartition(t, c.m.ToCOO(), cfg)
			if !bytes.Equal(layoutBytes(t, got), layoutBytes(t, want)) {
				t.Errorf("%dx%d %s: Repartition differs from Partition(ToCOO())", topo.Sockets, topo.CoresPerSocket, c.name)
			}
		}
	}
}

// TestRepartitionAdoptsOneTileStage: when the plan is one sparse tile over
// the whole matrix, Partition's tile is its stage itself and Repartition's
// is cut from the source's tiles into slices of exactly its count.
// Repartition is a deep copy — scaling the copy leaves the source's bytes
// as they were — and both tiles' slices are exactly sized, so a tile holds
// the SparseBytes(NNZ) the catalog accounts for it.
func TestRepartitionAdoptsOneTileStage(t *testing.T) {
	cfg := benchLayoutConfig()
	src, _, err := Partition(standIn(t, "R9"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cp, _, err := src.Repartition(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for name, m := range map[string]*ATMatrix{"Partition": src, "Repartition": cp} {
		if len(m.Tiles) != 1 || m.Tiles[0].Kind != mat.Sparse || m.Tiles[0].Rows != m.Rows || m.Tiles[0].Cols != m.Cols {
			t.Fatalf("%s: %d tiles, not one sparse tile over the matrix; the case is not covered", name, len(m.Tiles))
		}
		sp := m.Tiles[0].Sp
		if cap(sp.RowPtr) != len(sp.RowPtr) || cap(sp.ColIdx) != len(sp.ColIdx) || cap(sp.Val) != len(sp.Val) {
			t.Errorf("%s: tile slices hold (%d, %d, %d) of capacity (%d, %d, %d)", name,
				len(sp.RowPtr), len(sp.ColIdx), len(sp.Val), cap(sp.RowPtr), cap(sp.ColIdx), cap(sp.Val))
		}
	}
	want := layoutDigest(t, src)
	if got := layoutDigest(t, cp); got != want {
		t.Fatalf("the copy's digest 0x%08x, the source's 0x%08x", got, want)
	}
	cp.Scale(2)
	cp.Tiles[0].Sp.ColIdx[0]++
	if got := layoutDigest(t, src); got != want {
		t.Errorf("writing into the copy moved the source's digest 0x%08x → 0x%08x", want, got)
	}
}

// TestTileBlockCountsMatchStage: Repartition's counts, read from the tiles,
// are the list zBlockCounts keeps of the staged route — the source's rows
// gathered into one CSR — entry for entry.
func TestTileBlockCountsMatchStage(t *testing.T) {
	for _, topo := range layoutTopologies {
		cfg := testConfig()
		cfg.Topology = topo
		for _, c := range layoutCases(t, cfg) {
			s, err := stageRows(nil, cfg, 0, c.m.Rows, c.m.Cols, c.m, c.m.rowGatherer())
			if err != nil {
				t.Fatal(err)
			}
			got, want := c.m.tileLayout().blockCounts(cfg.BAtomic), zBlockCounts(s, cfg.BAtomic)
			if !slices.Equal(got, want) {
				t.Errorf("%dx%d %s: the tiles count %d blocks, the stage %d (first %v, %v)", topo.Sockets, topo.CoresPerSocket,
					c.name, len(got), len(want), got[:min(len(got), 3)], want[:min(len(want), 3)])
			}
		}
	}
}

// refAdd is α·a + β·b by the merged, deduplicated staging table.
func refAdd(t testing.TB, a, b *ATMatrix, alpha, beta float64, cfg Config) *ATMatrix {
	merged := mat.NewCOO(a.Rows, a.Cols)
	for _, op := range []struct {
		m *ATMatrix
		w float64
	}{{a, alpha}, {b, beta}} {
		if op.w == 0 {
			continue
		}
		for _, e := range op.m.ToCOO().Ent {
			merged.Append(int(e.Row), int(e.Col), op.w*e.Val)
		}
	}
	return refPartition(t, merged, cfg) // which deduplicates
}

func TestAddMatchesOldRoute(t *testing.T) {
	weights := [][2]float64{{1, 1}, {0.5, 0.5}, {1, -1}, {0, 2}, {2, 0}}
	for _, topo := range layoutTopologies {
		cfg := testConfig()
		cfg.Topology = topo
		cases := layoutCases(t, cfg)
		// A NaN-carrying operand: NaN is not zero, so it stays an entry —
		// unless its weight is zero, which contributes nothing at all.
		rng := rand.New(rand.NewSource(192))
		nan := mat.RandomCOO(rng, 150, 150, 900)
		nan.Ent[17].Val = math.NaN()
		nan.Ent[400].Val = math.Inf(1)
		nanM, _, err := Partition(nan, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, layoutCase{"nan", nanM})
		for i, ca := range cases {
			// Pair every operand with the next one of its shape, and with
			// itself when there is none.
			cb := ca
			for j := 1; j < len(cases); j++ {
				if o := cases[(i+j)%len(cases)]; o.m.Rows == ca.m.Rows && o.m.Cols == ca.m.Cols {
					cb = o
					break
				}
			}
			if ca.name == "nan" && cb.name == "nan" {
				t.Fatal("no partner for the NaN operand")
			}
			for _, w := range weights {
				got, err := Add(ca.m, cb.m, w[0], w[1], cfg)
				if err != nil {
					t.Fatalf("%s+%s: %v", ca.name, cb.name, err)
				}
				if err := got.Validate(); err != nil {
					t.Fatalf("%s+%s: %v", ca.name, cb.name, err)
				}
				want := refAdd(t, ca.m, cb.m, w[0], w[1], cfg)
				if !bytes.Equal(layoutBytes(t, got), layoutBytes(t, want)) {
					t.Errorf("%dx%d %g·%s + %g·%s: Add differs from the merged staging table",
						topo.Sockets, topo.CoresPerSocket, w[0], ca.name, w[1], cb.name)
				}
			}
		}
	}
}
