package core

import (
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"testing"

	"atmatrix/internal/gen"
	"atmatrix/internal/mat"
	"atmatrix/internal/numa"
)

// The product oracle: for the products the benchmark server computes, the
// IEEE CRC-32 of the result's WriteTo bytes and the optimizer's decision
// counters, recorded before the dense-target kernels changed their loop
// order. They are not to be edited: a digest mismatch means a bit of some
// product moved, a counter mismatch that a kernel, conversion or tile-kind
// decision did.

// productGolden is one product's recorded outcome.
type productGolden struct {
	crc                                   uint32
	contribs, convs, outer, gust, targets int64
}

// productGoldens is keyed "topology/seed/product". 2x1 is the server's
// configuration (2 sockets × 1 core); 2x2 runs every dense target's rows in
// two fan-out chunks.
var productGoldens = map[string]productGolden{
	"2x1/1/R1²":   {0x4c019216, 2453, 4, 41, 235, 233},
	"2x1/1/R2²":   {0xb83e3582, 613, 2, 0, 0, 81},
	"2x1/1/R3²":   {0xe1d0f648, 3875, 0, 0, 0, 400},
	"2x1/1/R4²":   {0xc818987e, 1, 0, 0, 0, 1},
	"2x1/1/R5²":   {0x8e9a07e9, 8631, 8, 6, 592, 927},
	"2x1/1/R6²":   {0xb4269ac4, 99016, 13, 3047, 43230, 1994},
	"2x1/1/R7²":   {0xbac5788a, 1, 0, 1, 0, 1},
	"2x1/1/R8²":   {0x8c691863, 1, 0, 0, 1, 1},
	"2x1/1/R9²":   {0xf1527850, 1, 0, 0, 1, 1},
	"2x1/1/G9²":   {0x5da35220, 421, 0, 0, 51, 64},
	"2x1/1/T1·T2": {0x25ecf0e3, 19, 0, 0, 0, 5},
	"2x1/1/TP·B0": {0x50cef2f3, 1, 0, 0, 0, 1},
	"2x1/2/R1²":   {0xb48f1471, 2329, 2, 41, 219, 233},
	"2x1/2/R2²":   {0xa9880d8e, 815, 4, 0, 0, 99},
	"2x1/2/R3²":   {0x0bec8203, 3875, 0, 0, 0, 400},
	"2x1/2/R4²":   {0x6e12b240, 1, 0, 0, 0, 1},
	"2x1/2/R5²":   {0xf6e3709b, 11016, 8, 67, 2023, 890},
	"2x1/2/R6²":   {0x5954f1f7, 69856, 27, 1404, 29542, 1994},
	"2x1/2/R7²":   {0x679f1759, 1, 0, 1, 0, 1},
	"2x1/2/R8²":   {0xbc153ccb, 1, 0, 0, 1, 1},
	"2x1/2/R9²":   {0x4ef2d0c7, 1, 0, 0, 1, 1},
	"2x1/2/G9²":   {0x1c34ea4e, 421, 0, 0, 47, 64},
	"2x1/2/T1·T2": {0xb6590923, 19, 0, 0, 0, 5},
	"2x1/2/TP·B0": {0x70ecbb8f, 1, 0, 0, 0, 1},
	"2x2/1/R1²":   {0x4c019216, 2453, 4, 41, 235, 233},
	"2x2/1/R2²":   {0xb83e3582, 613, 2, 0, 0, 81},
	"2x2/1/R3²":   {0xe1d0f648, 3875, 0, 0, 0, 400},
	"2x2/1/R4²":   {0xc818987e, 1, 0, 0, 0, 1},
	"2x2/1/R5²":   {0x8e9a07e9, 8631, 8, 6, 592, 927},
	"2x2/1/R6²":   {0xb4269ac4, 99016, 13, 3047, 43230, 1994},
	"2x2/1/R7²":   {0xbac5788a, 1, 0, 1, 0, 1},
	"2x2/1/R8²":   {0x8c691863, 1, 0, 0, 1, 1},
	"2x2/1/R9²":   {0xf1527850, 1, 0, 0, 1, 1},
	"2x2/1/G9²":   {0x5da35220, 421, 0, 0, 51, 64},
	"2x2/1/T1·T2": {0x25ecf0e3, 19, 0, 0, 0, 5},
	"2x2/1/TP·B0": {0x50cef2f3, 1, 0, 0, 0, 1},
	"2x2/2/R1²":   {0xb48f1471, 2329, 2, 41, 219, 233},
	"2x2/2/R2²":   {0xa9880d8e, 815, 4, 0, 0, 99},
	"2x2/2/R3²":   {0x0bec8203, 3875, 0, 0, 0, 400},
	"2x2/2/R4²":   {0x6e12b240, 1, 0, 0, 0, 1},
	"2x2/2/R5²":   {0xf6e3709b, 11016, 8, 67, 2023, 890},
	"2x2/2/R6²":   {0x5954f1f7, 69856, 27, 1404, 29542, 1994},
	"2x2/2/R7²":   {0x679f1759, 1, 0, 1, 0, 1},
	"2x2/2/R8²":   {0xbc153ccb, 1, 0, 0, 1, 1},
	"2x2/2/R9²":   {0x4ef2d0c7, 1, 0, 0, 1, 1},
	"2x2/2/G9²":   {0x1c34ea4e, 421, 0, 0, 47, 64},
	"2x2/2/T1·T2": {0xb6590923, 19, 0, 0, 0, 5},
	"2x2/2/TP·B0": {0x70ecbb8f, 1, 0, 0, 0, 1},
}

// productCase generates the Table I stand-in id at scale as atload does for
// the seed and variant.
func productCase(t *testing.T, id string, seed, variant int64, scale float64, cfg Config) *ATMatrix {
	t.Helper()
	s, err := gen.Lookup(id)
	if err != nil {
		t.Fatal(err)
	}
	s.Seed += 1000*seed + 50*variant
	coo, err := s.Generate(scale)
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := Partition(coo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestProductGoldenDigests(t *testing.T) {
	check := func(key string, a, b *ATMatrix, cfg Config) *ATMatrix {
		t.Helper()
		c, st, err := Multiply(a, b, cfg)
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		got := productGolden{crc32.ChecksumIEEE(layoutBytes(t, c)),
			st.Contributions, st.Conversions, st.OuterKernelCalls, st.GustavsonKernelCalls, st.TargetTiles}
		if want, ok := productGoldens[key]; !ok || got != want {
			t.Errorf("%q (ephemeral %v): {0x%08x, %d, %d, %d, %d, %d}, // golden %+v", key, cfg.EphemeralWorkers,
				got.crc, got.contribs, got.convs, got.outer, got.gust, got.targets, want)
		}
		return c
	}
	// Throwaway scratch arenas (EphemeralWorkers) must not move a bit of any
	// product: the 2×2 products run a second time under them.
	for _, run := range []struct {
		topo      numa.Topology
		ephemeral bool
	}{
		{numa.Topology{Sockets: 2, CoresPerSocket: 1}, false},
		{numa.Topology{Sockets: 2, CoresPerSocket: 2}, false},
		{numa.Topology{Sockets: 2, CoresPerSocket: 2}, true},
	} {
		topo := run.topo
		cfg := benchLayoutConfig()
		cfg.Topology, cfg.EphemeralWorkers = topo, run.ephemeral
		for seed := int64(1); seed <= 2; seed++ {
			prefix := fmt.Sprintf("%dx%d/%d/", topo.Sockets, topo.CoresPerSocket, seed)
			for _, id := range []string{"R1", "R2", "R3", "R4", "R5", "R6", "R7", "R8", "R9", "G9"} {
				a := productCase(t, id, seed, 0, 1.0/16, cfg)
				check(prefix+id+"²", a, a, cfg)
			}
			// ingest_store: B0, T1 and T2 are R2 at 1/32, variants 1–3;
			// mult_store stores T1·T2 repartitioned, mult_read multiplies it
			// by B0.
			b0 := productCase(t, "R2", seed, 1, 1.0/32, cfg)
			t1 := productCase(t, "R2", seed, 2, 1.0/32, cfg)
			t2 := productCase(t, "R2", seed, 3, 1.0/32, cfg)
			tp, _, err := check(prefix+"T1·T2", t1, t2, cfg).Repartition(cfg)
			if err != nil {
				t.Fatal(err)
			}
			check(prefix+"TP·B0", tp, b0, cfg)
		}
	}
}

// TestProductGoldenCrossCheck pins a few of the digests above against
// values computed independently of the table: core.Multiply at the server
// configuration, seeds 1 and 2.
func TestProductGoldenCrossCheck(t *testing.T) {
	for key, want := range map[string]uint32{
		"2x1/1/R1²": 0x4c019216, "2x1/1/R3²": 0xe1d0f648, "2x1/1/G9²": 0x5da35220,
		"2x1/2/R1²": 0xb48f1471, "2x1/2/G9²": 0x1c34ea4e,
	} {
		if got := productGoldens[key].crc; got != want {
			t.Errorf("%s: table has 0x%08x, cross-check 0x%08x", key, got, want)
		}
	}
}

// TestProbePartialsMatchSweep is the oracle of a verified multiply's result
// side: the probe panel MultiplyOpt builds from the sums its dense row
// bodies took, plus a sweep of the sparse tiles, is bit for bit the sweep of
// every tile of the C it returns, slab by slab, and every dense tile's
// non-zero count, taken in the same row bodies, is what its cells hold. It
// covers the golden products, on one to four teams, and a one-pair product
// cut into row chunks, with odd and even round counts.
func TestProbePartialsMatchSweep(t *testing.T) {
	var slabs, denseTiles int
	what := ""
	resultPanelHook = func(c *ATMatrix, x, got Panel) {
		slabs++
		want := NewPanel(c.Rows)
		c.gatherRows(x, want, true, tileSums{}, 0, c.Rows)
		for j := 1; j < panelWidth; j++ {
			w, g := want.Col(j), got.Col(j)
			for i := range w {
				if math.Float64bits(w[i]) != math.Float64bits(g[i]) {
					t.Fatalf("%s slab %d: column %d row %d from the sums is %g, the sweep of C %g", what, slabs, j, i, g[i], w[i])
				}
			}
		}
	}
	defer func() { resultPanelHook = nil }()
	check := func(a, b *ATMatrix, cfg Config, k int) *ATMatrix {
		t.Helper()
		opts := DefaultMultOptions()
		opts.Verify = k
		before := slabs
		c, _, err := MultiplyOpt(a, b, cfg, opts)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if got, want := slabs-before, (k+probeSlab-1)/probeSlab; got != want {
			t.Fatalf("%s: %d slabs checked from sums, want %d", what, got, want)
		}
		for _, tile := range c.Tiles {
			if tile.Kind != mat.DenseKind {
				continue
			}
			denseTiles++
			if got, want := tile.NNZ, tile.D.NNZ(); got != want {
				t.Fatalf("%s: dense tile at (%d,%d) counted %d non-zeros, its cells hold %d", what, tile.Row0, tile.Col0, got, want)
			}
		}
		return c
	}
	topos := []numa.Topology{{Sockets: 1, CoresPerSocket: 1}, {Sockets: 2, CoresPerSocket: 1},
		{Sockets: 2, CoresPerSocket: 2}, {Sockets: 4, CoresPerSocket: 1}}
	ks := []int{1, 2, 3, 5}
	// The operands are partitioned once; only the product's run changes
	// with the topology.
	operands := map[string]*ATMatrix{}
	operand := func(id string, seed, variant int64, scale float64) *ATMatrix {
		key := fmt.Sprintf("%s/%d/%d", id, seed, variant)
		if operands[key] == nil {
			operands[key] = productCase(t, id, seed, variant, scale, benchLayoutConfig())
		}
		return operands[key]
	}
	for ti, topo := range topos {
		cfg := benchLayoutConfig()
		cfg.Topology = topo
		// Each product meets every round count once over the four
		// topologies, and each topology every round count.
		n := ti
		for seed := int64(1); seed <= 2; seed++ {
			prefix := fmt.Sprintf("%dx%d/%d/", topo.Sockets, topo.CoresPerSocket, seed)
			for _, id := range []string{"R1", "R2", "R3", "R4", "R5", "R6", "R7", "R8", "R9", "G9"} {
				k := ks[n%len(ks)]
				n++
				what = fmt.Sprintf("%s%s² k=%d", prefix, id, k)
				a := operand(id, seed, 0, 1.0/16)
				check(a, a, cfg, k)
			}
			b0 := operand("R2", seed, 1, 1.0/32)
			t1 := operand("R2", seed, 2, 1.0/32)
			t2 := operand("R2", seed, 3, 1.0/32)
			k := ks[n%len(ks)]
			n++
			what = fmt.Sprintf("%sT1·T2 k=%d", prefix, k)
			tp, _, err := check(t1, t2, cfg, k).Repartition(cfg)
			if err != nil {
				t.Fatal(err)
			}
			k = ks[n%len(ks)]
			n++
			what = fmt.Sprintf("%sTP·B0 k=%d", prefix, k)
			check(tp, b0, cfg, k)
		}
		// The one-pair product of TestATMULTBytesIndependentOfExecutor: its
		// pair is cut into one row chunk per team, every chunk taking the
		// sums of its own rows.
		cfg = testConfig()
		cfg.Topology = topo
		a, b := onePairDenseTarget(t, cfg, rand.New(rand.NewSource(53)))
		for _, k := range ks {
			what = fmt.Sprintf("%dx%d one pair k=%d", topo.Sockets, topo.CoresPerSocket, k)
			check(a, b, cfg, k)
		}
	}
	if denseTiles == 0 {
		t.Fatal("no product had a dense tile: the test compared no sums")
	}
}
