package core

import (
	"fmt"
	"hash/crc32"
	"testing"

	"atmatrix/internal/gen"
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
			t.Errorf("%q: {0x%08x, %d, %d, %d, %d, %d}, // golden %+v", key,
				got.crc, got.contribs, got.convs, got.outer, got.gust, got.targets, want)
		}
		return c
	}
	for _, topo := range []numa.Topology{{Sockets: 2, CoresPerSocket: 1}, {Sockets: 2, CoresPerSocket: 2}} {
		cfg := benchLayoutConfig()
		cfg.Topology = topo
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
