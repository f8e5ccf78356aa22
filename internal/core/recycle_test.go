package core

import (
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"atmatrix/internal/kernels"
	"atmatrix/internal/mat"
	"atmatrix/internal/numa"
)

// resetDensePool empties the dense result pool and forgets its limit: the
// pool of a process that never recycled.
func resetDensePool() {
	f := &denseFree
	f.mu.Lock()
	f.bufs, f.held, f.limit, f.used = nil, 0, 0, false
	f.mu.Unlock()
}

// poisonAndRecycle fills every dense tile of c with NaN and recycles c. It
// returns the number of buffers handed back.
func poisonAndRecycle(c *ATMatrix) int64 {
	var n int64
	for _, t := range c.Tiles {
		if t.Kind == mat.DenseKind {
			for i := range t.D.Data {
				t.D.Data[i] = math.NaN()
			}
			n++
		}
	}
	Recycle(c)
	return n
}

// rerunOnPoison computes a·b once on fresh memory, poisons and recycles
// that product, and computes a·b again, verified, on its NaN-filled
// buffers. Every poisoned buffer must be taken by the second run, which
// must serialize to the bytes of the first; it returns the second. The
// collector is off in between, so it cannot drop the list.
func rerunOnPoison(t *testing.T, what string, a, b *ATMatrix, cfg Config) (*ATMatrix, *MultStats) {
	t.Helper()
	resetDensePool()
	c, _, err := Multiply(a, b, cfg)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	fresh := crc32.ChecksumIEEE(layoutBytes(t, c))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	hits := recycleHits.Load()
	n := poisonAndRecycle(c)
	opts := DefaultMultOptions()
	opts.Verify = 2
	c, st, err := MultiplyOpt(a, b, cfg, opts)
	if err != nil {
		t.Fatalf("%s on recycled buffers: %v", what, err)
	}
	if got := recycleHits.Load() - hits; got != n {
		t.Fatalf("%s: %d of %d poisoned buffers taken: the test inspects less than the product", what, got, n)
	}
	if got := crc32.ChecksumIEEE(layoutBytes(t, c)); got != fresh {
		t.Errorf("%s on recycled buffers: 0x%08x, on fresh memory 0x%08x", what, got, fresh)
	}
	return c, st
}

// TestRecycledTargetsBitIdentical is the oracle for dirty memory: the golden
// products (TestProductGoldenDigests), each run on NaN-filled buffers of
// exactly the cell counts its dense tiles have, serialize to the bytes of
// their run on fresh memory, on one to four teams, and on two teams — the
// topologies the digests were recorded on (tile homes are serialized) — to
// the recorded digests with the recorded decisions. A row a row body failed
// to clear before its first contribution carries a NaN into the bytes. The
// one-pair product whose pair is cut into row chunks is held to its run on
// fresh memory.
func TestRecycledTargetsBitIdentical(t *testing.T) {
	defer resetDensePool()
	var dense int
	check := func(key, golden string, a, b *ATMatrix, cfg Config) *ATMatrix {
		t.Helper()
		c, st := rerunOnPoison(t, key, a, b, cfg)
		for _, tile := range c.Tiles {
			if tile.Kind == mat.DenseKind {
				dense++
			}
		}
		if cfg.Topology.Sockets != 2 {
			return c
		}
		got := productGolden{crc32.ChecksumIEEE(layoutBytes(t, c)),
			st.Contributions, st.Conversions, st.OuterKernelCalls, st.GustavsonKernelCalls, st.TargetTiles}
		if want := productGoldens[golden]; got != want {
			t.Errorf("%s on recycled buffers: {0x%08x, %d, %d, %d, %d, %d}, golden %s %+v", key,
				got.crc, got.contribs, got.convs, got.outer, got.gust, got.targets, golden, want)
		}
		return c
	}
	topos := []numa.Topology{{Sockets: 1, CoresPerSocket: 1}, {Sockets: 2, CoresPerSocket: 1},
		{Sockets: 2, CoresPerSocket: 2}, {Sockets: 4, CoresPerSocket: 1}}
	operands := map[string]*ATMatrix{}
	operand := func(id string, seed, variant int64, scale float64) *ATMatrix {
		key := fmt.Sprintf("%s/%d/%d", id, seed, variant)
		if operands[key] == nil {
			operands[key] = productCase(t, id, seed, variant, scale, benchLayoutConfig())
		}
		return operands[key]
	}
	for _, topo := range topos {
		cfg := benchLayoutConfig()
		cfg.Topology = topo
		for seed := int64(1); seed <= 2; seed++ {
			// On two sockets the digests do not depend on the cores: the
			// table's 2×1 rows are the recorded ones.
			prefix := fmt.Sprintf("%dx%d/%d/", topo.Sockets, topo.CoresPerSocket, seed)
			golden := fmt.Sprintf("2x1/%d/", seed)
			for _, id := range []string{"R1", "R2", "R3", "R7", "R8", "R9", "G9"} {
				a := operand(id, seed, 0, 1.0/16)
				check(prefix+id+"²", golden+id+"²", a, a, cfg)
			}
			b0 := operand("R2", seed, 1, 1.0/32)
			t1 := operand("R2", seed, 2, 1.0/32)
			t2 := operand("R2", seed, 3, 1.0/32)
			tp, _, err := check(prefix+"T1·T2", golden+"T1·T2", t1, t2, cfg).Repartition(cfg)
			if err != nil {
				t.Fatal(err)
			}
			check(prefix+"TP·B0", golden+"TP·B0", tp, b0, cfg)
		}
	}
	if dense == 0 {
		t.Fatal("no product had a dense tile: no buffer was recycled")
	}

	cfg := testConfig()
	a, b := onePairDenseTarget(t, cfg, rand.New(rand.NewSource(53)))
	for _, topo := range topos {
		cfg.Topology = topo
		rerunOnPoison(t, fmt.Sprintf("%dx%d one pair", topo.Sockets, topo.CoresPerSocket), a, b, cfg)
	}
}

// denseProduct is a product with several dense tiles.
func denseProduct(t *testing.T) (*ATMatrix, *ATMatrix, Config) {
	t.Helper()
	cfg := testConfig()
	am, _, err := Partition(mat.RandomCOO(rand.New(rand.NewSource(9)), 200, 200, 16000), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return am, am, cfg
}

func denseBytesOf(c *ATMatrix) (bytes int64, tiles int) {
	for _, tile := range c.Tiles {
		if tile.Kind == mat.DenseKind {
			bytes += tile.Bytes()
			tiles++
		}
	}
	return bytes, tiles
}

// TestRecycledTilesAreGone: a recycled product keeps its shape and counts,
// but a read of a dense tile's cells panics instead of seeing whatever
// product took the buffer; recycling it again hands nothing back.
func TestRecycledTilesAreGone(t *testing.T) {
	defer resetDensePool()
	resetDensePool()
	a, b, cfg := denseProduct(t)
	c, _, err := Multiply(a, b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	bytes, tiles := denseBytesOf(c)
	if tiles == 0 {
		t.Fatal("product has no dense tile")
	}
	nnz, total := c.NNZ(), c.Bytes()
	Recycle(c)
	if got := Recycled().HeldBytes; got != bytes {
		t.Fatalf("pool holds %d bytes after recycling %d dense bytes", got, bytes)
	}
	if c.NNZ() != nnz || c.Bytes() != total {
		t.Fatalf("shape of the recycled product changed: nnz %d → %d, bytes %d → %d", nnz, c.NNZ(), total, c.Bytes())
	}
	for _, tile := range c.Tiles {
		if tile.Kind != mat.DenseKind {
			continue
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("reading dense tile (%d,%d) of a recycled product did not panic", tile.Row0, tile.Col0)
				}
			}()
			_ = tile.D.At(0, 0)
		}()
	}
	Recycle(c)
	if got := Recycled().HeldBytes; got != bytes {
		t.Fatalf("recycling twice: pool holds %d bytes, want %d", got, bytes)
	}
}

// TestRecycleRetention: a process that never recycles keeps nothing, the
// pool never holds more than the dense bytes of the largest product
// recycled so far, and the collector drops it once it goes unused.
func TestRecycleRetention(t *testing.T) {
	defer resetDensePool()
	resetDensePool()
	a, b, cfg := denseProduct(t)
	var cs []*ATMatrix
	for range 3 {
		c, _, err := Multiply(a, b, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cs = append(cs, c)
	}
	if got := Recycled().HeldBytes; got != 0 {
		t.Fatalf("nothing recycled, pool holds %d bytes", got)
	}
	bytes, _ := denseBytesOf(cs[0])
	for _, c := range cs {
		Recycle(c)
		if got := Recycled().HeldBytes; got != bytes {
			t.Fatalf("pool holds %d bytes, the largest product recycled has %d", got, bytes)
		}
	}
	for i := 0; Recycled().HeldBytes != 0; i++ {
		if i == 100 {
			t.Fatalf("pool still holds %d bytes after %d idle collections", Recycled().HeldBytes, i)
		}
		runtime.GC()
		time.Sleep(5 * time.Millisecond)
	}
}

// slotHolds returns the accumulator the sparse accumulator slot holds.
func slotHolds() *kernels.SpAcc {
	f := &accFree
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.acc
}

// TestAccRetention: a split sparse pair takes its accumulator from the slot
// and gives it back, so the slot holds the one accumulator the product used
// — the same one, no larger, after every repeat — and MultStats.ScratchBytes
// counts it. EphemeralWorkers leaves the slot alone, a give that finds it
// full drops its accumulator, and idle collections keep it, as they keep a
// worker's scratch.
func TestAccRetention(t *testing.T) {
	defer accFree.take(0, 0)
	accFree.take(0, 0) // empty the slot
	cfg := testConfig()
	cfg.Topology = numa.Topology{Sockets: 2, CoresPerSocket: 1}
	a := onePairSparseTarget(t, cfg, rand.New(rand.NewSource(71)), 4)
	var held *kernels.SpAcc
	var bytes int64
	for run := range 3 {
		c, stats, err := Multiply(a, a, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(c.Tiles) != 1 || c.Tiles[0].Kind != mat.Sparse {
			t.Fatalf("product has %d tiles, want one sparse tile: the test inspects no sparse pair", len(c.Tiles))
		}
		acc := slotHolds()
		if acc == nil || acc.Bytes() == 0 {
			t.Fatalf("run %d: the slot holds no accumulator after a split sparse pair", run)
		}
		if run > 0 && (acc != held || acc.Bytes() != bytes) {
			t.Fatalf("run %d: the slot holds another accumulator or a grown one (%d bytes, %d after run 0)", run, acc.Bytes(), bytes)
		}
		if stats.ScratchBytes < acc.Bytes() {
			t.Fatalf("run %d: MultStats.ScratchBytes = %d, the slot holds %d", run, stats.ScratchBytes, acc.Bytes())
		}
		held, bytes = acc, acc.Bytes()
	}
	ephemeral := cfg
	ephemeral.EphemeralWorkers = true
	if _, _, err := Multiply(a, a, ephemeral); err != nil {
		t.Fatal(err)
	}
	if acc := slotHolds(); acc != held || acc.Bytes() != bytes {
		t.Fatal("an ephemeral multiply changed the slot's accumulator")
	}
	accFree.give(kernels.NewSpAcc(8, 8))
	if slotHolds() != held {
		t.Fatal("a give to a full slot replaced its accumulator")
	}
	for range 5 {
		runtime.GC()
		time.Sleep(5 * time.Millisecond)
	}
	if acc := slotHolds(); acc != held || acc.Bytes() != bytes {
		t.Fatal("idle collections dropped or changed the slot's accumulator")
	}
}
