package core

import (
	"hash/crc32"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"atmatrix/internal/mat"
	"atmatrix/internal/numa"
)

// countIndexBuilds counts the operand index builds of every matrix until
// the test ends.
func countIndexBuilds(t *testing.T) *atomic.Int64 {
	t.Helper()
	var n atomic.Int64
	operandIndexHook = func(*ATMatrix) { n.Add(1) }
	t.Cleanup(func() { operandIndexHook = nil })
	return &n
}

// indexEntries is the number of operand index entries a holds built: its
// windows, and each of its column views.
func indexEntries(a *ATMatrix) int64 {
	var n int64
	if a.ops.wins != nil {
		n++
	}
	for i := range a.ops.views {
		if a.ops.views[i].v != nil {
			n++
		}
	}
	return n
}

// productCRC multiplies a·b at cfg and returns the CRC of the product's
// bytes.
func productCRC(t *testing.T, a, b *ATMatrix, cfg Config) uint32 {
	t.Helper()
	c, _, err := MultiplyOpt(a, b, cfg, DefaultMultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return crc32.ChecksumIEEE(layoutBytes(t, c))
}

// onePairSparseOperands is a product of one sparse tile by one sparse tile
// into a dense target: one pair, cut into row chunks on more than one team,
// every chunk reading A through the same column view.
func onePairSparseOperands(t *testing.T, cfg Config) (a, b *ATMatrix) {
	t.Helper()
	rng := rand.New(rand.NewSource(57))
	const m, k, n = 176, 120, 96
	tile := func(rows, cols int) *Tile {
		sp := mat.RandomCOO(rng, rows, cols, rows*cols/12).ToCSR()
		return &Tile{Rows: rows, Cols: cols, Kind: mat.Sparse, Sp: sp, NNZ: sp.NNZ()}
	}
	a, err := NewFromTiles(m, k, cfg.BAtomic, []*Tile{tile(m, k)})
	if err != nil {
		t.Fatal(err)
	}
	b, err = NewFromTiles(k, n, cfg.BAtomic, []*Tile{tile(k, n)})
	if err != nil {
		t.Fatal(err)
	}
	return a, b
}

// TestOperandIndexBuiltOnceConcurrently: the windows and column views a
// product reads its operands by are built once per matrix and then reused.
// A second product of the same operands builds none; a product read through
// an index built at another topology is the product of freshly partitioned
// operands, byte for byte, on every topology, also when its one pair is cut
// into row chunks; and products racing on one fresh matrix build every
// entry once and agree.
func TestOperandIndexBuiltOnceConcurrently(t *testing.T) {
	builds := countIndexBuilds(t)
	topos := []numa.Topology{{Sockets: 1, CoresPerSocket: 1}, {Sockets: 2, CoresPerSocket: 1},
		{Sockets: 2, CoresPerSocket: 2}, {Sockets: 1, CoresPerSocket: 2}, {Sockets: 4, CoresPerSocket: 1}}

	// A stand-in with dense targets fed by sparse×sparse contributions, so
	// both its windows and its views are built.
	cfg := benchLayoutConfig()
	kept := productCase(t, "R1", 1, 0, 1.0/32, cfg)
	productCRC(t, kept, kept, cfg)
	if first := builds.Load(); first < 2 || first != indexEntries(kept) {
		t.Fatalf("first product built %d index entries, the matrix holds %d: want windows and views, once each", first, indexEntries(kept))
	}
	before, bytes := builds.Load(), kept.IndexBytes()
	productCRC(t, kept, kept, cfg)
	if got := builds.Load() - before; got != 0 || kept.IndexBytes() != bytes {
		t.Fatalf("second product of the same operands built %d index entries (index bytes %d → %d), want none", got, bytes, kept.IndexBytes())
	}

	for _, topo := range topos {
		run := cfg
		run.Topology = topo
		fresh := productCase(t, "R1", 1, 0, 1.0/32, run)
		if got, want := productCRC(t, kept, kept, run), productCRC(t, fresh, fresh, run); got != want {
			t.Errorf("R1² at %dx%d: 0x%08x through the kept index, 0x%08x from fresh operands", topo.Sockets, topo.CoresPerSocket, got, want)
		}
	}

	// One pair, whole on 1×1 and cut into one row chunk per team elsewhere.
	pcfg := testConfig()
	keptA, keptB := onePairSparseOperands(t, pcfg)
	for _, topo := range topos {
		run := pcfg
		run.Topology = topo
		freshA, freshB := onePairSparseOperands(t, run)
		if got, want := productCRC(t, keptA, keptB, run), productCRC(t, freshA, freshB, run); got != want {
			t.Errorf("one pair at %dx%d: 0x%08x through the kept index, 0x%08x from fresh operands", topo.Sockets, topo.CoresPerSocket, got, want)
		}
		if indexEntries(freshA) == 0 {
			t.Fatalf("one pair at %dx%d: A was read through no column view", topo.Sockets, topo.CoresPerSocket)
		}
	}

	// Four products racing on one fresh matrix.
	race := productCase(t, "R1", 1, 0, 1.0/32, cfg)
	before = builds.Load()
	products := make([]*ATMatrix, 4)
	errs := make([]error, len(products))
	var wg sync.WaitGroup
	for i := range products {
		wg.Add(1)
		go func() {
			defer wg.Done()
			products[i], _, errs[i] = MultiplyOpt(race, race, cfg, DefaultMultOptions())
		}()
	}
	wg.Wait()
	if got, want := builds.Load()-before, indexEntries(race); got != want {
		t.Errorf("four racing products built %d index entries for %d keys", got, want)
	}
	var crc0 uint32
	for i, c := range products {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		crc := crc32.ChecksumIEEE(layoutBytes(t, c))
		if i == 0 {
			crc0 = crc
		} else if crc != crc0 {
			t.Errorf("racing product %d: 0x%08x, product 0 0x%08x", i, crc, crc0)
		}
	}
}

// indexCapBytes sums the capacities of the slices v holds, following
// pointers and slices into the index's own types but not into tiles or
// their payloads, which Bytes counts.
func indexCapBytes(v reflect.Value) int64 {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() || v.Type() == reflect.TypeOf((*Tile)(nil)) || v.Type() == reflect.TypeOf((*mat.CSR)(nil)) {
			return 0
		}
		return indexCapBytes(v.Elem())
	case reflect.Struct:
		var b int64
		for i := 0; i < v.NumField(); i++ {
			b += indexCapBytes(v.Field(i))
		}
		return b
	case reflect.Slice:
		b := int64(v.Cap()) * int64(v.Type().Elem().Size())
		full := v.Slice(0, v.Cap())
		for i := 0; i < full.Len(); i++ {
			b += indexCapBytes(full.Index(i))
		}
		return b
	}
	return 0
}

// TestIndexBytesCoversSliceCaps fails if IndexBytes under-reports what the
// band index and the operand index hold: the reference is taken from the
// slice capacities by reflection, so a buffer added without accounting
// shows up here. Scaling in place drops the views and their bytes.
func TestIndexBytesCoversSliceCaps(t *testing.T) {
	cfg := benchLayoutConfig()
	a := productCase(t, "R1", 2, 0, 1.0/32, cfg)
	if _, _, err := MultiplyOpt(a, a, cfg, DefaultMultOptions()); err != nil {
		t.Fatal(err)
	}
	held := func() int64 {
		return indexCapBytes(reflect.ValueOf(&a.idx)) + indexCapBytes(reflect.ValueOf(&a.ops))
	}
	if a.ops.wins == nil || indexEntries(a) < 2 {
		t.Fatal("the product built no windows or no views: the test would count nothing")
	}
	if got, want := a.IndexBytes(), held(); got != want {
		t.Fatalf("IndexBytes() = %d, but the index's slices hold %d bytes", got, want)
	}
	a.Scale(2)
	if indexEntries(a) != 1 {
		t.Fatalf("Scale kept %d view(s)", indexEntries(a)-1)
	}
	if got, want := a.IndexBytes(), held(); got != want {
		t.Fatalf("after Scale IndexBytes() = %d, but the index's slices hold %d bytes", got, want)
	}
}
