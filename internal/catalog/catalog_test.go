package catalog

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"atmatrix/internal/core"
	"atmatrix/internal/mat"
	"atmatrix/internal/mmio"
)

func testConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.LLCBytes = 3 * 8 * 64 * 64
	cfg.BAtomic = 8
	cfg.Topology.Sockets = 2
	cfg.Topology.CoresPerSocket = 2
	return cfg
}

func testMatrix(t testing.TB, seed int64, dim, nnz int) *core.ATMatrix {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	am, _, err := core.Partition(mat.RandomCOO(rng, dim, dim, nnz), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	return am
}

func TestPutAcquireDelete(t *testing.T) {
	c, err := New(testConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	m := testMatrix(t, 1, 64, 600)
	if err := c.Put("a", m, false); err != nil {
		t.Fatal(err)
	}
	if err := c.Put("a", m, false); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate Put: got %v, want ErrExists", err)
	}
	h, err := c.Acquire("a")
	if err != nil {
		t.Fatal(err)
	}
	if h.Matrix() != m {
		t.Fatal("handle returned a different matrix")
	}
	if err := c.Delete("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Acquire("a"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Acquire after delete: got %v, want ErrNotFound", err)
	}
	// The deleted entry's bytes stay accounted until the reader is done.
	if got := c.Stats().ResidentBytes; got != m.Bytes() {
		t.Fatalf("resident %d while a handle is out, want %d", got, m.Bytes())
	}
	h.Release()
	h.Release() // double release is a no-op
	if got := c.Stats().ResidentBytes; got != 0 {
		t.Fatalf("resident %d after last release, want 0", got)
	}
	if err := c.Delete("a"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete: got %v, want ErrNotFound", err)
	}
}

func TestLRUEviction(t *testing.T) {
	// One matrix stored under several names keeps the sizes identical;
	// the budget fits exactly two copies.
	m := testMatrix(t, 2, 64, 600)
	per := m.Bytes()
	c, err := New(testConfig(), 2*per)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put("a", m, false); err != nil {
		t.Fatal(err)
	}
	if err := c.Put("b", m, false); err != nil {
		t.Fatal(err)
	}
	// Touch "a" so "b" becomes the LRU victim.
	h, err := c.Acquire("a")
	if err != nil {
		t.Fatal(err)
	}
	h.Release()
	if err := c.Put("c", m, false); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Acquire("b"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("LRU victim still resident: %v", err)
	}
	if _, err := c.Acquire("a"); err != nil {
		t.Fatalf("recently used entry evicted: %v", err)
	}
	st := c.Stats()
	if st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
	if st.ResidentBytes != 2*per {
		t.Fatalf("resident = %d, want %d", st.ResidentBytes, 2*per)
	}
}

func TestBudgetRejectsWhenNothingEvictable(t *testing.T) {
	m := testMatrix(t, 5, 64, 600)
	per := m.Bytes()
	// Budget fits exactly the pinned and the held copy, nothing more.
	c, err := New(testConfig(), 2*per)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put("pinned", m, true); err != nil {
		t.Fatal(err)
	}
	if err := c.Put("held", m, false); err != nil {
		t.Fatal(err)
	}
	h, err := c.Acquire("held")
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	// Pinned and in-use entries both resist eviction: no room.
	if err := c.Put("c", m, false); !errors.Is(err, ErrBudget) {
		t.Fatalf("Put with nothing evictable: got %v, want ErrBudget", err)
	}
	// A matrix bigger than the whole budget is rejected outright.
	big := testMatrix(t, 8, 128, 6000)
	if big.Bytes() <= 2*per {
		t.Fatalf("test matrix not big enough: %d <= %d", big.Bytes(), 2*per)
	}
	empty, _ := New(testConfig(), 2*per)
	if err := empty.Put("big", big, false); !errors.Is(err, ErrBudget) {
		t.Fatalf("oversized Put: got %v, want ErrBudget", err)
	}
}

func TestLoadFormats(t *testing.T) {
	cfg := testConfig()
	rng := rand.New(rand.NewSource(9))
	coo := mat.RandomCOO(rng, 64, 64, 600)
	am, _, err := core.Partition(coo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var atm, mm, bin bytes.Buffer
	if _, err := am.WriteTo(&atm); err != nil {
		t.Fatal(err)
	}
	if err := mmio.WriteMatrixMarket(&mm, coo); err != nil {
		t.Fatal(err)
	}
	if err := mmio.WriteBinary(&bin, coo); err != nil {
		t.Fatal(err)
	}
	c, err := New(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	for name, src := range map[string]struct {
		f Format
		b *bytes.Buffer
	}{
		"a": {FormatATM, &atm},
		"m": {FormatMatrixMarket, &mm},
		"b": {FormatBinaryCOO, &bin},
	} {
		info, err := c.Load(name, src.f, src.b, false)
		if err != nil {
			t.Fatalf("load %q (%s): %v", name, src.f, err)
		}
		if info.Rows != 64 || info.Cols != 64 || info.NNZ != am.NNZ() {
			t.Fatalf("load %q: info %+v", name, info)
		}
	}
	// All three loads must agree on content.
	ha, _ := c.Acquire("a")
	hm, _ := c.Acquire("m")
	defer ha.Release()
	defer hm.Release()
	if !ha.Matrix().ToDense().EqualApprox(hm.Matrix().ToDense(), 0) {
		t.Fatal("atm and mtx loads differ")
	}
	// A corrupt ATM upload surfaces the typed checksum error.
	var good bytes.Buffer
	if _, err := am.WriteTo(&good); err != nil {
		t.Fatal(err)
	}
	bad := good.Bytes()
	bad[len(bad)-10] ^= 0x01
	if _, err := c.Load("corrupt", FormatATM, bytes.NewReader(bad), false); !errors.Is(err, core.ErrChecksum) {
		t.Fatalf("corrupt upload: got %v, want core.ErrChecksum", err)
	}
	if _, err := ParseFormat("xml"); err == nil {
		t.Fatal("unknown format accepted")
	}
}

func TestConcurrentAcquireRelease(t *testing.T) {
	c, err := New(testConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := c.Put(fmt.Sprintf("m%d", i), testMatrix(t, int64(10+i), 64, 600), false); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				name := fmt.Sprintf("m%d", (g+i)%4)
				h, err := c.Acquire(name)
				if err != nil {
					t.Errorf("acquire %s: %v", name, err)
					return
				}
				_ = h.Matrix().NNZ()
				h.Release()
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Matrices != 4 {
		t.Fatalf("matrices = %d, want 4", st.Matrices)
	}
	for _, info := range c.List() {
		if info.Refs != 0 {
			t.Fatalf("leaked refs on %s: %d", info.Name, info.Refs)
		}
	}
}
