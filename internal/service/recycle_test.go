package service

import (
	"bytes"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"atmatrix/internal/catalog"
	"atmatrix/internal/core"
	"atmatrix/internal/mat"
)

// watchRecycling replaces recycleProduct for the test with see, which runs
// before the product is recycled.
func watchRecycling(t *testing.T, see func(out *core.ATMatrix)) {
	t.Helper()
	prev := recycleProduct
	recycleProduct = func(out *core.ATMatrix) {
		see(out)
		prev(out)
	}
	t.Cleanup(func() { recycleProduct = prev })
}

func serialized(t *testing.T, m *core.ATMatrix) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestStoreRecyclesAfterRepartition: a stored product is recycled only once
// Repartition has copied it. The product's dense tiles are filled with NaN
// as they are recycled; the stored matrix must still be the product, bit
// for bit.
func TestStoreRecyclesAfterRepartition(t *testing.T) {
	cat := testCatalog(t)
	var dense int
	watchRecycling(t, func(out *core.ATMatrix) {
		for _, tile := range out.Tiles {
			if tile.Kind == mat.DenseKind {
				dense++
				for i := range tile.D.Data {
					tile.D.Data[i] = math.NaN()
				}
			}
		}
	})
	m := New(cat, Options{Workers: 1, Verify: 2})
	defer m.Close(30 * time.Second)
	job, err := m.Submit(Request{A: "big", B: "big", Store: "bb"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := job.Wait(); err != nil {
		t.Fatal(err)
	}
	if dense == 0 {
		t.Fatal("the product has no dense tile: nothing was recycled")
	}
	h, err := cat.Acquire("big")
	if err != nil {
		t.Fatal(err)
	}
	prod, _, err := core.Multiply(h.Matrix(), h.Matrix(), testConfig())
	h.Release()
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := prod.Repartition(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	got, err := cat.Acquire("bb")
	if err != nil {
		t.Fatal(err)
	}
	defer got.Release()
	if !bytes.Equal(serialized(t, got.Matrix()), serialized(t, want)) {
		t.Fatal("the stored product differs from the product: it shares memory with the recycled one")
	}
}

// TestConcurrentSubmitsRecycle: concurrent multiplies on two workers take
// each other's recycled buffers while the others are still being computed
// and verified; every product must still be right — Freivalds-verified,
// with the non-zero count of a product computed alone. Run under -race by
// `make race`.
func TestConcurrentSubmitsRecycle(t *testing.T) {
	cat := testCatalog(t)
	want := map[string]int64{}
	for _, name := range []string{"a", "big"} {
		h, err := cat.Acquire(name)
		if err != nil {
			t.Fatal(err)
		}
		p, _, err := core.Multiply(h.Matrix(), h.Matrix(), testConfig())
		h.Release()
		if err != nil {
			t.Fatal(err)
		}
		want[name] = p.NNZ()
	}
	m := New(cat, Options{Workers: 2, QueueDepth: 16, Verify: 2})
	defer m.Close(30 * time.Second)
	hits := core.Recycled().Hits
	const n = 6
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		name := "big"
		if i%3 == 2 {
			name = "a"
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			job, err := m.Submit(Request{A: name, B: name})
			if err != nil {
				t.Errorf("submit %s²: %v", name, err)
				return
			}
			res, err := job.Wait()
			if err != nil {
				t.Errorf("%s²: %v", name, err)
				return
			}
			if res.NNZ != want[name] {
				t.Errorf("%s²: %d non-zeros, computed alone %d", name, res.NNZ, want[name])
			}
		}()
	}
	wg.Wait()
	if core.Recycled().Hits == hits {
		t.Fatal("no product took a recycled buffer: the test exercised nothing")
	}
}

// TestRecycleWithinBudget: on a budgeted catalog a product is recycled only
// into the budget's headroom, ResidentBytes + its bytes ≤ BudgetBytes, with
// a stored copy, which is admitted later, counted at the product's size.
func TestRecycleWithinBudget(t *testing.T) {
	cfg := testConfig()
	big, _, err := core.Partition(mat.RandomCOO(rand.New(rand.NewSource(42)), 256, 256, 16000), cfg)
	if err != nil {
		t.Fatal(err)
	}
	prod, _, err := core.Multiply(big, big, cfg)
	if err != nil {
		t.Fatal(err)
	}
	need := big.Bytes() + prod.Bytes()
	recycled := false
	watchRecycling(t, func(*core.ATMatrix) { recycled = true })
	for _, tc := range []struct {
		name    string
		budget  int64
		store   string
		recycle bool
	}{
		{"unbudgeted", 0, "", true},
		{"headroom", need, "", true},
		{"no headroom", need - 1, "", false},
		{"stored, headroom", need + prod.Bytes(), "p", true},
		{"stored, no headroom", need + prod.Bytes() - 1, "p", false},
	} {
		cat, err := catalog.New(cfg, tc.budget)
		if err != nil {
			t.Fatal(err)
		}
		if err := cat.Put("big", big, false); err != nil {
			t.Fatal(err)
		}
		recycled = false
		m := New(cat, Options{Workers: 1})
		job, err := m.Submit(Request{A: "big", B: "big", Store: tc.store})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := job.Wait(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		m.Close(30 * time.Second)
		if recycled != tc.recycle {
			t.Errorf("%s: recycled %v, want %v", tc.name, recycled, tc.recycle)
		}
	}
}
