package catalog

import (
	"errors"
	"path/filepath"
	"sync"
	"testing"

	"atmatrix/internal/core"
	"atmatrix/internal/faultinject"
)

// TestConcurrentDoubleReleaseDropsOneRef is the regression test for the
// handle ref-count audit: a handle released from several goroutines at once
// (a job's deferred cleanup racing its retry loop's error path) must
// decrement the ref count exactly once, so the entry stays evictable and the
// resident-bytes accounting stays balanced.
func TestConcurrentDoubleReleaseDropsOneRef(t *testing.T) {
	c, err := New(testConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	m := testMatrix(t, 3, 64, 600)
	if err := c.Put("a", m, false); err != nil {
		t.Fatal(err)
	}
	for iter := 0; iter < 50; iter++ {
		h, err := c.Acquire("a")
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				h.Release()
			}()
		}
		wg.Wait()
	}
	infos := c.List()
	if len(infos) != 1 || infos[0].Refs != 0 {
		t.Fatalf("after release storm: %+v, want one entry with 0 refs", infos)
	}
	// Refs at zero means the entry is evictable and deletable, and the
	// accounting drains to zero on delete.
	if err := c.Delete("a"); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.ResidentBytes != 0 {
		t.Fatalf("resident bytes = %d after delete with no handles, want 0", st.ResidentBytes)
	}
}

// TestReleaseAfterDeleteBalancesAccounting covers the deferred-accounting
// path: deleting a matrix with outstanding handles keeps its bytes resident
// until the last (possibly concurrent) release.
func TestReleaseAfterDeleteBalancesAccounting(t *testing.T) {
	c, err := New(testConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put("a", testMatrix(t, 4, 64, 600), false); err != nil {
		t.Fatal(err)
	}
	h1, err := c.Acquire("a")
	if err != nil {
		t.Fatal(err)
	}
	h2, err := c.Acquire("a")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Delete("a"); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.ResidentBytes == 0 {
		t.Fatal("resident bytes dropped to 0 with handles outstanding")
	}
	var wg sync.WaitGroup
	for _, h := range []*Handle{h1, h2} {
		for g := 0; g < 3; g++ { // each handle raced by several releasers
			wg.Add(1)
			go func(h *Handle) {
				defer wg.Done()
				h.Release()
			}(h)
		}
	}
	wg.Wait()
	if st := c.Stats(); st.ResidentBytes != 0 {
		t.Fatalf("resident bytes = %d after last release, want 0", st.ResidentBytes)
	}
}

// TestPutAllocFaultRejectsCleanly checks the chaos hook in admission: an
// injected allocation failure rejects the Put with the typed error and
// leaves the catalog consistent.
func TestPutAllocFaultRejectsCleanly(t *testing.T) {
	c, err := New(testConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	m := testMatrix(t, 5, 64, 600)
	defer faultinject.Enable(1, faultinject.Rule{
		Site: "catalog.put", Kind: faultinject.KindAlloc,
	})()
	if err := c.Put("a", m, false); !errors.Is(err, faultinject.ErrInjectedAlloc) {
		t.Fatalf("Put under alloc fault: %v, want ErrInjectedAlloc", err)
	}
	if st := c.Stats(); st.Matrices != 0 || st.ResidentBytes != 0 {
		t.Fatalf("catalog not clean after rejected Put: %+v", st)
	}
	// The rule fired once; the retry succeeds.
	if err := c.Put("a", m, false); err != nil {
		t.Fatalf("Put after fault window: %v", err)
	}
}

// TestSaveWritesLoadableFile checks Save's crash-safe write end to end: the
// saved file reloads as FormatATM with identical content.
func TestSaveWritesLoadableFile(t *testing.T) {
	c, err := New(testConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	m := testMatrix(t, 6, 64, 600)
	if err := c.Put("a", m, false); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "a.atm")
	n, err := c.Save("a", path)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("Save reported 0 bytes")
	}
	back, _, err := core.ReadATMatrixFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !back.ToDense().EqualApprox(m.ToDense(), 0) {
		t.Fatal("saved file content differs from resident matrix")
	}
	if _, err := c.Save("missing", path); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Save of absent matrix: %v, want ErrNotFound", err)
	}
	// Save must not leak its read lease.
	if infos := c.List(); infos[0].Refs != 0 {
		t.Fatalf("refs = %d after Save, want 0", infos[0].Refs)
	}
}
