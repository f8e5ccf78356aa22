package catalog

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"atmatrix/internal/core"
	"atmatrix/internal/faultinject"
	"atmatrix/internal/leakcheck"
)

// openDurable builds a durable catalog over a fresh temp dir.
func openDurable(t *testing.T, budget int64) *Catalog {
	t.Helper()
	c, err := Open(testConfig(), budget, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// serialize returns the canonical ATMAT1 bytes of a matrix, the equality
// fingerprint the durability tests compare across spill/reload/restart.
func serialize(t *testing.T, m *core.ATMatrix) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestSpillAndReloadRoundTrip(t *testing.T) {
	m1 := testMatrix(t, 21, 64, 900)
	m2 := testMatrix(t, 22, 64, 900)
	want := serialize(t, m1)
	// Budget fits one matrix at a time: admitting the second must spill
	// the first, not destroy it.
	budget := m1.Bytes() + m2.Bytes()/2
	c, err := Open(testConfig(), budget, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put("a", m1, false); err != nil {
		t.Fatal(err)
	}
	if err := c.Put("b", m2, false); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Spills != 1 || st.Evictions != 0 {
		t.Fatalf("stats after pressure: spills=%d evictions=%d, want 1 spill, 0 evictions", st.Spills, st.Evictions)
	}
	if info := c.infoOf("a"); !info.Spilled {
		t.Fatalf("entry a not marked spilled: %+v", info)
	}
	// The spilled name is *found* — Acquire reloads it transparently.
	h, err := c.Acquire("a")
	if err != nil {
		t.Fatalf("Acquire of spilled matrix: %v", err)
	}
	defer h.Release()
	if got := serialize(t, h.Matrix()); !bytes.Equal(got, want) {
		t.Fatal("reloaded matrix bytes differ from the admitted matrix")
	}
	st = c.Stats()
	if st.Reloads != 1 {
		t.Fatalf("reloads = %d, want 1", st.Reloads)
	}
	// The reload displaced b in turn; total spills grew.
	if st.Spills < 2 {
		t.Fatalf("spills = %d after reload under pressure, want >= 2", st.Spills)
	}
}

func TestSpilledReloadVerifiesChecksum(t *testing.T) {
	c := openDurable(t, 0)
	m := testMatrix(t, 23, 64, 900)
	if err := c.Put("a", m, false); err != nil {
		t.Fatal(err)
	}
	// Force a spill by hand via the pressure path: a second catalog over
	// the same dir is cheating, so instead drop residency directly.
	c.mu.Lock()
	c.spillLocked(c.entries["a"])
	file := c.entries["a"].file
	c.mu.Unlock()
	// Corrupt one payload byte on disk; the footer CRC no longer matches,
	// and reload must refuse the bytes rather than serve them.
	path := filepath.Join(c.DataDir(), file)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = c.Acquire("a")
	if err == nil || errors.Is(err, ErrNotFound) {
		t.Fatalf("Acquire of corrupted spilled matrix: %v, want a checksum error distinct from ErrNotFound", err)
	}
	if !errors.Is(err, core.ErrChecksum) {
		t.Fatalf("Acquire of corrupted spilled matrix: %v, want core.ErrChecksum", err)
	}
	// A name that never existed still reads as ErrNotFound.
	if _, err := c.Acquire("ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Acquire of unknown name: %v, want ErrNotFound", err)
	}
}

func TestRecoverAfterRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig()
	mPinned := testMatrix(t, 24, 64, 900)
	mLazy := testMatrix(t, 25, 48, 500)
	wantPinned := serialize(t, mPinned)
	wantLazy := serialize(t, mLazy)

	c1, err := Open(cfg, 0, dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.Put("pinned", mPinned, true); err != nil {
		t.Fatal(err)
	}
	if err := c1.Put("lazy", mLazy, false); err != nil {
		t.Fatal(err)
	}
	// No shutdown, no flush call: the write-through already made both
	// durable. c1 is simply abandoned, as a crash would leave it.

	c2, err := Open(cfg, 0, dir)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := c2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rs.Registered != 2 || rs.Loaded != 1 || len(rs.Failed) != 0 {
		t.Fatalf("recover stats = %+v, want 2 registered, 1 loaded, 0 failed", rs)
	}
	// Pinned is resident after boot; lazy is registered but spilled.
	if info := c2.infoOf("pinned"); info.Spilled || !info.Pinned {
		t.Fatalf("pinned entry after recover: %+v, want resident and pinned", info)
	}
	if info := c2.infoOf("lazy"); !info.Spilled {
		t.Fatalf("lazy entry after recover: %+v, want spilled", info)
	}
	for name, want := range map[string][]byte{"pinned": wantPinned, "lazy": wantLazy} {
		h, err := c2.Acquire(name)
		if err != nil {
			t.Fatalf("Acquire(%q) after recover: %v", name, err)
		}
		if got := serialize(t, h.Matrix()); !bytes.Equal(got, want) {
			t.Fatalf("matrix %q differs across restart", name)
		}
		h.Release()
	}
	// The recovered operands multiply: end-to-end the restart preserved
	// usable matrices, not just parseable files.
	hp, _ := c2.Acquire("pinned")
	defer hp.Release()
	if _, _, err := core.MultiplyOpt(hp.Matrix(), hp.Matrix(), cfg, core.DefaultMultOptions()); err != nil {
		t.Fatalf("multiply on recovered matrix: %v", err)
	}
}

func TestRecoverTwiceIsIdempotent(t *testing.T) {
	dir := t.TempDir()
	c1, err := Open(testConfig(), 0, dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.Put("a", testMatrix(t, 26, 64, 900), true); err != nil {
		t.Fatal(err)
	}
	c2, err := Open(testConfig(), 0, dir)
	if err != nil {
		t.Fatal(err)
	}
	if rs, err := c2.Recover(); err != nil || rs.Registered != 1 {
		t.Fatalf("first recover: %+v, %v", rs, err)
	}
	rs, err := c2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rs.Registered != 0 || rs.Skipped != 1 {
		t.Fatalf("second recover = %+v, want 0 registered, 1 skipped", rs)
	}
	if st := c2.Stats(); st.Matrices != 1 {
		t.Fatalf("matrices after double recover = %d, want 1", st.Matrices)
	}
}

func TestRecoverFreshDirSweepsOrphans(t *testing.T) {
	dir := t.TempDir()
	// A crash before the first manifest write leaves a bare .atm file and
	// a stale temp file; neither was durably admitted.
	if err := os.WriteFile(filepath.Join(dir, "deadbeef-1.atm"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, ".atm-123.tmp"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := Open(testConfig(), 0, dir)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := c.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rs.Registered != 0 {
		t.Fatalf("recover of fresh dir registered %d entries", rs.Registered)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("orphans survived recover: %v", ents)
	}
}

func TestRecoverDeleteDropsEntryDurably(t *testing.T) {
	dir := t.TempDir()
	c1, err := Open(testConfig(), 0, dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.Put("a", testMatrix(t, 27, 64, 900), false); err != nil {
		t.Fatal(err)
	}
	if err := c1.Delete("a"); err != nil {
		t.Fatal(err)
	}
	c2, err := Open(testConfig(), 0, dir)
	if err != nil {
		t.Fatal(err)
	}
	if rs, err := c2.Recover(); err != nil || rs.Registered != 0 {
		t.Fatalf("recover after delete: %+v, %v — the deletion was not durable", rs, err)
	}
	if _, err := c2.Acquire("a"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted matrix resurrected: %v", err)
	}
}

// TestPutPersistFaultRollsBack: when the write-through cannot reach disk,
// the admission is rolled back entirely — a durable catalog never holds a
// matrix it cannot promise back after a crash.
func TestPutPersistFaultRollsBack(t *testing.T) {
	c := openDurable(t, 0)
	defer faultinject.Enable(1, faultinject.Rule{
		Site: "core.writefile", Kind: faultinject.KindError, Count: 1,
	})()
	err := c.Put("a", testMatrix(t, 28, 64, 900), false)
	if err == nil || !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("Put under write fault: %v, want injected error", err)
	}
	if _, err := c.Acquire("a"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("rolled-back matrix still acquirable: %v", err)
	}
	if st := c.Stats(); st.ResidentBytes != 0 || st.Matrices != 0 {
		t.Fatalf("stats after rollback: %+v, want empty catalog", st)
	}
	// The fault window has passed; the same Put now succeeds.
	if err := c.Put("a", testMatrix(t, 28, 64, 900), false); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentSpillReloadStorm hammers Acquire/Release over a working
// set roughly twice the budget, so every acquire round-trips through the
// spill/reload machinery while other goroutines race it. Run under -race;
// leakcheck asserts nothing is left behind.
func TestConcurrentSpillReloadStorm(t *testing.T) {
	leakcheck.Check(t)
	names := []string{"s0", "s1", "s2", "s3"}
	mats := make(map[string]*core.ATMatrix, len(names))
	var total int64
	for i, name := range names {
		m := testMatrix(t, int64(30+i), 64, 900)
		mats[name] = m
		total += m.Bytes()
	}
	c, err := Open(testConfig(), total/2+1, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	fingerprint := make(map[string][]byte, len(names))
	for name, m := range mats {
		fingerprint[name] = serialize(t, m)
		if err := c.Put(name, m, false); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 30; i++ {
				name := names[rng.Intn(len(names))]
				h, err := c.Acquire(name)
				if err != nil {
					// Budget contention with every goroutine holding a
					// lease is legal; data loss is not.
					if errors.Is(err, ErrBudget) {
						continue
					}
					t.Errorf("Acquire(%q): %v", name, err)
					return
				}
				if h.Matrix().NNZ() != mats[name].NNZ() {
					t.Errorf("matrix %q: nnz changed across spill/reload", name)
				}
				h.Release()
			}
		}(g)
	}
	wg.Wait()
	// Quiesced: every matrix must still round-trip bit-identically.
	for _, name := range names {
		h, err := c.Acquire(name)
		if err != nil {
			t.Fatalf("Acquire(%q) after storm: %v", name, err)
		}
		if !bytes.Equal(serialize(t, h.Matrix()), fingerprint[name]) {
			t.Fatalf("matrix %q corrupted by spill/reload storm", name)
		}
		h.Release()
	}
	st := c.Stats()
	if st.Reloads == 0 || st.Spills == 0 {
		t.Fatalf("storm exercised no spill/reload: %+v", st)
	}
}

// TestConcurrentSaveDeleteRace races Save (which leases the entry and
// writes it out) against Delete (which removes the backing file): every
// interleaving must yield either a complete, loadable save or a clean
// ErrNotFound — never a torn file or a deadlock. Run under -race.
func TestConcurrentSaveDeleteRace(t *testing.T) {
	leakcheck.Check(t)
	out := t.TempDir()
	for iter := 0; iter < 20; iter++ {
		c := openDurable(t, 0)
		m := testMatrix(t, int64(40+iter), 48, 500)
		if err := c.Put("a", m, false); err != nil {
			t.Fatal(err)
		}
		dst := filepath.Join(out, "saved.atm")
		var wg sync.WaitGroup
		wg.Add(2)
		errs := make([]error, 2)
		go func() {
			defer wg.Done()
			_, errs[0] = c.Save("a", dst)
		}()
		go func() {
			defer wg.Done()
			errs[1] = c.Delete("a")
		}()
		wg.Wait()
		if errs[1] != nil {
			t.Fatalf("iter %d: Delete: %v", iter, errs[1])
		}
		switch {
		case errs[0] == nil:
			if _, _, err := core.ReadATMatrixFile(dst); err != nil {
				t.Fatalf("iter %d: save reported success but file unreadable: %v", iter, err)
			}
		case errors.Is(errs[0], ErrNotFound):
			// Delete won the race before the lease; fine.
		default:
			t.Fatalf("iter %d: Save: %v", iter, errs[0])
		}
		if st := c.Stats(); st.ResidentBytes != 0 {
			t.Fatalf("iter %d: resident bytes = %d after delete and save done", iter, st.ResidentBytes)
		}
	}
}

// TestConcurrentRecoverAcquire runs Recover twice concurrently with a
// stream of Acquires: recovery must be idempotent and never hand out a
// broken entry. Run under -race.
func TestConcurrentRecoverAcquire(t *testing.T) {
	leakcheck.Check(t)
	dir := t.TempDir()
	c1, err := Open(testConfig(), 0, dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		name := string(rune('a' + i))
		if err := c1.Put(name, testMatrix(t, int64(50+i), 48, 500), i == 0); err != nil {
			t.Fatal(err)
		}
	}
	c2, err := Open(testConfig(), 0, dir)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c2.Recover(); err != nil {
				t.Errorf("Recover: %v", err)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 30; i++ {
			h, err := c2.Acquire("a")
			if err != nil {
				if errors.Is(err, ErrNotFound) {
					continue // recovery has not registered it yet
				}
				t.Errorf("Acquire during recover: %v", err)
				return
			}
			if h.Matrix() == nil {
				t.Error("nil matrix behind a valid handle")
			}
			h.Release()
		}
	}()
	wg.Wait()
	if st := c2.Stats(); st.Matrices != 3 {
		t.Fatalf("matrices after concurrent recover = %d, want 3", st.Matrices)
	}
}
