package core

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"atmatrix/internal/faultinject"
	"atmatrix/internal/mat"
)

// tmpResidue returns the leftover temp files WriteFile may have abandoned in
// dir; crash-safe writes must leave none behind on any path.
func tmpResidue(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var left []string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".atm-") {
			left = append(left, e.Name())
		}
	}
	return left
}

func TestWriteFileRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	src, err := genHeterogeneous(rng, 120)
	if err != nil {
		t.Fatal(err)
	}
	am, _, err := Partition(src, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "m.atm")
	n, err := am.WriteFile(path)
	if err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != n {
		t.Fatalf("WriteFile reported %d bytes, file has %d", n, fi.Size())
	}
	back, _, err := ReadATMatrixFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !back.ToDense().EqualApprox(am.ToDense(), 0) {
		t.Fatal("content mismatch after file round trip")
	}
	if left := tmpResidue(t, dir); left != nil {
		t.Fatalf("temp residue after successful write: %v", left)
	}
}

func TestWriteFileCrashLeavesOldContentIntact(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	cfg := testConfig()
	first, err := genHeterogeneous(rng, 90)
	if err != nil {
		t.Fatal(err)
	}
	amOld, _, err := Partition(first, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "m.atm")
	if _, err := amOld.WriteFile(path); err != nil {
		t.Fatal(err)
	}

	// Simulate a crash in the middle of overwriting with new content: the
	// injected fault aborts the write after the temp file exists.
	defer faultinject.Enable(1, faultinject.Rule{
		Site: "core.writefile", Kind: faultinject.KindError,
	})()
	second, err := genHeterogeneous(rng, 130)
	if err != nil {
		t.Fatal(err)
	}
	amNew, _, err := Partition(second, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := amNew.WriteFile(path); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("injected write error = %v, want ErrInjected", err)
	}
	// The destination still holds the previous, checksum-valid stream and
	// no temp file was left behind.
	back, _, err := ReadATMatrixFile(path)
	if err != nil {
		t.Fatalf("destination torn after aborted overwrite: %v", err)
	}
	if !back.ToDense().EqualApprox(amOld.ToDense(), 0) {
		t.Fatal("destination content changed by aborted overwrite")
	}
	if left := tmpResidue(t, dir); left != nil {
		t.Fatalf("temp residue after aborted write: %v", left)
	}
}

func TestReadATMatrixFileRejectsCorruption(t *testing.T) {
	am, _, err := Partition(mat.NewCOO(16, 16), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "m.atm")
	if _, err := am.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xff // corrupt the CRC-32C footer
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadATMatrixFile(path); !errors.Is(err, ErrChecksum) {
		t.Fatalf("corrupt file error = %v, want ErrChecksum", err)
	}
}
