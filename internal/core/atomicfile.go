package core

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"atmatrix/internal/faultinject"
)

// WriteFileAtomic writes whatever the callback produces to path
// crash-safely: the stream goes to a temporary file in the same directory,
// is fsynced, and atomically renamed over the destination, so a process
// killed mid-write never leaves a torn file — readers see either the
// previous content or the complete new stream. The containing directory is
// fsynced after the rename so the new name itself survives a crash. It is
// the write path for everything durable in the system: .atm streams, the
// catalog manifest, and atgen outputs.
func WriteFileAtomic(path string, write func(io.Writer) (int64, error)) (n int64, err error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".atm-*.tmp")
	if err != nil {
		return 0, fmt.Errorf("core: creating temp file in %s: %w", dir, err)
	}
	tmpName := tmp.Name()
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmpName)
		}
	}()
	if err := faultinject.Do("core.writefile"); err != nil {
		// Simulated crash mid-write: the deferred cleanup removes the
		// temp file and the destination is untouched.
		return 0, err
	}
	n, err = write(tmp)
	if err != nil {
		return n, err
	}
	if err = tmp.Sync(); err != nil {
		return n, fmt.Errorf("core: syncing %s: %w", tmpName, err)
	}
	if err = tmp.Close(); err != nil {
		return n, fmt.Errorf("core: closing %s: %w", tmpName, err)
	}
	if err = os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return n, fmt.Errorf("core: renaming into place: %w", err)
	}
	// Durability of the rename itself: fsync the directory. Some platforms
	// reject directory fsync; that only weakens durability, not atomicity,
	// so such errors are ignored.
	if d, derr := os.Open(dir); derr == nil {
		d.Sync()
		d.Close()
	}
	return n, nil
}

// WriteFile serializes the AT MATRIX to path crash-safely through
// WriteFileAtomic.
func (a *ATMatrix) WriteFile(path string) (int64, error) {
	return WriteFileAtomic(path, a.WriteTo)
}

// ReadATMatrixFile reads an AT MATRIX from a file written by WriteFile (or
// any ATMAT1 stream on disk) and returns it with its verified footer
// CRC-32C.
func ReadATMatrixFile(path string) (*ATMatrix, uint32, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	return DecodeATMatrix(f)
}
