package catalog

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"atmatrix/internal/core"
	"atmatrix/internal/faultinject"
	"atmatrix/internal/mmio"
)

// Durable backing store. Layout of the data directory:
//
//	manifest.json        crash-safe JSON index of the file set
//	<hash>-<gen>.atm     one ATMAT1 stream per named matrix
//
// The manifest is the source of truth: an .atm file it does not reference
// is an orphan from an interrupted Put and is swept on Recover. Every
// manifest write goes through core.WriteFileAtomic, so a crash at any
// instant leaves either the old or the new manifest, never a torn one.

const manifestName = "manifest.json"

// manifestEntry is one matrix in the on-disk index. CRC32C is the ATMAT1
// footer checksum of the referenced file; a reload cross-checks the file
// against it before trusting the bytes, catching both bit rot and a
// manifest/file pairing gone stale.
type manifestEntry struct {
	Name        string `json:"name"`
	File        string `json:"file"`
	CRC32C      uint32 `json:"crc32c"`
	FileBytes   int64  `json:"file_bytes"`
	MatrixBytes int64  `json:"matrix_bytes"`
	Rows        int    `json:"rows"`
	Cols        int    `json:"cols"`
	NNZ         int64  `json:"nnz"`
	TilesSparse int    `json:"tiles_sparse"`
	TilesDense  int    `json:"tiles_dense"`
	Pinned      bool   `json:"pinned"`
	// Shards, when present, is the cluster shard map recorded for this
	// matrix — how its tile-row shards are replicated across workers. A
	// restarting coordinator rebuilds its placement from here instead of
	// re-shipping every shard.
	Shards *ShardMap `json:"shards,omitempty"`
}

type manifestFile struct {
	Version int             `json:"version"`
	Entries []manifestEntry `json:"entries"`
}

// encodeManifest renders the on-disk form of the manifest.
func encodeManifest(mf manifestFile) ([]byte, error) {
	data, err := json.MarshalIndent(mf, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("catalog: encoding manifest: %w", err)
	}
	return append(data, '\n'), nil
}

// decodeManifest parses the bytes of a manifest file.
func decodeManifest(data []byte) (manifestFile, error) {
	var mf manifestFile
	if err := json.Unmarshal(data, &mf); err != nil {
		return mf, fmt.Errorf("catalog: corrupt manifest: %w", err)
	}
	return mf, nil
}

// Open returns a catalog backed by dataDir (created if absent); an empty
// dataDir yields a memory-only catalog identical to New. Opening does not
// read existing state — call Recover to rebuild from a previous run's
// manifest.
func Open(cfg core.Config, budget int64, dataDir string) (*Catalog, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if budget < 0 {
		return nil, fmt.Errorf("catalog: negative budget %d", budget)
	}
	if dataDir != "" {
		if err := os.MkdirAll(dataDir, 0o755); err != nil {
			return nil, fmt.Errorf("catalog: creating data dir: %w", err)
		}
	}
	return &Catalog{
		cfg:     cfg,
		budget:  budget,
		dataDir: dataDir,
		entries: make(map[string]*entry),
		lru:     list.New(),
	}, nil
}

// fileFor builds the backing file name for one admission of name: a short
// content-independent hash of the name (names may contain characters the
// filesystem rejects) plus a per-catalog generation number, so re-admitting
// a deleted name never races the old file's removal.
func (c *Catalog) fileFor(name string) string {
	sum := sha256.Sum256([]byte(name))
	return fmt.Sprintf("%s-%d.atm", hex.EncodeToString(sum[:8]), c.gen.Add(1))
}

// persist writes the matrix through to the data directory and records the
// file on the entry. Runs off-lock (serialization is O(bytes)); if the
// entry was deleted while writing, the fresh file is removed again.
func (c *Catalog) persist(e *entry, m *core.ATMatrix) error {
	c.persisting.Add(1)
	defer c.persisting.Add(-1)
	file := c.fileFor(e.name)
	path := filepath.Join(c.dataDir, file)
	var crc uint32
	size, err := core.WriteFileAtomic(path, func(w io.Writer) (n int64, err error) {
		n, crc, err = m.Encode(w)
		return n, err
	})
	if err != nil {
		return err
	}
	c.mu.Lock()
	if e.gone {
		c.mu.Unlock()
		os.Remove(path)
		return nil
	}
	e.file, e.crc, e.fileBytes, e.persisted = file, crc, size, true
	c.mu.Unlock()
	return nil
}

// flushManifest rewrites the manifest from the current entry set. Writes
// are serialized (last snapshot wins) and atomic, so concurrent Put/Delete
// always leave a manifest describing some consistent recent state.
func (c *Catalog) flushManifest() error {
	if c.dataDir == "" {
		return nil
	}
	c.manifestMu.Lock()
	defer c.manifestMu.Unlock()
	mf := manifestFile{Version: 1, Entries: []manifestEntry{}}
	c.mu.Lock()
	for _, e := range c.entries {
		if !e.persisted || e.gone {
			continue
		}
		mf.Entries = append(mf.Entries, manifestEntry{
			Name: e.name, File: e.file, CRC32C: e.crc,
			FileBytes: e.fileBytes, MatrixBytes: e.bytes,
			Rows: e.rows, Cols: e.cols, NNZ: e.nnz,
			TilesSparse: e.tilesSparse, TilesDense: e.tilesDense,
			Pinned: e.pinned, Shards: e.shards.Clone(),
		})
	}
	c.mu.Unlock()
	sort.Slice(mf.Entries, func(i, j int) bool { return mf.Entries[i].Name < mf.Entries[j].Name })
	data, err := encodeManifest(mf)
	if err != nil {
		return err
	}
	_, err = core.WriteFileAtomic(filepath.Join(c.dataDir, manifestName), func(w io.Writer) (int64, error) {
		n, err := w.Write(data)
		return int64(n), err
	})
	if err != nil {
		return fmt.Errorf("catalog: writing manifest: %w", err)
	}
	return nil
}

// reload reads a spilled entry's backing file back into memory, verifying
// the content against its footer and the footer against the manifest before
// returning it. The caller owns the entry's loading channel, which
// serializes reloads; the durability fields read here (file, crc) are
// immutable once the entry is persisted, so they are read without c.mu.
func (c *Catalog) reload(e *entry) (*core.ATMatrix, error) {
	if err := faultinject.Do("catalog.reload"); err != nil {
		return nil, fmt.Errorf("catalog: reloading %q: %w", e.name, err)
	}
	if c.dataDir == "" || !e.persisted {
		// Unreachable by construction (only persisted entries spill);
		// guards against future states.
		return nil, fmt.Errorf("catalog: reloading %q: %w (no durable copy)", e.name, ErrNotFound)
	}
	m, crc, err := core.ReadATMatrixFile(filepath.Join(c.dataDir, e.file))
	if err != nil {
		return nil, fmt.Errorf("catalog: reloading %q from %s: %w", e.name, e.file, err)
	}
	if crc != e.crc {
		return nil, fmt.Errorf("catalog: reloading %q: %w: file %s has footer %08x, manifest recorded %08x",
			e.name, core.ErrChecksum, e.file, crc, e.crc)
	}
	m.SealChecksums()
	return m, nil
}

// fileGeneration parses the generation suffix out of a backing file name
// ("<hash>-<gen>.atm"), or 0 when the name does not carry one.
func fileGeneration(file string) int64 {
	base := strings.TrimSuffix(file, ".atm")
	dash := strings.LastIndexByte(base, '-')
	if dash < 0 {
		return 0
	}
	var g int64
	for _, r := range base[dash+1:] {
		if r < '0' || r > '9' {
			return 0
		}
		g = g*10 + int64(r-'0')
	}
	return g
}

// removeDataFile deletes one backing file; removal failures are not
// surfaced (the manifest no longer references the file, so at worst it
// becomes an orphan the next Recover sweeps).
func (c *Catalog) removeDataFile(file string) {
	os.Remove(filepath.Join(c.dataDir, file))
}

// RecoverStats summarizes one Recover pass.
type RecoverStats struct {
	Registered int      // manifest entries registered for lazy reload
	Loaded     int      // pinned matrices reloaded eagerly
	Skipped    int      // names already present (idempotent re-run)
	Failed     []string // pinned entries whose eager reload failed
}

// Recover rebuilds the catalog from the data directory's manifest after a
// restart: every recorded matrix is registered in the spilled state (so it
// is immediately visible to List/Info and lazily reloadable by Acquire),
// pinned matrices are additionally reloaded eagerly, and orphaned .atm
// files from interrupted writes are swept. Recover is idempotent — names
// already present are left untouched — and an absent manifest is an empty
// (fresh) store, not an error. A pinned entry whose eager reload fails is
// reported in Failed but stays registered: a later Acquire retries it.
func (c *Catalog) Recover() (RecoverStats, error) {
	var rs RecoverStats
	if c.dataDir == "" {
		return rs, fmt.Errorf("catalog: Recover on a memory-only catalog")
	}
	data, err := os.ReadFile(filepath.Join(c.dataDir, manifestName))
	if errors.Is(err, fs.ErrNotExist) {
		// Fresh store. Any .atm files are leftovers of writes that never
		// reached a manifest — they were never durably admitted.
		c.sweepOrphans(map[string]bool{})
		return rs, nil
	}
	if err != nil {
		return rs, fmt.Errorf("catalog: reading manifest: %w", err)
	}
	mf, err := decodeManifest(data)
	if err != nil {
		return rs, err
	}
	known := make(map[string]bool, len(mf.Entries))
	var pinned []string
	c.mu.Lock()
	for _, me := range mf.Entries {
		known[me.File] = true
		if _, ok := c.entries[me.Name]; ok {
			rs.Skipped++
			continue
		}
		e := &entry{
			name: me.Name, bytes: me.MatrixBytes, pinned: me.Pinned,
			rows: me.Rows, cols: me.Cols, nnz: me.NNZ,
			tilesSparse: me.TilesSparse, tilesDense: me.TilesDense,
			file: me.File, crc: me.CRC32C, fileBytes: me.FileBytes,
			persisted: true, shards: me.Shards,
		}
		// Keep the generation counter ahead of everything recovered, so
		// file names and shard-map generations minted after a restart
		// never collide with recorded ones.
		if g := fileGeneration(me.File); g > 0 {
			for cur := c.gen.Load(); cur < g && !c.gen.CompareAndSwap(cur, g); cur = c.gen.Load() {
			}
		}
		if me.Shards != nil {
			for cur := c.gen.Load(); cur < me.Shards.Generation && !c.gen.CompareAndSwap(cur, me.Shards.Generation); cur = c.gen.Load() {
			}
			// Fingerprints taken over stream and footer are all mmio.Residue:
			// drop a map of them; the matrix gets ephemeral shards instead.
			if len(me.Shards.Shards) > 0 && me.Shards.Shards[0].CRC32C == mmio.Residue {
				e.shards = nil
			}
		}
		if me.Rows > 0 && me.Cols > 0 {
			e.density = float64(me.NNZ) / (float64(me.Rows) * float64(me.Cols))
		}
		c.entries[me.Name] = e
		c.recovered++
		rs.Registered++
		if me.Pinned {
			pinned = append(pinned, me.Name)
		}
	}
	// Files owned by live entries (including ones admitted since boot)
	// are never orphans.
	for _, e := range c.entries {
		if e.file != "" {
			known[e.file] = true
		}
	}
	c.mu.Unlock()
	c.sweepOrphans(known)
	for _, name := range pinned {
		h, err := c.Acquire(name)
		if err != nil {
			rs.Failed = append(rs.Failed, fmt.Sprintf("%s: %v", name, err))
			continue
		}
		h.Release()
		rs.Loaded++
	}
	return rs, nil
}

// sweepOrphans removes .atm files (and stale temp files) the manifest does
// not account for. Skipped entirely while any write-through is in flight —
// its file may not be registered yet.
func (c *Catalog) sweepOrphans(known map[string]bool) {
	if c.persisting.Load() != 0 {
		return
	}
	ents, err := os.ReadDir(c.dataDir)
	if err != nil {
		return
	}
	for _, de := range ents {
		name := de.Name()
		if de.IsDir() || known[name] || name == manifestName {
			continue
		}
		if strings.HasSuffix(name, ".atm") ||
			(strings.HasPrefix(name, ".atm-") && strings.HasSuffix(name, ".tmp")) {
			os.Remove(filepath.Join(c.dataDir, name))
		}
	}
}
