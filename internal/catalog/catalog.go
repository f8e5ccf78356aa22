// Package catalog implements the named-matrix store of the service layer:
// the paper frames AT MATRIX as a storage layout inside a main-memory DBMS,
// where matrices are persistent named objects and multiplications arrive as
// queries against them. The catalog keeps partitioned AT MATRICES resident,
// hands out ref-counted read handles to the job layer, tracks resident
// bytes against a configurable budget, and evicts unpinned entries in LRU
// order when a new matrix would not fit — the buffer-pool role of the
// serving stack.
//
// With a data directory attached (Open), the catalog is durable: every
// admitted matrix is written through to an .atm file, a crash-safe JSON
// manifest records the file set, LRU pressure spills entries to disk
// instead of destroying them, Acquire transparently reloads spilled
// entries with checksum verification, and Recover rebuilds the catalog
// from the manifest after a restart. See durable.go and scrub.go.
package catalog

import (
	"container/list"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"atmatrix/internal/core"
	"atmatrix/internal/faultinject"
	"atmatrix/internal/mmio"
)

var (
	// ErrNotFound reports a name with no matrix behind it — never loaded,
	// deleted, or evicted without a durable copy. A *spilled* matrix is
	// found: Acquire reloads it from disk instead of failing.
	ErrNotFound = errors.New("catalog: matrix not found")
	// ErrExists reports a Put against a name that is already resident;
	// delete first — silent replacement under concurrent readers is a
	// correctness trap the catalog refuses to offer.
	ErrExists = errors.New("catalog: matrix already exists")
	// ErrBudget reports that a matrix cannot be admitted because the
	// memory budget is exhausted and everything evictable has been
	// evicted or spilled (the rest is pinned or in use by in-flight
	// jobs).
	ErrBudget = errors.New("catalog: memory budget exhausted")
)

// Format identifies the stream format of a load request.
type Format string

const (
	// FormatATM is the partitioned AT MATRIX binary (core.WriteTo).
	FormatATM Format = "atm"
	// FormatMatrixMarket is a MatrixMarket stream, partitioned on load.
	FormatMatrixMarket Format = "mtx"
	// FormatBinaryCOO is the compact binary COO, partitioned on load.
	FormatBinaryCOO Format = "coo"
)

// ParseFormat maps a user-supplied format string to a Format.
func ParseFormat(s string) (Format, error) {
	switch Format(s) {
	case FormatATM, FormatMatrixMarket, FormatBinaryCOO:
		return Format(s), nil
	case "":
		return FormatATM, nil
	default:
		return "", fmt.Errorf("catalog: unknown format %q (want atm, mtx or coo)", s)
	}
}

// Catalog is a concurrent store of named AT MATRICES, resident or spilled.
type Catalog struct {
	cfg     core.Config
	budget  int64  // resident-bytes cap; 0 = unlimited
	dataDir string // "" = memory-only catalog

	mu       sync.Mutex
	entries  map[string]*entry
	lru      *list.List // front = most recently used; resident entries only
	resident int64

	evictions int64
	hits      int64
	misses    int64
	spills    int64
	reloads   int64
	recovered int64

	gen        atomic.Int64 // per-catalog file-name generation counter
	persisting atomic.Int64 // Put write-throughs in flight (guards orphan sweep)
	manifestMu sync.Mutex   // serializes manifest writes

	hookMu    sync.Mutex
	onCorrupt func(name, reason string)
	onRepair  func(name string)

	scrubPasses     atomic.Int64
	scrubScanned    atomic.Int64
	scrubErrors     atomic.Int64
	scrubRepairs    atomic.Int64
	scrubUnrepaired atomic.Int64
	scrubStop       chan struct{}
	scrubDone       chan struct{}
}

// entry is one named matrix. A resident entry has m != nil and sits in the
// LRU list; a spilled entry has m == nil, lives only on disk, and is
// reloaded by the next Acquire. Its memory is accounted in
// Catalog.resident (counted == true) from admission or reload until it is
// spilled, or gone *and* no handle references it any more.
type entry struct {
	name    string
	m       *core.ATMatrix // nil while spilled
	bytes   int64
	refs    int
	pinned  bool
	gone    bool // deleted or evicted; unreachable via the map
	counted bool // bytes currently included in Catalog.resident
	elem    *list.Element

	// Info-facing metadata, kept valid while spilled so List and Info
	// never force a reload.
	rows, cols  int
	nnz         int64
	tilesSparse int
	tilesDense  int
	density     float64

	// Durability state. file/crc/fileBytes are written once (under c.mu)
	// when the write-through or recovery registers the on-disk copy and
	// are immutable afterwards.
	file      string // file name inside dataDir; "" = not persisted
	crc       uint32 // ATMAT1 footer CRC-32C of the persisted file
	fileBytes int64
	persisted bool
	loading   chan struct{} // non-nil while a reload is in flight

	// shards, when non-nil, is the cluster shard map of this matrix
	// (see ShardMap); it rides along in the durable manifest.
	shards *ShardMap
}

// setMeta refreshes the entry's Info-facing metadata from m.
func (e *entry) setMeta(m *core.ATMatrix) {
	sp, d := m.TileCount()
	e.rows, e.cols = m.Rows, m.Cols
	e.nnz = m.NNZ()
	e.tilesSparse, e.tilesDense = sp, d
	e.density = m.Density()
}

// New returns a memory-only catalog that partitions plain uploads with cfg
// and caps resident bytes at budget (0 = unlimited). Entries evicted under
// pressure are lost; use Open for a durable catalog.
func New(cfg core.Config, budget int64) (*Catalog, error) {
	return Open(cfg, budget, "")
}

// Config returns the partitioning configuration loads use.
func (c *Catalog) Config() core.Config { return c.cfg }

// DataDir returns the backing directory, or "" for a memory-only catalog.
func (c *Catalog) DataDir() string { return c.dataDir }

// Put admits an already-built AT MATRIX under the given name. A pinned
// entry is never evicted. Admission may spill or evict unpinned,
// unreferenced entries in LRU order to make room; when that is not enough
// the matrix is rejected with ErrBudget, and a matrix larger than the
// whole budget is always rejected. With a data directory the admission is
// durable-or-nothing: the matrix is written through to disk and recorded
// in the manifest before Put returns, and a persistence failure rolls the
// admission back.
func (c *Catalog) Put(name string, m *core.ATMatrix, pin bool) error {
	if name == "" {
		return fmt.Errorf("catalog: empty matrix name")
	}
	bytes := m.Bytes()
	if err := faultinject.Do("catalog.put"); err != nil {
		// Chaos hook: simulated admission/allocation failure.
		return fmt.Errorf("catalog: admitting %q: %w", name, err)
	}
	// Seal per-tile integrity checksums before taking the lock: the scrub
	// pass re-verifies them for as long as the matrix is resident.
	m.SealChecksums()
	c.mu.Lock()
	if _, ok := c.entries[name]; ok {
		c.mu.Unlock()
		return ErrExists
	}
	if err := c.makeRoomLocked(bytes); err != nil {
		budget, res := c.budget, c.resident
		c.mu.Unlock()
		return fmt.Errorf("%w: need %d bytes for %q, budget %d, resident %d", err, bytes, name, budget, res)
	}
	e := &entry{name: name, m: m, bytes: bytes, pinned: pin, counted: true}
	e.setMeta(m)
	e.elem = c.lru.PushFront(e)
	c.entries[name] = e
	c.resident += bytes
	c.mu.Unlock()
	if c.dataDir == "" {
		return nil
	}
	if err := c.persist(e, m); err != nil {
		// Roll the admission back: a matrix the store cannot make durable
		// is not admitted at all (outstanding handles, if any raced in,
		// stay valid until released).
		c.mu.Lock()
		if !e.gone {
			c.dropLocked(e)
		}
		c.mu.Unlock()
		return fmt.Errorf("catalog: persisting %q: %w", name, err)
	}
	return c.flushManifest()
}

// makeRoomLocked spills (durable) or evicts (memory-only) unpinned, unreferenced
// LRU entries until need bytes fit under the budget. Caller holds c.mu.
func (c *Catalog) makeRoomLocked(need int64) error {
	if c.budget == 0 {
		return nil
	}
	if need > c.budget {
		return ErrBudget
	}
	for c.resident+need > c.budget {
		victim := c.oldestEvictableLocked()
		if victim == nil {
			return ErrBudget
		}
		if victim.persisted {
			c.spillLocked(victim)
		} else {
			c.dropLocked(victim)
			c.evictions++
		}
	}
	return nil
}

// oldestEvictableLocked returns the least-recently-used entry with no pins and no
// outstanding handles, or nil. With a data directory, an entry whose
// write-through has not completed yet is not a candidate — evicting it
// would lose the only copy of data the caller was promised is durable.
// Caller holds c.mu.
func (c *Catalog) oldestEvictableLocked() *entry {
	for el := c.lru.Back(); el != nil; el = el.Prev() {
		e := el.Value.(*entry)
		if !e.pinned && e.refs == 0 && (c.dataDir == "" || e.persisted) {
			return e
		}
	}
	return nil
}

// spillLocked drops an entry's in-memory tiles but keeps it in the map: the
// durable copy on disk remains the matrix of record and the next Acquire
// reloads it. Caller holds c.mu; the entry is resident, unreferenced and
// persisted.
func (c *Catalog) spillLocked(e *entry) {
	c.lru.Remove(e.elem)
	e.elem = nil
	e.m = nil
	c.resident -= e.bytes
	e.counted = false
	c.spills++
}

// dropLocked unlinks an entry from the map and LRU list and releases its
// accounting if no handles keep it alive. Caller holds c.mu.
func (c *Catalog) dropLocked(e *entry) {
	delete(c.entries, e.name)
	if e.elem != nil {
		c.lru.Remove(e.elem)
		e.elem = nil
	}
	e.gone = true
	if e.refs == 0 && e.counted {
		c.resident -= e.bytes
		e.counted = false
	}
}

// Load reads a matrix from the stream in the given format, partitioning
// plain formats with the catalog's configuration, and admits it under the
// name. It returns the admitted matrix's Info.
func (c *Catalog) Load(name string, format Format, r io.Reader, pin bool) (Info, error) {
	var m *core.ATMatrix
	switch format {
	case FormatATM:
		am, err := core.ReadATMatrix(r)
		if err != nil {
			return Info{}, err
		}
		if am.BAtomic != c.cfg.BAtomic {
			// A foreign block size would be rejected by every multiply;
			// rebuild the layout at the catalog's granularity.
			re, _, err := am.Repartition(c.cfg)
			if err != nil {
				return Info{}, err
			}
			am = re
		}
		m = am
	case FormatMatrixMarket, FormatBinaryCOO:
		read := mmio.ReadMatrixMarket
		if format == FormatBinaryCOO {
			read = mmio.ReadBinary
		}
		src, err := read(r)
		if err != nil {
			return Info{}, err
		}
		am, _, err := core.Partition(src, c.cfg)
		if err != nil {
			return Info{}, err
		}
		m = am
	default:
		return Info{}, fmt.Errorf("catalog: unknown format %q", format)
	}
	if err := c.Put(name, m, pin); err != nil {
		return Info{}, err
	}
	return c.infoOf(name), nil
}

// Handle is a ref-counted read lease on a resident matrix. The matrix is
// guaranteed to stay alive (never evicted or spilled, its memory
// accounted) until Release. Handles may be shared across goroutines for
// Release purposes (the ref count is decremented exactly once no matter
// how many callers race on Release); reading the matrix concurrently is
// fine since leased matrices are immutable.
type Handle struct {
	c        *Catalog
	e        *entry
	m        *core.ATMatrix
	released atomic.Bool
}

// Matrix returns the leased AT MATRIX. Callers must treat it as read-only.
func (h *Handle) Matrix() *core.ATMatrix { return h.m }

// Name returns the name the matrix was acquired under.
func (h *Handle) Name() string { return h.e.name }

// Release returns the lease. Releasing twice — even concurrently, as when a
// job's deferred cleanup races its retry loop's error path — decrements the
// ref count exactly once.
func (h *Handle) Release() {
	if !h.released.CompareAndSwap(false, true) {
		return
	}
	h.c.releaseRef(h.e)
}

// releaseRef drops one reference and, for a gone entry, lets the last
// reader take the memory out of the accounting.
func (c *Catalog) releaseRef(e *entry) {
	c.mu.Lock()
	e.refs--
	if e.refs == 0 && e.gone && e.counted {
		// The entry was deleted or evicted while it was being read; its
		// memory leaves the accounting only now that the last reader is
		// done with it.
		c.resident -= e.bytes
		e.counted = false
	}
	c.mu.Unlock()
}

// Acquire leases a matrix for reading and marks it most recently used. A
// spilled matrix is transparently reloaded from the data directory —
// verifying both the manifest checksum and the file's own footer — before
// the lease is handed out, so callers never observe the difference between
// resident and spilled beyond latency. Concurrent Acquires of the same
// spilled name share one reload.
func (c *Catalog) Acquire(name string) (*Handle, error) {
	c.mu.Lock()
	for {
		e, ok := c.entries[name]
		if !ok {
			c.misses++
			c.mu.Unlock()
			return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
		}
		if e.m != nil {
			c.hits++
			e.refs++
			c.lru.MoveToFront(e.elem)
			m := e.m
			c.mu.Unlock()
			return &Handle{c: c, e: e, m: m}, nil
		}
		// Spilled. Join a reload already in flight, or run one.
		if ch := e.loading; ch != nil {
			c.mu.Unlock()
			<-ch
			c.mu.Lock()
			continue
		}
		ch := make(chan struct{})
		e.loading = ch
		c.misses++
		c.mu.Unlock()

		m, err := c.reload(e)

		c.mu.Lock()
		e.loading = nil
		close(ch)
		if err != nil {
			c.mu.Unlock()
			return nil, err
		}
		if e.gone {
			// Deleted while the reload was off-lock; the name may even be
			// bound to a different matrix by now.
			continue
		}
		bytes := m.Bytes()
		if err := c.makeRoomLocked(bytes); err != nil {
			budget, res := c.budget, c.resident
			c.mu.Unlock()
			return nil, fmt.Errorf("%w: reloading %q needs %d bytes, budget %d, resident %d", err, name, bytes, budget, res)
		}
		e.m = m
		e.bytes = bytes
		e.counted = true
		e.setMeta(m)
		e.elem = c.lru.PushFront(e)
		c.resident += bytes
		c.reloads++
		// Loop: the resident branch hands out the lease.
	}
}

// Save writes a resident matrix to path crash-safely (temp file + fsync +
// atomic rename, see core.WriteFile), holding a read lease for the duration
// so the matrix cannot be evicted mid-write. It returns the bytes written.
func (c *Catalog) Save(name, path string) (int64, error) {
	h, err := c.Acquire(name)
	if err != nil {
		return 0, err
	}
	defer h.Release()
	return h.Matrix().WriteFile(path)
}

// Delete removes a matrix from the catalog, its backing file, and the
// manifest. Outstanding handles stay valid; the memory is released from
// the accounting when the last one is released.
func (c *Catalog) Delete(name string) error {
	c.mu.Lock()
	e, ok := c.entries[name]
	if !ok {
		c.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	file := e.file
	c.dropLocked(e)
	c.mu.Unlock()
	if c.dataDir == "" {
		return nil
	}
	if file != "" {
		c.removeDataFile(file)
	}
	return c.flushManifest()
}

// Info describes one matrix in the catalog.
type Info struct {
	Name        string  `json:"name"`
	Rows        int     `json:"rows"`
	Cols        int     `json:"cols"`
	NNZ         int64   `json:"nnz"`
	Bytes       int64   `json:"bytes"`
	TilesSparse int     `json:"tiles_sparse"`
	TilesDense  int     `json:"tiles_dense"`
	Density     float64 `json:"density"`
	Pinned      bool    `json:"pinned"`
	Refs        int     `json:"refs"`
	Spilled     bool    `json:"spilled,omitempty"`
}

// infoForLocked snapshots one entry's Info. Caller holds c.mu.
func infoForLocked(e *entry) Info {
	return Info{
		Name: e.name, Rows: e.rows, Cols: e.cols,
		NNZ: e.nnz, Bytes: e.bytes,
		TilesSparse: e.tilesSparse, TilesDense: e.tilesDense,
		Density: e.density,
		Pinned:  e.pinned, Refs: e.refs,
		Spilled: e.m == nil,
	}
}

// infoOf snapshots one entry's Info; zero Info when absent.
func (c *Catalog) infoOf(name string) Info {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[name]; ok {
		return infoForLocked(e)
	}
	return Info{}
}

// List snapshots all matrices: resident entries in most-recently-used
// order, then spilled entries.
func (c *Catalog) List() []Info {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Info, 0, len(c.entries))
	for el := c.lru.Front(); el != nil; el = el.Next() {
		out = append(out, infoForLocked(el.Value.(*entry)))
	}
	for _, e := range c.entries {
		if e.m == nil {
			out = append(out, infoForLocked(e))
		}
	}
	return out
}

// Stats is a point-in-time snapshot of the catalog counters.
type Stats struct {
	Matrices      int   `json:"matrices"`
	Spilled       int   `json:"spilled"`
	ResidentBytes int64 `json:"resident_bytes"`
	BudgetBytes   int64 `json:"budget_bytes"`
	Evictions     int64 `json:"evictions"`
	Hits          int64 `json:"hits"`
	Misses        int64 `json:"misses"`
	Spills        int64 `json:"spills"`
	Reloads       int64 `json:"reloads"`
	Recovered     int64 `json:"recovered"`

	// IndexBytes sums IndexBytes over the resident matrices: the indexes
	// that products build and keep with their operands. The budget does
	// not count them.
	IndexBytes int64 `json:"index_bytes"`

	ScrubPasses     int64 `json:"scrub_passes"`
	ScrubScanned    int64 `json:"scrub_scanned"`
	ScrubErrors     int64 `json:"scrub_errors"`
	ScrubRepairs    int64 `json:"scrub_repairs"`
	ScrubUnrepaired int64 `json:"scrub_unrepaired"`
}

// Stats returns the current counters.
func (c *Catalog) Stats() Stats {
	c.mu.Lock()
	spilled := 0
	var index int64
	for _, e := range c.entries {
		if e.m == nil {
			spilled++
		} else {
			index += e.m.IndexBytes()
		}
	}
	s := Stats{
		Matrices:      len(c.entries),
		Spilled:       spilled,
		ResidentBytes: c.resident,
		IndexBytes:    index,
		BudgetBytes:   c.budget,
		Evictions:     c.evictions,
		Hits:          c.hits,
		Misses:        c.misses,
		Spills:        c.spills,
		Reloads:       c.reloads,
		Recovered:     c.recovered,
	}
	c.mu.Unlock()
	s.ScrubPasses = c.scrubPasses.Load()
	s.ScrubScanned = c.scrubScanned.Load()
	s.ScrubErrors = c.scrubErrors.Load()
	s.ScrubRepairs = c.scrubRepairs.Load()
	s.ScrubUnrepaired = c.scrubUnrepaired.Load()
	return s
}
