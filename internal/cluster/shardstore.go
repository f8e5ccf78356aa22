package cluster

import (
	"bytes"
	"fmt"
	"sync"

	"atmatrix/internal/core"
)

// ShardStore is a worker's shard holdings: CRC-verified shard operands
// keyed by (name, generation, shard), the only place operand bytes live on
// a worker. The coordinator fills it by shard upload — at PUT time
// (placement), during anti-entropy re-replication, and when an exec
// reports a reference missing — and exec requests reference shards by key.
//
// The store keeps both the raw .atm bytes (the inventory scrub re-hashes
// them, and re-serving them to a peer needs them verbatim) and the decoded
// matrix (so repeated multiplies do not pay the decode). Memory is bounded
// by the catalog admission policy upstream: a worker holds its shard
// assignments of cataloged matrices, which the coordinator drops on
// DELETE, plus the ephemeral shards of multiplies in flight, which the
// coordinator drops when each returns.
type ShardStore struct {
	mu     sync.Mutex
	shards map[ShardKey]*storedShard
}

type storedShard struct {
	data []byte
	crc  uint32
	m    *core.ATMatrix
}

// NewShardStore returns an empty store.
func NewShardStore() *ShardStore {
	return &ShardStore{shards: make(map[ShardKey]*storedShard)}
}

// Put verifies and stores one shard. The bytes must hash to wantCRC and
// decode as a valid ATMAT1 stream — a corrupt upload is rejected (wrapped
// in core.ErrChecksum for the transport's corrupt classification) and
// never stored, so the store only ever holds shards that were good on
// arrival. Re-putting an existing key overwrites it (idempotent
// re-replication).
func (s *ShardStore) Put(key ShardKey, wantCRC uint32, data []byte) error {
	if got := core.ChecksumBytes(data); got != wantCRC {
		return fmt.Errorf("cluster: shard %s upload: %w: payload hashes %08x, expected %08x",
			key, core.ErrChecksum, got, wantCRC)
	}
	m, err := core.ReadATMatrix(bytes.NewReader(data))
	if err != nil {
		return fmt.Errorf("cluster: shard %s upload: %w", key, err)
	}
	m.SealChecksums()
	s.mu.Lock()
	s.shards[key] = &storedShard{data: data, crc: wantCRC, m: m}
	s.mu.Unlock()
	return nil
}

// matrix resolves a reference: the stored shard must exist and match the
// reference's CRC and size fingerprint. A stale holding (earlier
// generation re-used the key — impossible by construction, but cheap to
// check — or fingerprint drift) is dropped and reported missing, so the
// coordinator uploads the shard afresh instead of the worker computing on
// wrong bytes.
func (s *ShardStore) matrix(ref shardRef) (*core.ATMatrix, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.shards[ref.ShardKey]
	if !ok {
		return nil, false
	}
	if st.crc != ref.CRC || int64(len(st.data)) != ref.Bytes {
		delete(s.shards, ref.ShardKey)
		return nil, false
	}
	return st.m, true
}

// Drop removes every generation and shard of a matrix name, returning how
// many entries were dropped.
func (s *ShardStore) Drop(name string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for k := range s.shards {
		if k.Name == name {
			delete(s.shards, k)
			n++
		}
	}
	return n
}

// DropKeys removes specific shards (anti-entropy cleanup of stale or
// corrupt holdings).
func (s *ShardStore) DropKeys(keys []ShardKey) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, k := range keys {
		if _, ok := s.shards[k]; ok {
			delete(s.shards, k)
			n++
		}
	}
	return n
}

// inventoryEntry is one shard's row in a worker's inventory report. CRC32C
// is recomputed over the stored bytes at report time — the same
// trust-nothing posture as the catalog scrubber — so silent in-memory
// corruption surfaces as a fingerprint mismatch the coordinator's
// anti-entropy pass can act on.
type inventoryEntry struct {
	ShardKey
	CRC32C uint32 `json:"crc32c"`
	Bytes  int64  `json:"bytes"`
}

// Inventory reports current holdings with freshly recomputed checksums.
func (s *ShardStore) Inventory() []inventoryEntry {
	s.mu.Lock()
	snap := make(map[ShardKey]*storedShard, len(s.shards))
	for k, st := range s.shards {
		snap[k] = st
	}
	s.mu.Unlock()
	out := make([]inventoryEntry, 0, len(snap))
	for k, st := range snap {
		out = append(out, inventoryEntry{
			ShardKey: k,
			CRC32C:   core.ChecksumBytes(st.data),
			Bytes:    int64(len(st.data)),
		})
	}
	return out
}

// Len reports the number of stored shards.
func (s *ShardStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.shards)
}
