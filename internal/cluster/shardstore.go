package cluster

import (
	"bytes"
	"fmt"
	"io"
	"sync"

	"atmatrix/internal/core"
)

// ShardStore is a worker's shard holdings: verified shard operands keyed
// by (name, generation, shard), the only place operand bytes live on a
// worker. The coordinator fills it by shard upload — at PUT time
// (placement), during anti-entropy re-replication, and when an exec
// reports a reference missing — and exec requests reference shards by key.
//
// The store keeps the decoded, sealed matrix the worker multiplies and the
// fingerprint (footer CRC and size) of the stream it arrived as; the raw
// bytes are not kept. Memory is bounded by the catalog admission policy
// upstream: a worker holds its shard assignments of cataloged matrices,
// which the coordinator drops on DELETE, plus the ephemeral shards of
// multiplies in flight, which the coordinator drops when each returns.
type ShardStore struct {
	mu     sync.Mutex
	shards map[ShardKey]*storedShard
}

type storedShard struct {
	crc   uint32
	bytes int64
	m     *core.ATMatrix
}

// NewShardStore returns an empty store.
func NewShardStore() *ShardStore {
	return &ShardStore{shards: make(map[ShardKey]*storedShard)}
}

// Put verifies and stores one shard. The bytes must decode as a valid
// ATMAT1 stream whose footer is wantCRC — a corrupt upload is rejected
// (carrying core.ErrChecksum for the transport's corrupt classification)
// and never stored, so the store only ever holds shards that were good on
// arrival. Re-putting an existing key overwrites it (idempotent
// re-replication).
func (s *ShardStore) Put(key ShardKey, wantCRC uint32, data []byte) error {
	m, crc, err := core.DecodeATMatrix(bytes.NewReader(data))
	if err != nil {
		return fmt.Errorf("cluster: shard %s upload: %w", key, err)
	}
	if crc != wantCRC {
		return fmt.Errorf("cluster: shard %s upload: %w: footer %08x, expected %08x",
			key, core.ErrChecksum, crc, wantCRC)
	}
	m.SealChecksums()
	s.mu.Lock()
	s.shards[key] = &storedShard{crc: crc, bytes: int64(len(data)), m: m}
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
	if st.crc != ref.CRC || st.bytes != ref.Bytes {
		delete(s.shards, ref.ShardKey)
		return nil, false
	}
	return st.m, true
}

// Drop removes every generation and shard of a matrix name (unless name is
// empty) and the given keys (anti-entropy cleanup of stale or corrupt
// holdings), returning how many entries were dropped.
func (s *ShardStore) Drop(name string, keys []ShardKey) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.shards)
	for k := range s.shards {
		if name != "" && k.Name == name {
			delete(s.shards, k)
		}
	}
	for _, k := range keys {
		delete(s.shards, k)
	}
	return n - len(s.shards)
}

// inventoryEntry is one shard's row in a worker's inventory report: the
// fingerprint of the shard the worker holds, re-verified at report time —
// the same trust-nothing posture as the catalog scrubber — so silent
// in-memory corruption surfaces as a fingerprint mismatch the coordinator's
// anti-entropy pass can act on.
type inventoryEntry struct {
	ShardKey
	CRC32C uint32 `json:"crc32c"`
	Bytes  int64  `json:"bytes"`
}

// Inventory reports current holdings. Each shard's tile seals are
// re-verified on the matrix the worker multiplies; one that fails reports
// the fingerprint of what it now holds — its stream re-encoded — which no
// shard map records.
func (s *ShardStore) Inventory() []inventoryEntry {
	s.mu.Lock()
	snap := make(map[ShardKey]*storedShard, len(s.shards))
	for k, st := range s.shards {
		snap[k] = st
	}
	s.mu.Unlock()
	out := make([]inventoryEntry, 0, len(snap))
	for k, st := range snap {
		e := inventoryEntry{ShardKey: k, CRC32C: st.crc, Bytes: st.bytes}
		if st.m.VerifyChecksums() >= 0 {
			e.Bytes, e.CRC32C, _ = st.m.Encode(io.Discard)
		}
		out = append(out, e)
	}
	return out
}

// Len reports the number of stored shards.
func (s *ShardStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.shards)
}
