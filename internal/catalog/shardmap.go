package catalog

import "fmt"

// ShardMap records how one cataloged matrix is sharded across cluster
// workers: which tile-row bands each shard owns, the fingerprint of the
// shard's .atm stream — its CRC-32C footer; the coordinator regenerates
// shard bytes from its local copy deterministically, so it identifies
// content, not a file — and the durable replica set holding it. The coordinator
// builds and maintains it; the catalog only stores it — in memory and,
// on a durable catalog, in the manifest, so a restarting coordinator
// recovers the placement without re-shipping every shard.
type ShardMap struct {
	// Generation distinguishes shard sets across re-admissions of a name;
	// workers key their stores by (name, generation, shard) and the exec
	// references carry it, so a stale shard from an earlier generation can
	// never satisfy a current reference.
	Generation  int64       `json:"generation"`
	Replication int         `json:"replication"`
	Shards      []ShardMeta `json:"shards"`
}

// ShardMeta is one shard's row in the map.
type ShardMeta struct {
	ID int `json:"id"`
	// Bands are the tile-row band indices this shard owns (the §III-F
	// round-robin assignment). Tiles spanning into an owned band ride
	// along whole, so the shard's tile set is derivable from the matrix
	// plus this list alone.
	Bands []int `json:"bands"`
	// CRC32C and Bytes fingerprint the shard's serialized stream.
	CRC32C uint32 `json:"crc32c"`
	Bytes  int64  `json:"bytes"`
	// Primary is the worker address currently fronting this shard;
	// Replicas is the full durable holder set (primary included), in ring
	// order. Failover re-points Primary at a surviving replica.
	Primary  string   `json:"primary"`
	Replicas []string `json:"replicas"`
}

// Clone deep-copies the map so callers can mutate their view without
// racing the catalog's stored copy.
func (sm *ShardMap) Clone() *ShardMap {
	if sm == nil {
		return nil
	}
	out := &ShardMap{Generation: sm.Generation, Replication: sm.Replication}
	out.Shards = make([]ShardMeta, len(sm.Shards))
	for i, s := range sm.Shards {
		s.Bands = append([]int(nil), s.Bands...)
		s.Replicas = append([]string(nil), s.Replicas...)
		out.Shards[i] = s
	}
	return out
}

// SetShardMap records (or, with nil, clears) the shard map of a cataloged
// matrix and persists it through the manifest on a durable catalog. The
// map is stored as a private copy.
func (c *Catalog) SetShardMap(name string, sm *ShardMap) error {
	c.mu.Lock()
	e, ok := c.entries[name]
	if !ok || e.gone {
		c.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	e.shards = sm.Clone()
	c.mu.Unlock()
	return c.flushManifest()
}

// ShardMaps snapshots every recorded shard map by matrix name — the
// coordinator's recovery source after a restart.
func (c *Catalog) ShardMaps() map[string]*ShardMap {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]*ShardMap)
	for name, e := range c.entries {
		if !e.gone && e.shards != nil {
			out[name] = e.shards.Clone()
		}
	}
	return out
}

// NextGeneration hands out a fresh shard-map generation from the catalog's
// monotonic counter (the same counter that versions backing file names;
// Recover advances it past every recovered value, so generations stay
// unique across restarts).
func (c *Catalog) NextGeneration() int64 { return c.gen.Add(1) }
