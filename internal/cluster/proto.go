package cluster

import (
	"encoding/json"
	"fmt"
	"io"
)

// The cluster wire has one operand transport. Operand bytes move only as
// shard uploads — POST /cluster/v1/shards, an .atm stream fingerprinted by
// its CRC-32C footer, which the worker decodes, verifies and keeps in its
// ShardStore — and POST
// /cluster/v1/exec carries exactly one JSON execHeader: the global plan
// parameters plus (name, generation, shard) references with the CRC/size
// fingerprint the stored shard must match. A worker that cannot resolve a
// reference answers 409 with the missing keys; the coordinator PUTs those
// shards to it and re-sends the same exec. The .atm streams carry their own
// CRC-32C footers, so a flipped bit anywhere in a shard fails the upload
// with core.ErrChecksum (or a typed core.TileError naming the damaged
// tile) rather than producing a silently wrong shard product.
//
// A successful exec response is the product streamed as length-prefixed
// per-tile-row .atm frames (core.WriteTileRowFrames) — the coordinator
// merges each frame as it arrives under its bounded reassembly window
// instead of buffering whole shard products. Failures are JSON {"error",
// "corrupt", "transient", "missing_shards"} with a matching status code.

// ShardKey names one stored shard: a matrix name, the shard-map generation
// it was cut under, and the shard index. Workers key their stores by it;
// exec references and inventory reports carry it. Catalog generations are
// positive; a negative generation marks a shard cut for one multiply only
// (an operand with no usable recorded map), dropped when that multiply
// returns.
type ShardKey struct {
	Name  string `json:"name"`
	Gen   int64  `json:"gen"`
	Shard int    `json:"shard"`
}

func (k ShardKey) String() string {
	return fmt.Sprintf("%s@%d/%d", k.Name, k.Gen, k.Shard)
}

// ephemeral reports whether the shard lives for one multiply only.
func (k ShardKey) ephemeral() bool { return k.Gen < 0 }

// shardRef is a shard reference in an exec header: the key to look up plus
// the CRC/size fingerprint the stored shard must match — a worker holding
// a stale shard under the right key reports it missing rather than
// computing on it.
type shardRef struct {
	ShardKey
	CRC   uint32 `json:"crc32c"`
	Bytes int64  `json:"bytes"`
	// TileIdx maps the shard's tiles (in shard order) to their indices in
	// the full matrix's canonical tile order. The partitioner emits tiles
	// in recursion order — not reconstructible from tile coordinates alone
	// — and the operator accumulates contributions in operand tile order,
	// so a worker reassembling a matrix from several shards needs these to
	// splice the tiles back bit-identically. A tile spanning a band cut
	// rides in several shards under the SAME index, making dedup exact.
	// Empty for single-shard operands, whose order is trivially preserved.
	TileIdx []int `json:"tile_idx,omitempty"`
}

// execHeader is the whole exec request: the coordinator's global plan
// parameters — the block granularity the shards were partitioned at and
// the globally derived write threshold (a worker deriving its own water
// level from a shard-local density map would classify result tiles
// differently than a local run, breaking byte-identity) — plus the shard
// references each operand resolves through. Multiple refs assemble into
// one operand (all of B's shards for a row-shard task).
type execHeader struct {
	BAtomic        int        `json:"b_atomic"`
	WriteThreshold float64    `json:"write_threshold"`
	ARefs          []shardRef `json:"a_refs"`
	BRefs          []shardRef `json:"b_refs"`
}

const (
	// maxHeaderBytes bounds an encoded execHeader (exclusive) and the other
	// JSON request bodies a worker decodes.
	maxHeaderBytes  = 1 << 20
	maxOperandBytes = int64(1) << 33
)

// encodeExecHeader renders the exec request body.
func encodeExecHeader(hdr execHeader) ([]byte, error) {
	hj, err := json.Marshal(hdr)
	if err != nil {
		return nil, fmt.Errorf("cluster: encoding exec header: %w", err)
	}
	if len(hj) >= maxHeaderBytes {
		return nil, fmt.Errorf("cluster: exec header %d bytes reaches limit %d", len(hj), maxHeaderBytes)
	}
	return hj, nil
}

// decodeExecHeader reads one exec request body — a single JSON object
// shorter than maxHeaderBytes, never reading past that many bytes — and
// rejects anything a coordinator would not send: a block size that is not
// a power of two in range, an operand without references, and negative
// shard indices, sizes or tile indices. The size bound also bounds every
// slice the decode allocates (a tile index costs at least two bytes).
func decodeExecHeader(r io.Reader) (execHeader, error) {
	var hdr execHeader
	hj, err := io.ReadAll(io.LimitReader(r, maxHeaderBytes))
	if err != nil {
		return hdr, fmt.Errorf("cluster: reading exec header: %w", err)
	}
	if len(hj) == maxHeaderBytes {
		return hdr, fmt.Errorf("cluster: exec header reaches limit %d", maxHeaderBytes)
	}
	if err := json.Unmarshal(hj, &hdr); err != nil {
		return hdr, fmt.Errorf("cluster: decoding exec header: %w", err)
	}
	if hdr.BAtomic <= 0 || hdr.BAtomic > 1<<20 || hdr.BAtomic&(hdr.BAtomic-1) != 0 {
		return hdr, fmt.Errorf("cluster: exec header b_atomic %d not a power of two in range", hdr.BAtomic)
	}
	if len(hdr.ARefs) == 0 || len(hdr.BRefs) == 0 {
		return hdr, fmt.Errorf("cluster: exec header references %d A and %d B shards, need both operands", len(hdr.ARefs), len(hdr.BRefs))
	}
	for _, refs := range [][]shardRef{hdr.ARefs, hdr.BRefs} {
		for _, ref := range refs {
			if ref.Shard < 0 || ref.Bytes < 0 {
				return hdr, fmt.Errorf("cluster: exec header reference %s has negative shard or size %d", ref.ShardKey, ref.Bytes)
			}
			for _, idx := range ref.TileIdx {
				if idx < 0 {
					return hdr, fmt.Errorf("cluster: exec header reference %s has negative tile index %d", ref.ShardKey, idx)
				}
			}
		}
	}
	return hdr, nil
}

// readLimited slurps a payload, rejecting anything over the limit.
func readLimited(r io.Reader, limit int64) ([]byte, error) {
	data, err := io.ReadAll(io.LimitReader(r, limit+1))
	if err != nil {
		return nil, err
	}
	if int64(len(data)) > limit {
		return nil, fmt.Errorf("cluster: payload exceeds %d-byte limit", limit)
	}
	return data, nil
}

// rpcFailure is the JSON error body of a failed worker RPC.
type rpcFailure struct {
	Error string `json:"error"`
	// Corrupt marks shard uploads that failed their checksum or structural
	// validation — the coordinator escalates these to the service layer's
	// combination quarantine instead of retrying forever.
	Corrupt bool `json:"corrupt,omitempty"`
	// Transient marks failures worth re-sending to the same worker.
	Transient bool `json:"transient,omitempty"`
	// MissingShards lists referenced shards the worker does not hold (or
	// holds with the wrong fingerprint); the coordinator uploads them and
	// re-sends the exec.
	MissingShards []ShardKey `json:"missing_shards,omitempty"`
}
