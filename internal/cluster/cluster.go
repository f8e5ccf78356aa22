// Package cluster distributes ATMULT across atserve processes: a
// coordinator shards each operand's tile-rows over worker nodes by the
// paper's §III-F round-robin placement (sched.PlaceRoundRobin — the same
// policy that homes tile-rows on sockets, lifted one level), uploads the
// shards as CRC-footered .atm streams into the workers' shard stores,
// executes one task per shard of the left operand by reference, and merges
// the disjoint partial products back into one band-grid result.
//
// There is one operand transport (proto.go): shard bytes reach a worker
// only through a shard upload, and an exec request is a JSON header of
// shard references and nothing else.
//
// The sharding is bit-transparent: shards carry whole original tiles,
// never split at band cuts or in the contraction direction (a tile
// spanning several bands rides in every shard it overlaps and the
// redundant spill-over targets are filtered at assembly), the coordinator
// ships the globally derived write threshold (core.PlanWriteThreshold),
// and every kernel accumulates per output cell in ascending contraction
// order — so a distributed multiply produces a byte-identical .atm stream
// to a local one, and the kill-9 chaos drill asserts exactly that.
//
// Robustness is the point of the package. Each worker is a RemoteTeam —
// the cluster-level analog of a sched.Team — with heartbeat-driven health
// (healthy → suspect → dead, revived by the next successful heartbeat),
// per-RPC deadlines, capped exponential backoff on transient failures
// (the service layer's Transient() marker classification), re-routing of a
// dead worker's tile-rows to the survivors, and graceful degradation to
// single-node local execution when no worker can serve a task. Corrupt
// wire transfers are the one failure that does not degrade silently: a
// shard whose stream fails its checksum on every candidate worker surfaces
// core.ErrChecksum so the service layer quarantines the operand
// combination.
package cluster

import (
	"net/http"
	"sync"
	"time"
)

// State is a worker's health as the coordinator sees it.
type State int32

const (
	// Healthy workers answer heartbeats and receive their owned tile-rows.
	Healthy State = iota
	// Suspect workers missed recent heartbeats; they keep their placement
	// and are reported as suspect until they answer again.
	Suspect
	// Dead workers missed DeadAfter consecutive heartbeats; their
	// tile-rows are re-routed to survivors. A later successful heartbeat
	// revives them (a rejoining process reuses its registration).
	Dead
)

func (s State) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Suspect:
		return "suspect"
	default:
		return "dead"
	}
}

// Options tunes the coordinator's failure handling. The zero value gets
// the defaults noted per field.
type Options struct {
	// HeartbeatPeriod is the interval between worker health probes
	// (default 1s). Negative disables the background heartbeat loop —
	// health then moves only on RPC outcomes, which the in-process tests
	// use for determinism.
	HeartbeatPeriod time.Duration
	// HeartbeatTimeout bounds one health probe (default 500ms).
	HeartbeatTimeout time.Duration
	// SuspectAfter and DeadAfter are the consecutive-miss thresholds of
	// the health state machine (defaults 1 and 3).
	SuspectAfter int
	DeadAfter    int
	// RPCTimeout is the per-exec-RPC deadline (default 60s). Every
	// attempt and retry gets its own.
	RPCTimeout time.Duration
	// MaxRetries bounds per-worker re-sends of a transiently failed exec
	// (total attempts per worker = 1 + MaxRetries; default 2). Permanent
	// failures skip straight to the next worker.
	MaxRetries int
	// RetryBase and RetryMax shape the capped exponential backoff between
	// retries (defaults 25ms and 1s).
	RetryBase time.Duration
	RetryMax  time.Duration
	// Replication is the shard replication factor R of the sharded
	// catalog: every shard is shipped to its primary and R−1 ring
	// successors (default 2). Capped by the worker count at placement
	// time; the anti-entropy pass restores R when workers (re)join.
	Replication int
	// MergeWindow bounds the bytes of in-flight partial-product frames
	// the coordinator buffers during the streaming merge (default 64 MiB).
	// A frame is only read off a worker response once the window has room,
	// so an overloaded merge backpressures workers over TCP instead of
	// accumulating whole shard results in coordinator memory.
	MergeWindow int64
	// RepairPeriod is the interval of the anti-entropy pass (shard-map ↔
	// worker-inventory reconciliation, CRC verification, re-replication
	// back to R, primary re-homing). Negative disables the background
	// loop — tests call RepairPass directly. The loop only starts once a
	// catalog is attached; default 5s.
	RepairPeriod time.Duration
	// Client is the HTTP client used for worker RPCs; nil uses a
	// dedicated client with connection reuse.
	Client *http.Client
}

// withDefaults fills the zero-value fields.
func (o Options) withDefaults() Options {
	if o.HeartbeatPeriod == 0 {
		o.HeartbeatPeriod = time.Second
	}
	if o.HeartbeatTimeout <= 0 {
		o.HeartbeatTimeout = 500 * time.Millisecond
	}
	if o.SuspectAfter <= 0 {
		o.SuspectAfter = 1
	}
	if o.DeadAfter <= 0 {
		o.DeadAfter = 3
	}
	if o.RPCTimeout <= 0 {
		o.RPCTimeout = 60 * time.Second
	}
	if o.MaxRetries == 0 {
		o.MaxRetries = 2
	}
	if o.MaxRetries < 0 {
		o.MaxRetries = 0
	}
	if o.RetryBase <= 0 {
		o.RetryBase = 25 * time.Millisecond
	}
	if o.RetryMax <= 0 {
		o.RetryMax = time.Second
	}
	if o.Replication == 0 {
		o.Replication = 2
	}
	if o.Replication < 1 {
		o.Replication = 1
	}
	if o.MergeWindow <= 0 {
		o.MergeWindow = 64 << 20
	}
	if o.RepairPeriod == 0 {
		o.RepairPeriod = 5 * time.Second
	}
	if o.Client == nil {
		o.Client = &http.Client{}
	}
	return o
}

// health is the per-worker miss counter and state, driven by heartbeat
// results and transport-level RPC failures alike.
type health struct {
	mu     sync.Mutex
	state  State
	misses int
}

// observe folds one probe result into the state machine and returns the
// new state: any success resets to Healthy (reviving Dead workers — a
// rejoined process needs no re-registration); consecutive failures walk
// Healthy → Suspect at suspectAfter misses and → Dead at deadAfter.
func (h *health) observe(ok bool, suspectAfter, deadAfter int) State {
	h.mu.Lock()
	defer h.mu.Unlock()
	if ok {
		h.misses = 0
		h.state = Healthy
		return h.state
	}
	h.misses++
	switch {
	case h.misses >= deadAfter:
		h.state = Dead
	case h.misses >= suspectAfter && h.state == Healthy:
		h.state = Suspect
	}
	return h.state
}

// current returns the state and miss count.
func (h *health) current() (State, int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.state, h.misses
}

// WorkerStatus is one worker's row in the coordinator's health report,
// surfaced through /healthz and /metrics.
type WorkerStatus struct {
	Addr   string `json:"addr"`
	State  string `json:"state"`
	Misses int    `json:"misses"`
}

// Stats is a snapshot of the coordinator's robustness counters.
type Stats struct {
	WorkersHealthy int `json:"workers_healthy"`
	WorkersSuspect int `json:"workers_suspect"`
	WorkersDead    int `json:"workers_dead"`

	// RemoteMultiplies counts distributed executions; LocalFallbacks
	// whole multiplies degraded to local execution (no usable workers);
	// LocalTasks single shard tasks executed locally after every worker
	// failed them.
	RemoteMultiplies int64 `json:"remote_multiplies"`
	LocalFallbacks   int64 `json:"local_fallbacks"`
	LocalTasks       int64 `json:"local_tasks"`

	RPCRetries    int64 `json:"rpc_retries"`
	TilesRerouted int64 `json:"tiles_rerouted"`

	// Sharded-catalog accounting. ShardedMatrices/ShardsTotal describe
	// the current shard maps; UnderReplicatedShards counts shards whose
	// healthy durable holders are below the replication factor (the
	// /healthz degradation signal); ShardShips/ShardShipBytes count shard
	// uploads (placement, re-replication, fills of missing references);
	// ShardRefHits/ShardRefBytes count operand bytes that did NOT cross
	// the wire because the worker resolved a reference from its store.
	ShardedMatrices       int   `json:"sharded_matrices"`
	ShardsTotal           int   `json:"shards_total"`
	UnderReplicatedShards int   `json:"under_replicated_shards"`
	ShardShips            int64 `json:"shard_ships"`
	ShardShipBytes        int64 `json:"shard_ship_bytes"`
	ReReplications        int64 `json:"re_replications"`
	ShardCRCFailures      int64 `json:"shard_crc_failures"`
	ShardRefHits          int64 `json:"shard_ref_hits"`
	ShardRefBytes         int64 `json:"shard_ref_bytes"`
	RepairPasses          int64 `json:"repair_passes"`

	// Streaming-merge accounting: frames merged and the high-water mark
	// of frame bytes buffered at once (always ≤ the configured window,
	// the chaos drill's memory assertion).
	MergeFrames    int64 `json:"merge_frames"`
	MergePeakBytes int64 `json:"merge_peak_bytes"`
}
