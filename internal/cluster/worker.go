package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"

	"atmatrix/internal/core"
	"atmatrix/internal/faultinject"
)

// Worker executes shard multiplications on behalf of a coordinator. It is
// plain HTTP handlers over the local ATMULT operator — a worker node runs
// the same atserve binary with -role worker, and the same process can keep
// serving its local catalog API. A worker holds operand shards in its
// ShardStore — HandleShardPut is the only handler that accepts operand
// bytes — and exec requests reference them by (name, generation, shard)
// key.
type Worker struct {
	cfg   core.Config
	store *ShardStore
	// sem bounds concurrent shard multiplications: each one already
	// spreads over every socket team, so stacking more than a couple only
	// queues inside the scheduler while pinning operand memory.
	sem chan struct{}
}

// NewWorker returns a worker executing shards under the given config. The
// config's topology and scheduling knobs apply locally; the block
// granularity and write threshold arrive per request from the
// coordinator's global plan.
func NewWorker(cfg core.Config) *Worker {
	slots := cfg.Topology.Sockets
	if slots < 1 {
		slots = 1
	}
	return &Worker{cfg: cfg, store: NewShardStore(), sem: make(chan struct{}, slots)}
}

// Store exposes the worker's shard store.
func (w *Worker) Store() *ShardStore { return w.store }

// Register mounts the worker's RPC endpoints on a mux.
func (w *Worker) Register(mux *http.ServeMux) {
	mux.HandleFunc("POST /cluster/v1/exec", w.HandleExec)
	mux.HandleFunc("GET /cluster/v1/health", w.HandleHealth)
	mux.HandleFunc("POST /cluster/v1/shards", w.HandleShardPut)
	mux.HandleFunc("GET /cluster/v1/shards", w.HandleShardInventory)
	mux.HandleFunc("POST /cluster/v1/shards/drop", w.HandleShardDrop)
}

// HandleHealth answers coordinator heartbeats.
func (w *Worker) HandleHealth(rw http.ResponseWriter, r *http.Request) {
	rw.Header().Set("Content-Type", "application/json")
	fmt.Fprintln(rw, `{"status":"ok"}`)
}

// HandleShardPut stores one replicated shard. The payload must decode as a
// valid ATMAT1 stream whose footer is the declared CRC; anything else is
// rejected 422 with the corrupt marker so the coordinator's quarantine
// path sees it.
func (w *Worker) HandleShardPut(rw http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	name := q.Get("name")
	gen, genErr := strconv.ParseInt(q.Get("gen"), 10, 64)
	shard, shardErr := strconv.Atoi(q.Get("shard"))
	crc, crcErr := strconv.ParseUint(q.Get("crc"), 16, 32)
	if !q.Has("name") || genErr != nil || shardErr != nil || crcErr != nil {
		writeFailure(rw, http.StatusBadRequest, rpcFailure{Error: "cluster: shard upload needs name, gen, shard and crc query parameters"})
		return
	}
	data, err := readLimited(r.Body, maxOperandBytes)
	if err != nil {
		writeFailure(rw, http.StatusBadRequest, rpcFailure{Error: fmt.Sprintf("cluster: reading shard payload: %v", err), Transient: true})
		return
	}
	key := ShardKey{Name: name, Gen: gen, Shard: shard}
	if err := w.store.Put(key, uint32(crc), data); err != nil {
		writeFailure(rw, http.StatusUnprocessableEntity, rpcFailure{Error: err.Error(), Corrupt: true})
		return
	}
	rw.Header().Set("Content-Type", "application/json")
	fmt.Fprintln(rw, `{"status":"ok"}`)
}

// HandleShardInventory reports the store's holdings with freshly
// re-verified fingerprints — the anti-entropy pass's ground truth.
func (w *Worker) HandleShardInventory(rw http.ResponseWriter, r *http.Request) {
	inv := w.store.Inventory()
	sort.Slice(inv, func(i, j int) bool {
		a, b := inv[i], inv[j]
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		if a.Gen != b.Gen {
			return a.Gen < b.Gen
		}
		return a.Shard < b.Shard
	})
	rw.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(rw).Encode(struct {
		Shards []inventoryEntry `json:"shards"`
	}{Shards: inv})
}

// HandleShardDrop removes shards by matrix name and/or explicit keys.
func (w *Worker) HandleShardDrop(rw http.ResponseWriter, r *http.Request) {
	var req struct {
		Name string     `json:"name"`
		Keys []ShardKey `json:"keys"`
	}
	if err := json.NewDecoder(http.MaxBytesReader(rw, r.Body, maxHeaderBytes)).Decode(&req); err != nil {
		writeFailure(rw, http.StatusBadRequest, rpcFailure{Error: fmt.Sprintf("cluster: decoding drop request: %v", err)})
		return
	}
	rw.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(rw, "{\"dropped\":%d}\n", w.store.Drop(req.Name, req.Keys))
}

// HandleExec decodes one shard task, resolves both operands from the shard
// store, runs the local ATMULT with the coordinator's shipped plan
// parameters and streams the partial product back as length-prefixed
// per-tile-row frames. References the store cannot satisfy come back 409
// with the missing keys, asking the coordinator to upload them.
func (w *Worker) HandleExec(rw http.ResponseWriter, r *http.Request) {
	// Chaos hook: the injected error's kind steers the coordinator's
	// failure handling — transient faults ask for a re-send (503),
	// permanent ones for a re-route (500).
	if err := faultinject.Do("worker.exec"); err != nil {
		writeFailure(rw, failureStatus(err), rpcFailure{Error: err.Error(), Transient: isTransient(err)})
		return
	}
	hdr, err := decodeExecHeader(r.Body)
	if err != nil {
		writeFailure(rw, http.StatusBadRequest, rpcFailure{Error: err.Error()})
		return
	}
	var operands [2]*core.ATMatrix
	var missing []ShardKey
	for i, refs := range [][]shardRef{hdr.ARefs, hdr.BRefs} {
		if operands[i], missing, err = w.assemble(refs, missing); err != nil {
			writeFailure(rw, http.StatusInternalServerError, rpcFailure{Error: err.Error()})
			return
		}
	}
	if len(missing) > 0 {
		writeFailure(rw, http.StatusConflict, rpcFailure{
			Error:         fmt.Sprintf("cluster: %d referenced shards not in store", len(missing)),
			MissingShards: missing,
		})
		return
	}
	select {
	case w.sem <- struct{}{}:
		defer func() { <-w.sem }()
	case <-r.Context().Done():
		return
	}
	cfg := w.cfg
	cfg.BAtomic = hdr.BAtomic
	opts := core.MultOptions{
		Estimate:       true,
		DynOpt:         true,
		Ctx:            r.Context(),
		WriteThreshold: hdr.WriteThreshold,
	}
	out, stats, err := core.MultiplyOpt(operands[0], operands[1], cfg, opts)
	if err != nil {
		if r.Context().Err() != nil {
			// The coordinator cancelled (multiply aborted, deadline): nobody is
			// reading the response.
			return
		}
		writeFailure(rw, failureStatus(err), rpcFailure{Error: err.Error(), Transient: isTransient(err)})
		return
	}
	rw.Header().Set("Content-Type", "application/octet-stream")
	rw.Header().Set("X-Atm-Contributions", strconv.FormatInt(stats.Contributions, 10))
	rw.Header().Set("X-Atm-Wall-Ns", strconv.FormatInt(stats.WallTime.Nanoseconds(), 10))
	if _, err := out.WriteTileRowFrames(rw); err != nil {
		// Mid-stream write failures cannot change the status; the
		// truncated stream fails the coordinator's per-frame CRC check
		// instead.
		return
	}
}

// assemble resolves operand references against the store. Missing keys
// accumulate into the caller's list (one 409 reports both operands'
// gaps); with every reference resolved, a multi-shard operand is
// reassembled by splicing each shard's tiles back to their recorded
// indices in the full matrix's canonical tile order. The operator
// accumulates contributions in operand tile order, and the partitioner's
// emission order is a recursion order no sort over tile coordinates can
// reconstruct — the shipped indices are what keep a reassembled operand
// bit-identical to the coordinator's copy. Dedup falls out for free: a
// band-spanning tile rides in several shards under the same index.
func (w *Worker) assemble(refs []shardRef, missing []ShardKey) (*core.ATMatrix, []ShardKey, error) {
	ms := make([]*core.ATMatrix, 0, len(refs))
	mrefs := make([]shardRef, 0, len(refs))
	for _, ref := range refs {
		m, ok := w.store.matrix(ref)
		if !ok {
			missing = append(missing, ref.ShardKey)
			continue
		}
		ms = append(ms, m)
		mrefs = append(mrefs, ref)
	}
	if len(missing) > 0 {
		return nil, missing, nil
	}
	if len(ms) == 1 {
		return ms[0], missing, nil
	}
	byIdx := make(map[int]*core.Tile)
	for i, m := range ms {
		if len(mrefs[i].TileIdx) != len(m.Tiles) {
			return nil, missing, fmt.Errorf("cluster: shard %s carries %d tiles but its reference indexes %d",
				mrefs[i].ShardKey, len(m.Tiles), len(mrefs[i].TileIdx))
		}
		for j, t := range m.Tiles {
			byIdx[mrefs[i].TileIdx[j]] = t
		}
	}
	order := make([]int, 0, len(byIdx))
	for idx := range byIdx {
		order = append(order, idx)
	}
	sort.Ints(order)
	tiles := make([]*core.Tile, len(order))
	for i, idx := range order {
		tiles[i] = byIdx[idx]
	}
	out, err := core.NewFromTiles(ms[0].Rows, ms[0].Cols, ms[0].BAtomic, tiles)
	if err != nil {
		return nil, missing, fmt.Errorf("cluster: assembling operand from %d shards: %w", len(ms), err)
	}
	return out, missing, nil
}

// failureStatus maps an execution error to the HTTP status telling the
// coordinator how to react: 503 retry-here for transient failures, 500
// re-route for the rest.
func failureStatus(err error) int {
	if isTransient(err) {
		return http.StatusServiceUnavailable
	}
	return http.StatusInternalServerError
}

func writeFailure(rw http.ResponseWriter, status int, f rpcFailure) {
	rw.Header().Set("Content-Type", "application/json")
	rw.WriteHeader(status)
	_ = json.NewEncoder(rw).Encode(f)
}
