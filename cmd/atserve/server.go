package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"strconv"
	"sync/atomic"
	"time"

	"atmatrix/internal/catalog"
	"atmatrix/internal/cluster"
	"atmatrix/internal/core"
	"atmatrix/internal/numa"
	"atmatrix/internal/sched"
	"atmatrix/internal/service"
)

// serverConfig bundles everything newServer needs; the zero value of the
// optional fields (dataDir, scrubPeriod, ...) yields the memory-only
// server the earlier PRs shipped.
type serverConfig struct {
	cfg         core.Config
	budget      int64
	opts        service.Options
	allowPath   bool          // permit {"path": ...} loads/saves on the server filesystem
	maxUpload   int64         // request body cap for uploads
	dataDir     string        // durable catalog backing store ("" = memory-only)
	scrubPeriod time.Duration // background integrity scrub period (0 = off)

	// coord makes this process a cluster coordinator: pair multiplies are
	// sharded across its registered workers (service.Options.Distribute)
	// and POST /cluster/v1/register admits new workers. worker mounts the
	// shard-execution endpoints instead. Both nil = standalone node.
	coord  *cluster.Coordinator
	worker *cluster.Worker
}

// server wires the catalog and the job manager to the HTTP surface. It is
// separate from main so the httptest suite can drive the exact production
// handler stack.
type server struct {
	cat        *catalog.Catalog
	mgr        *service.Manager
	topo       numa.Topology
	brk        *breaker
	started    time.Time
	draining   atomic.Bool
	recovering atomic.Bool
	allowPath  bool
	maxUpload  int64
	coord      *cluster.Coordinator
	worker     *cluster.Worker
}

func newServer(sc serverConfig) (*server, error) {
	cat, err := catalog.Open(sc.cfg, sc.budget, sc.dataDir)
	if err != nil {
		return nil, err
	}
	if sc.maxUpload <= 0 {
		sc.maxUpload = 1 << 30
	}
	if sc.coord != nil {
		// The coordinator executes pair multiplies by sharding them over
		// its workers; it owns the fallback to local execution, so the
		// manager's queueing, retries and quarantine apply unchanged.
		sc.opts.Distribute = sc.coord.Multiply
		if sc.dataDir == "" {
			// Memory-only: the catalog is complete now, so the sharded
			// catalog (and its anti-entropy loop) can attach immediately.
			// Durable catalogs attach after recovery re-reads the manifest's
			// shard maps.
			sc.coord.AttachCatalog(cat)
		}
	}
	s := &server{
		cat:       cat,
		mgr:       service.New(cat, sc.opts),
		topo:      sc.cfg.Topology,
		brk:       newBreaker(),
		started:   time.Now(),
		allowPath: sc.allowPath,
		maxUpload: sc.maxUpload,
		coord:     sc.coord,
		worker:    sc.worker,
	}
	// The scrubber's findings route into the service quarantine: a matrix
	// that fails its checksum scan is blocked from multiplies until the
	// repair lands, and the repair lifts the block again.
	cat.SetIntegrityHooks(
		func(name, reason string) { s.mgr.Quarantine(name, reason) },
		func(name string) { s.mgr.Unquarantine(name) },
	)
	cat.StartScrubber(sc.scrubPeriod)
	return s, nil
}

// recoverCatalog rebuilds the catalog from the data directory's manifest,
// holding /healthz in the "recovering" state for the duration (pinned
// matrices reload eagerly, which can take a while). main runs it in the
// background so the listener is up — and readable for health checks —
// while recovery proceeds.
func (s *server) recoverCatalog() (catalog.RecoverStats, error) {
	if s.cat.DataDir() == "" {
		return catalog.RecoverStats{}, nil
	}
	s.recovering.Store(true)
	defer s.recovering.Store(false)
	rs, err := s.cat.Recover()
	if s.coord != nil {
		// Attach even when some entries failed to reload: the shard maps
		// that did recover are served, and the anti-entropy loop reconciles
		// them against the workers' inventories.
		s.coord.AttachCatalog(s.cat)
	}
	return rs, err
}

// handler builds the route table.
func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/matrices", s.handleLoad)
	mux.HandleFunc("PUT /v1/matrices", s.handleLoad) // curl -T sends PUT
	mux.HandleFunc("GET /v1/matrices", s.handleList)
	mux.HandleFunc("DELETE /v1/matrices/{name}", s.handleDelete)
	mux.HandleFunc("POST /v1/matrices/{name}/save", s.handleSave)
	mux.HandleFunc("POST /v1/multiply", s.handleMultiply)
	mux.HandleFunc("POST /v1/eval", s.handleEval)
	mux.HandleFunc("POST /v1/admin/scrub", s.handleScrub)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	if s.worker != nil {
		s.worker.Register(mux)
	}
	if s.coord != nil {
		mux.HandleFunc("POST /cluster/v1/register", s.handleClusterRegister)
	}
	return mux
}

// registerRequest is the JSON body a worker posts to self-register.
type registerRequest struct {
	Addr string `json:"addr"`
}

// handleClusterRegister admits a worker into the coordinator's registry.
// Registration is idempotent by address — a restarting worker re-posting
// its address is a no-op, and its health revives on the next successful
// probe rather than here.
func (s *server) handleClusterRegister(w http.ResponseWriter, r *http.Request) {
	var req registerRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&req); err != nil {
		jsonError(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	if req.Addr == "" {
		jsonError(w, http.StatusBadRequest, "missing worker addr")
		return
	}
	added := s.coord.Register(req.Addr)
	writeJSON(w, http.StatusOK, map[string]any{"addr": req.Addr, "registered": added})
}

// shutdown stops admission (healthz flips to 503 for load balancers),
// drains the job manager, and stops the background scrubber.
func (s *server) shutdown(drain time.Duration) error {
	s.draining.Store(true)
	err := s.mgr.Close(drain)
	if s.coord != nil {
		s.coord.Close()
	}
	s.cat.Close()
	return err
}

// handleScrub runs one integrity scrub pass synchronously — the operator's
// on-demand version of the background loop — and returns the pass summary
// plus the cumulative catalog stats.
func (s *server) handleScrub(w http.ResponseWriter, r *http.Request) {
	pass := s.cat.ScrubPass()
	writeJSON(w, http.StatusOK, map[string]any{
		"pass":  pass,
		"stats": s.cat.Stats(),
	})
}

// jsonError writes a JSON error body with the given status.
func jsonError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// loadRequest is the JSON body of a path-based load.
type loadRequest struct {
	Name   string `json:"name"`
	Path   string `json:"path"`
	Format string `json:"format"`
	Pin    bool   `json:"pin"`
}

// handleLoad admits a matrix into the catalog. Two request shapes:
//
//   - application/json body {"name","path","format","pin"}: the server
//     reads the file itself (requires -allow-path-loads).
//   - any other content type: the body is the matrix stream, with
//     ?name=...&format=atm|mtx|coo&pin=true query parameters.
func (s *server) handleLoad(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		jsonError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	var (
		name, formatStr string
		pin             bool
		src             io.Reader
	)
	if r.Header.Get("Content-Type") == "application/json" {
		var req loadRequest
		if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
			jsonError(w, http.StatusBadRequest, "decoding request: %v", err)
			return
		}
		if !s.allowPath {
			jsonError(w, http.StatusForbidden, "path loads disabled; upload the stream or start with -allow-path-loads")
			return
		}
		if req.Path == "" {
			jsonError(w, http.StatusBadRequest, "missing path")
			return
		}
		f, err := os.Open(req.Path)
		if err != nil {
			jsonError(w, http.StatusBadRequest, "opening %s: %v", req.Path, err)
			return
		}
		defer f.Close()
		name, formatStr, pin, src = req.Name, req.Format, req.Pin, f
	} else {
		q := r.URL.Query()
		name, formatStr = q.Get("name"), q.Get("format")
		pin = q.Get("pin") == "true"
		src = http.MaxBytesReader(w, r.Body, s.maxUpload)
	}
	if name == "" {
		jsonError(w, http.StatusBadRequest, "missing matrix name")
		return
	}
	format, err := catalog.ParseFormat(formatStr)
	if err != nil {
		jsonError(w, http.StatusBadRequest, "%v", err)
		return
	}
	info, err := s.cat.Load(name, format, src, pin)
	switch {
	case err == nil:
		// A fresh, checksum-verified load supersedes any earlier poisoning
		// under this name.
		s.mgr.Unquarantine(name)
		if s.coord != nil {
			// Replicate the new matrix's tile-row shards across the cluster
			// so multiplies find them in the workers' stores. Best-effort:
			// a matrix left without a shard map is cut into ephemeral
			// shards by each multiply that uses it, and the anti-entropy
			// loop restores an under-replicated placement as workers come
			// back.
			s.coord.DropShards(r.Context(), name)
			if serr := s.coord.ShardByName(r.Context(), name); serr != nil {
				log.Printf("atserve: sharding %s across cluster: %v", name, serr)
			}
		}
		writeJSON(w, http.StatusCreated, info)
	case errors.Is(err, catalog.ErrExists):
		jsonError(w, http.StatusConflict, "%v", err)
	case errors.Is(err, catalog.ErrBudget):
		jsonError(w, http.StatusInsufficientStorage, "%v", err)
	case errors.Is(err, core.ErrChecksum), errors.Is(err, core.ErrBadMagic):
		// The stream failed verification: quarantine the name so multiplies
		// referencing it fail fast and typed until a good load replaces it.
		s.mgr.Quarantine(name, fmt.Sprintf("corrupt load: %v", err))
		jsonError(w, http.StatusUnprocessableEntity, "corrupt upload: %v", err)
	default:
		jsonError(w, http.StatusBadRequest, "loading %s: %v", name, err)
	}
}

func (s *server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"matrices": s.cat.List(),
		"stats":    s.cat.Stats(),
	})
}

func (s *server) handleDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	// Deleting a quarantined name lifts the quarantine even when the matrix
	// itself is gone (e.g. it never loaded): delete is the operator's reset.
	wasQuarantined := s.mgr.Unquarantine(name)
	if s.coord != nil {
		s.coord.DropShards(r.Context(), name)
	}
	if err := s.cat.Delete(name); err != nil {
		if wasQuarantined {
			w.WriteHeader(http.StatusNoContent)
			return
		}
		jsonError(w, http.StatusNotFound, "%v", err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// saveRequest is the JSON body of POST /v1/matrices/{name}/save.
type saveRequest struct {
	Path string `json:"path"`
}

// handleSave writes a resident matrix to a server-side file crash-safely
// (temp file + fsync + atomic rename). Like path loads, writing server
// paths is gated behind -allow-path-loads.
func (s *server) handleSave(w http.ResponseWriter, r *http.Request) {
	if !s.allowPath {
		jsonError(w, http.StatusForbidden, "path saves disabled; start with -allow-path-loads")
		return
	}
	var req saveRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		jsonError(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	if req.Path == "" {
		jsonError(w, http.StatusBadRequest, "missing path")
		return
	}
	name := r.PathValue("name")
	n, err := s.cat.Save(name, req.Path)
	switch {
	case err == nil:
		writeJSON(w, http.StatusOK, map[string]any{"name": name, "path": req.Path, "bytes": n})
	case errors.Is(err, catalog.ErrNotFound):
		jsonError(w, http.StatusNotFound, "%v", err)
	default:
		jsonError(w, http.StatusInternalServerError, "saving %s: %v", name, err)
	}
}

// multiplyRequest is the JSON body of POST /v1/multiply: either {a, b} or
// {chain: [...]}, optionally storing the result under a new name.
type multiplyRequest struct {
	A         string   `json:"a"`
	B         string   `json:"b"`
	Chain     []string `json:"chain"`
	Store     string   `json:"store"`
	Pin       bool     `json:"pin"`
	TimeoutMS int64    `json:"timeout_ms"`
	// Priority "low" marks the job sheddable: during a brownout (the
	// breaker opened on queue saturation) low-priority multiplies are
	// rejected immediately with 503 + Retry-After instead of taking queue
	// slots from interactive traffic. Empty or "normal" is never shed.
	Priority string `json:"priority"`
}

func (s *server) handleMultiply(w http.ResponseWriter, r *http.Request) {
	var req multiplyRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		jsonError(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	if s.shedLowPriority(w, req.Priority) {
		return
	}
	s.submitAndReply(w, r, service.Request{
		A: req.A, B: req.B, Chain: req.Chain,
		Store: req.Store, Pin: req.Pin,
		Timeout: time.Duration(req.TimeoutMS) * time.Millisecond,
	})
}

// evalRequest is the JSON body of POST /v1/eval: an expression over
// catalog names ("A*B*C", "pow(P,20)*x"), optional identifier→catalog-name
// bindings, an iteration-count override for pow(), and the same store/pin/
// timeout/priority options multiply takes.
type evalRequest struct {
	Expr       string            `json:"expr"`
	Bindings   map[string]string `json:"bindings"`
	Iterations int               `json:"iterations"`
	Store      string            `json:"store"`
	Pin        bool              `json:"pin"`
	TimeoutMS  int64             `json:"timeout_ms"`
	Priority   string            `json:"priority"`
}

// handleEval plans and evaluates an expression over cataloged matrices.
// The response echoes the plan the optimizer chose — association order,
// fusion strategy, estimated cost — next to the executed stages.
func (s *server) handleEval(w http.ResponseWriter, r *http.Request) {
	var req evalRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		jsonError(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	if req.Expr == "" {
		jsonError(w, http.StatusBadRequest, "missing expr")
		return
	}
	if s.shedLowPriority(w, req.Priority) {
		return
	}
	s.submitAndReply(w, r, service.Request{
		Expr: req.Expr, Bindings: req.Bindings, Iterations: req.Iterations,
		Store: req.Store, Pin: req.Pin,
		Timeout: time.Duration(req.TimeoutMS) * time.Millisecond,
	})
}

// shedLowPriority rejects sheddable work during a brownout; reports
// whether the request was shed (and answered).
func (s *server) shedLowPriority(w http.ResponseWriter, priority string) bool {
	if priority == "low" && s.brk.open(time.Now()) {
		s.brk.shed.Add(1)
		w.Header().Set("Retry-After", retryAfter())
		jsonError(w, http.StatusServiceUnavailable, "brownout: low-priority jobs shed, retry later")
		return true
	}
	return false
}

// submitAndReply runs the shared job lifecycle of /v1/multiply and
// /v1/eval: admission (backpressure and quarantine mapped to typed HTTP
// errors), waiting out the job, and rendering its result or failure.
func (s *server) submitAndReply(w http.ResponseWriter, r *http.Request, sreq service.Request) {
	job, err := s.mgr.Submit(sreq)
	switch {
	case err == nil:
	case errors.Is(err, service.ErrQueueFull):
		s.brk.recordRejection(time.Now())
		w.Header().Set("Retry-After", retryAfter())
		jsonError(w, http.StatusTooManyRequests, "%v", err)
		return
	case errors.Is(err, service.ErrDraining):
		jsonError(w, http.StatusServiceUnavailable, "%v", err)
		return
	case errors.Is(err, service.ErrQuarantined):
		jsonError(w, http.StatusUnprocessableEntity, "%v", err)
		return
	default:
		jsonError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// The admission queue bounds in-server concurrency; the HTTP handler
	// itself just waits for its job (or the client going away).
	select {
	case <-job.Done:
	case <-r.Context().Done():
		// The client hung up; the job still runs to completion (its own
		// deadline bounds it), but nobody is listening.
		jsonError(w, http.StatusRequestTimeout, "client cancelled")
		return
	}
	res, err := job.Wait()
	switch {
	case err == nil:
		writeJSON(w, http.StatusOK, res)
	case errors.Is(err, context.DeadlineExceeded):
		jsonError(w, http.StatusGatewayTimeout, "job deadline exceeded")
	case errors.Is(err, context.Canceled):
		jsonError(w, http.StatusServiceUnavailable, "job cancelled by shutdown")
	case errors.Is(err, service.ErrBadRequest):
		jsonError(w, http.StatusBadRequest, "%v", err)
	case errors.Is(err, catalog.ErrNotFound):
		jsonError(w, http.StatusNotFound, "%v", err)
	case errors.Is(err, catalog.ErrExists):
		jsonError(w, http.StatusConflict, "%v", err)
	case errors.Is(err, catalog.ErrBudget):
		jsonError(w, http.StatusInsufficientStorage, "%v", err)
	default:
		jsonError(w, http.StatusInternalServerError, "%v", err)
	}
}

// handleHealthz is the LIVENESS probe: it answers 200 for as long as the
// process is up, including during boot recovery ("recovering") and
// shutdown drain ("draining") — restarting a process because it is
// draining or replaying its manifest would only destroy the work in
// flight. Routability is /readyz's job. The body reports one of four
// states: "ok", "recovering", "degraded" (still serving, but a brownout
// is active, a worker team was abandoned by a watchdog, matrices sit in
// quarantine, cluster workers are suspect or dead, or catalog shards are
// under-replicated — each spelled out in reasons), or "draining". On a
// coordinator the body also carries the per-worker health table under
// "cluster".
func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusOK, map[string]any{
			"status":    "draining",
			"reasons":   []string{"shutdown: draining in-flight jobs, admission closed"},
			"uptime_ms": time.Since(s.started).Milliseconds(),
		})
		return
	}
	if s.recovering.Load() {
		writeJSON(w, http.StatusOK, map[string]any{
			"status":    "recovering",
			"reasons":   []string{"catalog: boot recovery reloading pinned matrices"},
			"uptime_ms": time.Since(s.started).Milliseconds(),
		})
		return
	}
	var reasons []string
	if s.brk.open(time.Now()) {
		reasons = append(reasons, "brownout: admission queue saturated, shedding low-priority multiplies")
	}
	if ds := sched.RuntimeFor(s.topo).DegradedSockets(); len(ds) > 0 {
		reasons = append(reasons, fmt.Sprintf("scheduler: %d worker team(s) degraded (sockets %v)", len(ds), ds))
	}
	if q := s.mgr.Quarantined(); len(q) > 0 {
		reasons = append(reasons, fmt.Sprintf("catalog: %d quarantine entry(ies) in force", len(q)))
	}
	var workers []cluster.WorkerStatus
	if s.coord != nil {
		workers = s.coord.Workers()
		healthy := 0
		for _, ws := range workers {
			if ws.State == cluster.Healthy.String() {
				healthy++
				continue
			}
			reasons = append(reasons, fmt.Sprintf("cluster: worker %s %s (%d missed probe(s))", ws.Addr, ws.State, ws.Misses))
		}
		if len(workers) > 0 && healthy == 0 {
			reasons = append(reasons, "cluster: no healthy workers; multiplies execute locally")
		}
		if st := s.coord.Stats(); st.UnderReplicatedShards > 0 {
			reasons = append(reasons, fmt.Sprintf("cluster: %d of %d catalog shard(s) under-replicated; anti-entropy re-replication pending",
				st.UnderReplicatedShards, st.ShardsTotal))
		}
	}
	status := "ok"
	if len(reasons) > 0 {
		status = "degraded"
	}
	body := map[string]any{
		"status":    status,
		"reasons":   reasons,
		"uptime_ms": time.Since(s.started).Milliseconds(),
	}
	if workers != nil {
		body["cluster"] = map[string]any{"workers": workers}
	}
	writeJSON(w, http.StatusOK, body)
}

// handleReadyz is the READINESS probe load balancers route on: 503 while
// the process cannot usefully take traffic — draining toward shutdown, or
// still replaying the catalog manifest at boot — and 200 otherwise.
// Degraded-but-serving states stay ready; only the two windows where
// admission is closed or the catalog is incomplete flip it.
func (s *server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	switch {
	case s.draining.Load():
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"ready": false, "status": "draining"})
	case s.recovering.Load():
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"ready": false, "status": "recovering"})
	default:
		writeJSON(w, http.StatusOK, map[string]any{"ready": true, "status": "ok"})
	}
}

// handleMetrics renders the counters in the Prometheus text exposition
// format (stdlib only — no client library dependency).
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	m := s.mgr.Metrics()
	cs := s.cat.Stats()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	p := func(name string, v any) {
		fmt.Fprintf(w, "%s %v\n", name, v)
	}
	secs := func(d time.Duration) string {
		return strconv.FormatFloat(d.Seconds(), 'g', -1, 64)
	}
	p("atserve_jobs_accepted_total", m.Accepted)
	p("atserve_jobs_rejected_total", m.Rejected)
	p("atserve_jobs_completed_total", m.Completed)
	p("atserve_jobs_failed_total", m.Failed)
	p("atserve_jobs_canceled_total", m.Canceled)
	p("atserve_jobs_inflight", m.InFlight)
	p("atserve_queue_depth", m.Queued)
	p("atserve_queue_capacity", m.QueueCap)
	p("atserve_retries_total", m.Retries)
	p("atserve_verify_failed_total", m.VerifyFailed)
	p("atserve_eval_jobs_total", m.EvalJobs)
	p("atserve_eval_fused_stages_total", m.FusedStages)
	p("atserve_eval_plan_seconds_total", secs(m.PlanTime))
	p("atserve_task_panics_total", m.TaskPanics)
	p("atserve_watchdog_timeouts_total", m.WatchdogTimeouts)
	p("atserve_quarantined_matrices", m.Quarantined)
	p("atserve_brownout_trips_total", s.brk.trips.Load())
	p("atserve_brownout_shed_total", s.brk.shed.Load())
	p("atserve_degraded_sockets", len(sched.RuntimeFor(s.topo).DegradedSockets()))
	p(`atserve_job_latency_seconds{quantile="0.5"}`, secs(m.LatencyP50))
	p(`atserve_job_latency_seconds{quantile="0.99"}`, secs(m.LatencyP99))
	p("atserve_catalog_matrices", cs.Matrices)
	p("atserve_catalog_resident_bytes", cs.ResidentBytes)
	p("atserve_catalog_index_bytes", cs.IndexBytes)
	p("atserve_catalog_budget_bytes", cs.BudgetBytes)
	p("atserve_catalog_evictions_total", cs.Evictions)
	p("atserve_catalog_hits_total", cs.Hits)
	p("atserve_catalog_misses_total", cs.Misses)
	p("atserve_catalog_spilled_matrices", cs.Spilled)
	p("atserve_catalog_spills_total", cs.Spills)
	p("atserve_catalog_reloads_total", cs.Reloads)
	p("atserve_catalog_recovered_total", cs.Recovered)
	p("atserve_scrub_passes_total", cs.ScrubPasses)
	p("atserve_scrub_scanned_total", cs.ScrubScanned)
	p("atserve_scrub_errors_total", cs.ScrubErrors)
	p("atserve_scrub_repairs_total", cs.ScrubRepairs)
	p("atserve_scrub_unrepaired_total", cs.ScrubUnrepaired)
	p("atserve_mult_estimate_seconds_total", secs(m.Mult.EstimateTime))
	p("atserve_mult_optimize_seconds_total", secs(m.Mult.OptimizeTime))
	p("atserve_mult_convert_seconds_total", secs(m.Mult.ConvertTime))
	p("atserve_mult_multiply_seconds_total", secs(m.Mult.MultiplyTime))
	p("atserve_mult_finalize_seconds_total", secs(m.Mult.FinalizeTime))
	p("atserve_mult_verify_seconds_total", secs(m.Mult.VerifyTime))
	p("atserve_mult_wall_seconds_total", secs(m.Mult.WallTime))
	p("atserve_mult_conversions_total", m.Mult.Conversions)
	p("atserve_mult_contributions_total", m.Mult.Contributions)
	p("atserve_mult_target_tiles_total", m.Mult.TargetTiles)
	p("atserve_mult_tasks_stolen_total", m.Mult.TasksStolen)
	rs := core.Recycled()
	p("atserve_recycled_bytes", rs.HeldBytes)
	p("atserve_recycle_hits_total", rs.Hits)
	p("atserve_recycle_misses_total", rs.Misses)
	if s.coord != nil {
		st := s.coord.Stats()
		p("atserve_cluster_workers_healthy", st.WorkersHealthy)
		p("atserve_cluster_workers_suspect", st.WorkersSuspect)
		p("atserve_cluster_workers_dead", st.WorkersDead)
		p("atserve_cluster_remote_multiplies_total", st.RemoteMultiplies)
		p("atserve_cluster_local_fallbacks_total", st.LocalFallbacks)
		p("atserve_cluster_local_tasks_total", st.LocalTasks)
		p("atserve_cluster_rpc_retries_total", st.RPCRetries)
		p("atserve_cluster_tiles_rerouted_total", st.TilesRerouted)
		p("atserve_cluster_sharded_matrices", st.ShardedMatrices)
		p("atserve_cluster_shards_total", st.ShardsTotal)
		p("atserve_cluster_under_replicated_shards", st.UnderReplicatedShards)
		p("atserve_cluster_shard_ships_total", st.ShardShips)
		p("atserve_cluster_shard_ship_bytes_total", st.ShardShipBytes)
		p("atserve_cluster_re_replications_total", st.ReReplications)
		p("atserve_cluster_shard_crc_failures_total", st.ShardCRCFailures)
		p("atserve_cluster_shard_ref_hits_total", st.ShardRefHits)
		p("atserve_cluster_shard_ref_bytes_total", st.ShardRefBytes)
		p("atserve_cluster_repair_passes_total", st.RepairPasses)
		p("atserve_cluster_merge_frames_total", st.MergeFrames)
		p("atserve_cluster_merge_peak_bytes", st.MergePeakBytes)
	}
}
