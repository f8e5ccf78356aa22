// Command atserve exposes the AT MATRIX catalog and the ATMULT job manager
// over HTTP, turning the library into the serving stack the paper frames:
// matrices are persistent named objects in a main-memory store, and
// multiplications arrive as queries against them.
//
// Endpoints:
//
//	POST   /v1/matrices            load a matrix (upload stream or server path)
//	GET    /v1/matrices            list resident matrices + catalog stats
//	DELETE /v1/matrices/{name}     drop a matrix
//	POST   /v1/multiply            run A·B or a chain, optionally store result
//	GET    /healthz                liveness (503 while draining)
//	GET    /metrics                Prometheus text-format counters
//
// Cluster roles (-role coordinator|worker) add the /cluster/v1/* RPC
// endpoints: a coordinator shards multiplies over registered workers
// (boot-time -peers, or workers self-register with -coordinator) and
// degrades to local execution when none are healthy.
//
// Example:
//
//	atserve -addr :8080 -budget 1073741824 &
//	curl -sT a.mtx 'localhost:8080/v1/matrices?name=A&format=mtx'
//	curl -sT b.mtx 'localhost:8080/v1/matrices?name=B&format=mtx'
//	curl -s -d '{"a":"A","b":"B","store":"AB"}' localhost:8080/v1/multiply
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"atmatrix/internal/cluster"
	"atmatrix/internal/core"
	"atmatrix/internal/faultinject"
	"atmatrix/internal/numa"
	"atmatrix/internal/service"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address (use :0 for a random port)")
		addrFile    = flag.String("addr-file", "", "write the bound address to this file once listening")
		budget      = flag.Int64("budget", 0, "catalog resident-bytes budget (0 = unlimited)")
		queueDepth  = flag.Int("queue", 0, "admission queue depth (0 = 4x workers)")
		workers     = flag.Int("workers", 0, "concurrent multiply jobs (0 = one per socket)")
		timeout     = flag.Duration("timeout", 0, "default per-job deadline (0 = none)")
		watchdog    = flag.Duration("watchdog", 0, "per-tile-task deadline; a stuck kernel degrades its team instead of hanging the job (0 = off)")
		retries     = flag.Int("retries", 0, "max retries of transiently-failed jobs (0 = default of 2, negative = none)")
		verify      = flag.Int("verify", 0, "Freivalds verification rounds per multiply result (0 = off; k rounds bound the false-negative rate by 2^-k)")
		dataDir     = flag.String("data-dir", "", "durable catalog directory: write-through persistence, spill-to-disk eviction, crash recovery (empty = memory-only)")
		scrub       = flag.Duration("scrub", 0, "background integrity-scrub period re-verifying resident tile checksums (0 = off)")
		drain       = flag.Duration("drain", 30*time.Second, "shutdown drain timeout for in-flight jobs")
		maxUpload   = flag.Int64("max-upload", 1<<30, "maximum upload body size in bytes")
		allowPath   = flag.Bool("allow-path-loads", false, "allow JSON loads that name files on the server filesystem")
		paper       = flag.Bool("paper", false, "use the paper's system configuration instead of autodetection")
		bAtomic     = flag.Int("b-atomic", 0, "override b_atomic (power of two; 0 = derive from LLC)")
		sockets     = flag.Int("sockets", 0, "simulated sockets (0 = detect)")
		cores       = flag.Int("cores", 0, "simulated cores per socket (0 = detect)")
		role        = flag.String("role", "", "cluster role: empty = standalone, 'coordinator' shards multiplies over workers, 'worker' executes shards for a coordinator")
		peers       = flag.String("peers", "", "coordinator only: comma-separated worker addresses to register at boot (workers can also self-register)")
		coordURL    = flag.String("coordinator", "", "worker only: coordinator base URL to self-register with (retried until it answers)")
		advertise   = flag.String("advertise", "", "worker only: address to advertise to the coordinator (default: the bound listen address)")
		reannounce  = flag.Duration("reannounce", 10*time.Second, "worker only: period for re-announcing to the coordinator, so a restarted coordinator relearns its workers (0 = announce once)")
		replication = flag.Int("replication", 0, "coordinator only: shard replica count R for cataloged matrices (0 = default of 2; capped by worker count)")
		mergeWindow = flag.Int64("merge-window", 0, "coordinator only: bytes of in-flight partial-product frames buffered during the streaming merge (0 = default of 64 MiB)")
	)
	flag.Parse()
	if (*sockets > 0) != (*cores > 0) {
		missing := "-sockets"
		if *sockets > 0 {
			missing = "-cores"
		}
		fmt.Fprintf(os.Stderr, "atserve: %s missing: a simulated topology takes both -sockets and -cores\n", missing)
		os.Exit(2)
	}

	cfg := core.DefaultConfig()
	if *paper {
		cfg = core.PaperConfig()
	}
	if *bAtomic > 0 {
		cfg.BAtomic = *bAtomic
	}
	if *sockets > 0 {
		cfg.Topology = numa.Topology{Sockets: *sockets, CoresPerSocket: *cores}
	}

	// Fault injection stays disarmed unless the operator opts in through the
	// environment; the hooks themselves are always compiled in (one atomic
	// load when idle) so chaos drills run against the production binary.
	if spec := os.Getenv(faultinject.EnvVar); spec != "" {
		var seed int64
		if sv := os.Getenv(faultinject.EnvSeedVar); sv != "" {
			if _, err := fmt.Sscanf(sv, "%d", &seed); err != nil {
				log.Fatalf("atserve: bad %s %q: %v", faultinject.EnvSeedVar, sv, err)
			}
		}
		rules, err := faultinject.EnableFromSpec(spec, seed)
		if err != nil {
			log.Fatalf("atserve: %v", err)
		}
		log.Printf("atserve: FAULT INJECTION ARMED (%s=%q, seed %d): %d rule(s)", faultinject.EnvVar, spec, seed, len(rules))
	}

	// Cluster roles: a coordinator shards pair multiplies over its workers
	// and degrades to local execution when none are healthy; a worker
	// additionally mounts the shard-execution RPC endpoints. Either role
	// keeps the full catalog API — a worker is a complete atserve node.
	var coord *cluster.Coordinator
	var worker *cluster.Worker
	switch *role {
	case "":
	case "coordinator":
		var peerList []string
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				peerList = append(peerList, p)
			}
		}
		coord = cluster.NewCoordinator(cfg, cluster.Options{
			Replication: *replication,
			MergeWindow: *mergeWindow,
		}, peerList)
	case "worker":
		worker = cluster.NewWorker(cfg)
	default:
		log.Fatalf("atserve: unknown -role %q (want coordinator or worker)", *role)
	}

	s, err := newServer(serverConfig{
		cfg:    cfg,
		budget: *budget,
		opts: service.Options{
			QueueDepth:     *queueDepth,
			Workers:        *workers,
			DefaultTimeout: *timeout,
			Watchdog:       *watchdog,
			MaxRetries:     *retries,
			Verify:         *verify,
		},
		allowPath:   *allowPath,
		maxUpload:   *maxUpload,
		dataDir:     *dataDir,
		scrubPeriod: *scrub,
		coord:       coord,
		worker:      worker,
	})
	if err != nil {
		log.Fatalf("atserve: %v", err)
	}
	// Boot recovery runs behind the listener so health checks see the
	// process come up immediately — /healthz reports "recovering" until
	// the pinned matrices are resident again.
	if *dataDir != "" {
		go func() {
			t0 := time.Now()
			rs, err := s.recoverCatalog()
			if err != nil {
				log.Printf("atserve: catalog recovery: %v", err)
				return
			}
			log.Printf("atserve: catalog recovered in %v: %d registered, %d pinned loaded, %d failed",
				time.Since(t0).Round(time.Millisecond), rs.Registered, rs.Loaded, len(rs.Failed))
			for _, f := range rs.Failed {
				log.Printf("atserve: pinned reload failed: %s", f)
			}
		}()
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("atserve: listen: %v", err)
	}
	bound := ln.Addr().String()
	log.Printf("atserve: listening on %s (b_atomic=%d, topology=%dx%d, budget=%d)",
		bound, cfg.BAtomic, cfg.Topology.Sockets, cfg.Topology.CoresPerSocket, *budget)
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound+"\n"), 0o644); err != nil {
			log.Fatalf("atserve: writing addr file: %v", err)
		}
	}
	// Worker self-registration: announce the bound (or advertised) address
	// to the coordinator, retrying until it answers — boot order between
	// coordinator and workers does not matter — and keep re-announcing
	// every -reannounce period for the process lifetime. Registration is
	// idempotent, so the steady-state announcements are no-ops; what they
	// buy is coordinator restarts: a bounced coordinator comes back with an
	// empty worker table, and the periodic announce repopulates it without
	// any operator action.
	if worker != nil && *coordURL != "" {
		self := *advertise
		if self == "" {
			self = bound
		}
		go announceToCoordinator(*coordURL, self, *reannounce)
	}

	srv := &http.Server{
		Handler:           s.handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case got := <-sig:
		log.Printf("atserve: %v: draining (timeout %v)", got, *drain)
	case err := <-done:
		log.Fatalf("atserve: serve: %v", err)
	}

	// Shutdown order: stop admitting jobs and fail health checks first, then
	// let in-flight HTTP requests (which are waiting on their jobs) finish
	// inside the drain window, cancelling whatever is still running at the
	// deadline.
	drainErr := s.shutdown(*drain)
	ctx, cancel := context.WithTimeout(context.Background(), *drain+5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("atserve: http shutdown: %v", err)
	}
	if drainErr != nil {
		log.Printf("atserve: drain: %v", drainErr)
		os.Exit(1)
	}
	fmt.Println("atserve: clean shutdown")
}

// announceToCoordinator posts this worker's address to the coordinator's
// registration endpoint: retrying every 2s until the first success, then
// re-announcing every period for the process lifetime (period <= 0 stops
// after the first success — the old boot-time-only behavior). The
// periodic re-announce is what survives coordinator restarts: the old
// register-once loop returned after its first success, so a coordinator
// bounced afterwards never relearned the worker. The goroutine dies with
// the process on shutdown.
func announceToCoordinator(coordURL, self string, period time.Duration) {
	base := strings.TrimSuffix(coordURL, "/")
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	client := &http.Client{Timeout: 5 * time.Second}
	body := fmt.Sprintf(`{"addr":%q}`, self)
	announced := false
	for {
		resp, err := client.Post(base+"/cluster/v1/register", "application/json", strings.NewReader(body))
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				if !announced {
					log.Printf("atserve: registered with coordinator %s as %s", base, self)
					announced = true
				}
				if period <= 0 {
					return
				}
				time.Sleep(period)
				continue
			}
			err = fmt.Errorf("status %d", resp.StatusCode)
		}
		log.Printf("atserve: coordinator registration (%s): %v; retrying", base, err)
		time.Sleep(2 * time.Second)
	}
}
