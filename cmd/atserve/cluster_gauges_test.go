package main

import (
	"bufio"
	"bytes"
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"atmatrix/internal/cluster"
	"atmatrix/internal/core"
	"atmatrix/internal/service"
)

// startClusterWorker serves an in-process cluster worker for the server
// tests, returning its address and server (for tests that kill it early).
func startClusterWorker(t *testing.T, cfg core.Config) (string, *http.Server) {
	t.Helper()
	mux := http.NewServeMux()
	cluster.NewWorker(cfg).Register(mux)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	srv := &http.Server{Handler: mux}
	done := make(chan struct{})
	go func() { defer close(done); _ = srv.Serve(ln) }()
	t.Cleanup(func() { _ = srv.Close(); <-done })
	return ln.Addr().String(), srv
}

// TestClusterReplicationGaugesRecover is satellite coverage for the
// replication gauges: after a worker death the atserve_cluster_* metrics
// must report degraded replication, and after the anti-entropy pass
// re-replicates the lost shards they must report recovery to R. The
// repair loop is disabled (RepairPeriod < 0) so the degraded window is
// deterministic; the pass runs explicitly.
func TestClusterReplicationGaugesRecover(t *testing.T) {
	cfg := testConfig()
	addr0, victim := startClusterWorker(t, cfg)
	addr1, _ := startClusterWorker(t, cfg)
	addr2, _ := startClusterWorker(t, cfg)
	coord := cluster.NewCoordinator(cfg, cluster.Options{
		HeartbeatPeriod: 25 * time.Millisecond,
		SuspectAfter:    1,
		DeadAfter:       2,
		Replication:     2,
		RepairPeriod:    -1,
		MaxRetries:      1,
		RetryBase:       2 * time.Millisecond,
		RetryMax:        10 * time.Millisecond,
	}, []string{addr0, addr1, addr2})
	s, err := newServer(serverConfig{cfg: cfg, opts: service.Options{}, maxUpload: 1 << 30, coord: coord})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.handler())
	t.Cleanup(func() {
		ts.Close()
		s.shutdown(30 * time.Second)
	})

	for i, name := range []string{"A", "B"} {
		resp := upload(t, ts.URL, name, rmatStream(t, 96, 1400, int64(800+i)))
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("upload %s: status %d", name, resp.StatusCode)
		}
	}
	if got := metricValue(t, ts.URL, "atserve_cluster_sharded_matrices"); got != 2 {
		t.Fatalf("sharded matrices = %v, want 2", got)
	}
	shards := metricValue(t, ts.URL, "atserve_cluster_shards_total")
	if shards == 0 {
		t.Fatal("no shards placed at PUT time")
	}
	if got := metricValue(t, ts.URL, "atserve_cluster_shard_ships_total"); got != 2*shards {
		t.Fatalf("shard ships = %v, want %v (R=2)", got, 2*shards)
	}
	if got := metricValue(t, ts.URL, "atserve_cluster_under_replicated_shards"); got != 0 {
		t.Fatalf("under-replicated = %v right after placement, want 0", got)
	}

	// A sharded multiply streams its partial products by reference.
	mresp, out := multiply(t, ts.URL, map[string]any{"a": "A", "b": "B"})
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("multiply: status %d (%v)", mresp.StatusCode, out)
	}
	if got := metricValue(t, ts.URL, "atserve_cluster_remote_multiplies_total"); got != 1 {
		t.Fatalf("remote multiplies = %v, want 1", got)
	}
	if got := metricValue(t, ts.URL, "atserve_cluster_shard_ref_hits_total"); got == 0 {
		t.Fatal("no operand resolved by shard reference")
	}
	if got := metricValue(t, ts.URL, "atserve_cluster_merge_frames_total"); got == 0 {
		t.Fatal("no streamed merge frames recorded")
	}
	if got := metricValue(t, ts.URL, "atserve_cluster_merge_peak_bytes"); got <= 0 {
		t.Fatalf("merge peak = %v, want > 0", got)
	}

	// Kill one worker; the heartbeats mark it dead and the gauges must show
	// the lost replicas.
	_ = victim.Close()
	deadline := time.Now().Add(10 * time.Second)
	for metricValue(t, ts.URL, "atserve_cluster_workers_dead") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("killed worker never marked dead")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if got := metricValue(t, ts.URL, "atserve_cluster_under_replicated_shards"); got == 0 {
		t.Fatal("gauges do not report degraded replication after worker death")
	}
	// /healthz degrades (but stays alive), /readyz stays ready: degraded
	// replication is a repair item, not a reason to shed traffic.
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hbuf bytes.Buffer
	hbuf.ReadFrom(hresp.Body)
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK || !strings.Contains(hbuf.String(), "under-replicated") {
		t.Fatalf("healthz after death: status %d body %s", hresp.StatusCode, hbuf.String())
	}
	rresp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	rresp.Body.Close()
	if rresp.StatusCode != http.StatusOK {
		t.Fatalf("readyz = %d during degraded replication, want 200", rresp.StatusCode)
	}

	// One explicit anti-entropy pass restores R onto the survivors.
	if _, err := coord.RepairPass(context.Background()); err != nil {
		t.Fatalf("repair pass: %v", err)
	}
	if got := metricValue(t, ts.URL, "atserve_cluster_re_replications_total"); got == 0 {
		t.Fatal("repair pass recorded no re-replications")
	}
	if got := metricValue(t, ts.URL, "atserve_cluster_under_replicated_shards"); got != 0 {
		t.Fatalf("under-replicated = %v after repair, want 0", got)
	}
	if got := metricValue(t, ts.URL, "atserve_cluster_repair_passes_total"); got == 0 {
		t.Fatal("repair pass not counted")
	}
}

// TestWorkerReannounceRepopulatesBouncedCoordinator bounces the
// coordinator under a periodically re-announcing worker: the second
// coordinator process boots with an empty worker table on the same
// address, and the worker's next announce must repopulate it without any
// operator action — the failure the old register-once loop had.
func TestWorkerReannounceRepopulatesBouncedCoordinator(t *testing.T) {
	cfg := testConfig()
	coord1, srv1, addr, err := tryServeCoord(t, cfg, "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	// The announce goroutine is process-lifetime by design; it dies with
	// the test binary.
	go announceToCoordinator("http://"+addr, "198.51.100.7:9", 25*time.Millisecond)

	waitRegistered := func(coord *cluster.Coordinator, who string) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			for _, w := range coord.Workers() {
				if strings.Contains(w.Addr, "198.51.100.7:9") {
					return
				}
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s never saw the worker register; table: %v", who, coord.Workers())
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	waitRegistered(coord1, "first coordinator")

	// Bounce: kill the first coordinator, boot a second on the same
	// address with an empty worker table.
	_ = srv1.Close()
	var coord2 *cluster.Coordinator
	deadline := time.Now().Add(5 * time.Second)
	for {
		c, _, _, err := tryServeCoord(t, cfg, addr)
		if err == nil {
			coord2 = c
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rebinding %s: %v", addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if len(coord2.Workers()) != 0 {
		t.Fatalf("fresh coordinator already has workers: %v", coord2.Workers())
	}
	waitRegistered(coord2, "bounced coordinator")
}

// tryServeCoord stands up a coordinator-role server on addr, surfacing
// the bind failure so callers can retry re-binding a just-released
// address.
func tryServeCoord(t *testing.T, cfg core.Config, addr string) (*cluster.Coordinator, *http.Server, string, error) {
	t.Helper()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, "", err
	}
	coord := cluster.NewCoordinator(cfg, cluster.Options{HeartbeatPeriod: -1}, nil)
	s, err := newServer(serverConfig{cfg: cfg, opts: service.Options{}, maxUpload: 1 << 30, coord: coord})
	if err != nil {
		ln.Close()
		t.Fatal(err)
	}
	srv := &http.Server{Handler: s.handler()}
	done := make(chan struct{})
	go func() { defer close(done); _ = srv.Serve(ln) }()
	t.Cleanup(func() {
		_ = srv.Close()
		<-done
		s.shutdown(time.Second)
	})
	return coord, srv, ln.Addr().String(), nil
}

// TestMetricsSeriesWellFormed scrapes a coordinator-role server — the role
// that emits every series handleMetrics knows — and checks what a name
// manifest used to: every line is one well-formed atserve_* series and no
// series is emitted twice. handleMetrics' p(name, v) list is the only
// place a name is written, so this is the only place one can be wrong.
func TestMetricsSeriesWellFormed(t *testing.T) {
	cfg := testConfig()
	addr, _ := startClusterWorker(t, cfg)
	coord := cluster.NewCoordinator(cfg, cluster.Options{HeartbeatPeriod: -1, RepairPeriod: -1}, []string{addr})
	s, err := newServer(serverConfig{cfg: cfg, opts: service.Options{}, maxUpload: 1 << 30, coord: coord})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.handler())
	t.Cleanup(func() {
		ts.Close()
		s.shutdown(30 * time.Second)
	})
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	series := regexp.MustCompile(`^atserve_[a-z0-9_]+(\{[^}]*\})?$`)
	seen := map[string]bool{}
	clusterSeries := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, value, ok := strings.Cut(sc.Text(), " ")
		if !ok || !series.MatchString(name) {
			t.Errorf("malformed series line %q", sc.Text())
			continue
		}
		if _, err := strconv.ParseFloat(value, 64); err != nil {
			t.Errorf("series %s has non-numeric value %q", name, value)
		}
		if seen[name] {
			t.Errorf("series %s emitted twice", name)
		}
		seen[name] = true
		if strings.HasPrefix(name, "atserve_cluster_") {
			clusterSeries++
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(seen) == 0 || clusterSeries == 0 {
		t.Fatalf("scraped %d series, %d of them atserve_cluster_*: not a coordinator's /metrics", len(seen), clusterSeries)
	}
}
