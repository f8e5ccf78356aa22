package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"atmatrix/internal/core"
	"atmatrix/internal/mmio"
	"atmatrix/internal/rmat"
	"atmatrix/internal/service"
)

func testConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.LLCBytes = 3 * 8 * 64 * 64
	cfg.BAtomic = 8
	cfg.Topology.Sockets = 2
	cfg.Topology.CoresPerSocket = 2
	return cfg
}

// testServer stands up the production handler stack on httptest.
func newTestServer(t *testing.T, budget int64, opts service.Options) (*server, *httptest.Server) {
	t.Helper()
	s, err := newServer(serverConfig{cfg: testConfig(), budget: budget, opts: opts, maxUpload: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.handler())
	t.Cleanup(func() {
		ts.Close()
		s.shutdown(30 * time.Second)
	})
	return s, ts
}

// rmatStream generates an n-square R-MAT matrix and returns it in the
// binary COO format, ready for upload.
func rmatStream(t *testing.T, n, nnz int, seed int64) *bytes.Buffer {
	t.Helper()
	coo, err := rmat.Generate(n, nnz, rmat.Uniform(), seed)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := mmio.WriteBinary(&buf, coo); err != nil {
		t.Fatal(err)
	}
	return &buf
}

func upload(t *testing.T, base, name string, body io.Reader) *http.Response {
	t.Helper()
	resp, err := http.Post(base+"/v1/matrices?name="+name+"&format=coo", "application/octet-stream", body)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func multiply(t *testing.T, base string, req map[string]any) (*http.Response, map[string]any) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(base+"/v1/multiply", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding multiply response: %v", err)
	}
	return resp, out
}

// metricValue fetches /metrics and returns the named sample.
func metricValue(t *testing.T, base, name string) float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	for _, line := range strings.Split(string(data), "\n") {
		fields := strings.Fields(line)
		if len(fields) == 2 && fields[0] == name {
			v, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				t.Fatalf("metric %s: parsing %q: %v", name, fields[1], err)
			}
			return v
		}
	}
	t.Fatalf("metric %s not found in:\n%s", name, data)
	return 0
}

// TestServeE2E drives the full lifecycle over HTTP: upload two R-MAT
// matrices, multiply into a stored result, inspect it, check the metrics
// counters, and delete it.
func TestServeE2E(t *testing.T) {
	_, ts := newTestServer(t, 0, service.Options{})

	for i, name := range []string{"A", "B"} {
		resp := upload(t, ts.URL, name, rmatStream(t, 64, 640, int64(100+i)))
		var info map[string]any
		json.NewDecoder(resp.Body).Decode(&info)
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("upload %s: status %d (%v)", name, resp.StatusCode, info)
		}
		if info["rows"].(float64) != 64 || info["cols"].(float64) != 64 {
			t.Fatalf("upload %s: info %v", name, info)
		}
	}
	// Duplicate name → 409.
	if resp := upload(t, ts.URL, "A", rmatStream(t, 64, 640, 1)); resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate upload: status %d, want 409", resp.StatusCode)
	} else {
		resp.Body.Close()
	}
	// Missing name → 400.
	resp, err := http.Post(ts.URL+"/v1/matrices?format=coo", "application/octet-stream", rmatStream(t, 8, 8, 2))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("nameless upload: status %d, want 400", resp.StatusCode)
	}

	mresp, out := multiply(t, ts.URL, map[string]any{"a": "A", "b": "B", "store": "AB"})
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("multiply: status %d (%v)", mresp.StatusCode, out)
	}
	if out["rows"].(float64) != 64 || out["cols"].(float64) != 64 || out["stored"] != "AB" {
		t.Fatalf("multiply result %v", out)
	}

	// The stored product is listed and multipliable in a chain.
	lresp, err := http.Get(ts.URL + "/v1/matrices")
	if err != nil {
		t.Fatal(err)
	}
	var listing struct {
		Matrices []map[string]any `json:"matrices"`
	}
	json.NewDecoder(lresp.Body).Decode(&listing)
	lresp.Body.Close()
	if len(listing.Matrices) != 3 {
		t.Fatalf("listing has %d matrices, want 3", len(listing.Matrices))
	}
	cresp, cout := multiply(t, ts.URL, map[string]any{"chain": []string{"A", "B", "AB"}})
	if cresp.StatusCode != http.StatusOK {
		t.Fatalf("chain multiply: status %d (%v)", cresp.StatusCode, cout)
	}
	if cout["chain_expr"] == "" {
		t.Fatalf("chain result missing plan: %v", cout)
	}
	// Executed stages: two materialized steps, or one fused pass over the
	// whole chain when the planner's cost gate picks row-streaming.
	steps, ok := cout["steps"].([]any)
	if !ok || len(steps) == 0 {
		t.Fatalf("chain result steps = %v, want executed steps", cout["steps"])
	}
	for _, s := range steps {
		step := s.(map[string]any)
		if step["expr"] == "" || step["density"] == nil {
			t.Fatalf("chain step missing expr/fill: %v", step)
		}
	}

	// Multiply against a missing operand → 404.
	nresp, _ := multiply(t, ts.URL, map[string]any{"a": "A", "b": "nosuch"})
	if nresp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing operand: status %d, want 404", nresp.StatusCode)
	}

	if got := metricValue(t, ts.URL, "atserve_jobs_completed_total"); got != 2 {
		t.Fatalf("completed = %v, want 2", got)
	}
	if got := metricValue(t, ts.URL, "atserve_jobs_failed_total"); got != 1 {
		t.Fatalf("failed = %v, want 1", got)
	}
	if got := metricValue(t, ts.URL, "atserve_catalog_matrices"); got != 3 {
		t.Fatalf("catalog matrices = %v, want 3", got)
	}
	if got := metricValue(t, ts.URL, "atserve_mult_wall_seconds_total"); got <= 0 {
		t.Fatalf("wall seconds = %v, want > 0", got)
	}

	// Delete and verify 404 on re-delete.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/matrices/AB", nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: status %d, want 204", dresp.StatusCode)
	}
	dresp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp2.Body.Close()
	if dresp2.StatusCode != http.StatusNotFound {
		t.Fatalf("double delete: status %d, want 404", dresp2.StatusCode)
	}

	// Healthz reports ok while serving.
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: status %d, want 200", hresp.StatusCode)
	}
}

// TestServeCorruptUpload: an upload of either binary format whose stream
// fails verification — a flipped payload bit, a foreign magic, a footer cut
// off — answers 422 and quarantines the name.
// TestServeRecycleMetrics: /metrics reports the dense result pool. A
// multiply's dense targets miss on an empty pool and its product is
// recycled once its reply is built; the same multiply again takes those
// buffers. The collector is off, so it cannot drop the pool in between.
func TestServeRecycleMetrics(t *testing.T) {
	_, ts := newTestServer(t, 0, service.Options{})
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if resp := upload(t, ts.URL, "D", rmatStream(t, 128, 128*40, 7)); resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload: status %d", resp.StatusCode)
	} else {
		resp.Body.Close()
	}
	hits := metricValue(t, ts.URL, "atserve_recycle_hits_total")
	misses := metricValue(t, ts.URL, "atserve_recycle_misses_total")
	for i := 0; i < 2; i++ {
		if resp, out := multiply(t, ts.URL, map[string]any{"a": "D", "b": "D"}); resp.StatusCode != http.StatusOK {
			t.Fatalf("multiply %d: status %d (%v)", i, resp.StatusCode, out)
		}
		if got := metricValue(t, ts.URL, "atserve_recycled_bytes"); got <= 0 {
			t.Fatalf("after multiply %d: recycled bytes %v, want the product's dense bytes", i, got)
		}
	}
	if got := metricValue(t, ts.URL, "atserve_recycle_misses_total"); got <= misses {
		t.Fatalf("misses %v → %v: the first product's dense targets were not counted", misses, got)
	}
	if got := metricValue(t, ts.URL, "atserve_recycle_hits_total"); got <= hits {
		t.Fatalf("hits %v → %v: the second product took no recycled buffer", hits, got)
	}
}

func TestServeCorruptUpload(t *testing.T) {
	s, ts := newTestServer(t, 0, service.Options{})
	coo, err := rmat.Generate(64, 640, rmat.Uniform(), 7)
	if err != nil {
		t.Fatal(err)
	}
	am, _, err := core.Partition(coo, s.cat.Config())
	if err != nil {
		t.Fatal(err)
	}
	var atm, bin bytes.Buffer
	if _, err := am.WriteTo(&atm); err != nil {
		t.Fatal(err)
	}
	if err := mmio.WriteBinary(&bin, coo); err != nil {
		t.Fatal(err)
	}
	for format, good := range map[string][]byte{"atm": atm.Bytes(), "coo": bin.Bytes()} {
		flipped := append([]byte(nil), good...)
		flipped[len(flipped)-10] ^= 0x01
		magic := append([]byte(nil), good...)
		magic[0] ^= 0xff
		for what, bad := range map[string][]byte{
			"flipped payload byte": flipped,
			"bad magic":            magic,
			"footer cut off":       good[:len(good)-4],
		} {
			name := strings.ReplaceAll(format+"-"+what, " ", "-")
			resp, err := http.Post(ts.URL+"/v1/matrices?name="+name+"&format="+format,
				"application/octet-stream", bytes.NewReader(bad))
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusUnprocessableEntity {
				t.Errorf("%s upload with %s: status %d (%s), want 422", format, what, resp.StatusCode, body)
			}
			if _, ok := s.mgr.Quarantined()[name]; !ok {
				t.Errorf("%s upload with %s: %q not quarantined", format, what, name)
			}
		}
	}
}

// TestServeQueueFull429 fills the admission queue behind a slow job and
// verifies the overflow request is rejected with 429 + Retry-After. The
// worker-occupying multiply is large enough to run for seconds at this
// tiny tile size, leaving a wide window to observe the full queue; the
// queued and overflow requests use small operands so the drain is quick.
func TestServeQueueFull429(t *testing.T) {
	_, ts := newTestServer(t, 0, service.Options{Workers: 1, QueueDepth: 1})

	for name, gen := range map[string]*bytes.Buffer{
		"big": rmatStream(t, 1024, 150000, 3),
		"a":   rmatStream(t, 64, 640, 30),
		"b":   rmatStream(t, 64, 640, 31),
	} {
		if resp := upload(t, ts.URL, name, gen); resp.StatusCode != http.StatusCreated {
			t.Fatalf("upload %s: status %d", name, resp.StatusCode)
		} else {
			resp.Body.Close()
		}
	}

	// Occupy the single worker with the big job, then the single queue
	// slot with a small one.
	var wg sync.WaitGroup
	results := make(chan int, 2)
	launch := func(a, b string) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, _ := multiply(t, ts.URL, map[string]any{"a": a, "b": b})
			results <- resp.StatusCode
		}()
	}
	launch("big", "big")
	for deadline := time.Now().Add(30 * time.Second); metricValue(t, ts.URL, "atserve_jobs_inflight") == 0; {
		if time.Now().After(deadline) {
			t.Fatal("first job never started")
		}
		time.Sleep(time.Millisecond)
	}
	launch("a", "b")
	for deadline := time.Now().Add(30 * time.Second); metricValue(t, ts.URL, "atserve_queue_depth") == 0; {
		if time.Now().After(deadline) {
			t.Fatal("second job never queued")
		}
		time.Sleep(time.Millisecond)
	}

	// Queue is now full: the next request must bounce.
	resp, out := multiply(t, ts.URL, map[string]any{"a": "a", "b": "b"})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow multiply: status %d (%v), want 429", resp.StatusCode, out)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if got := metricValue(t, ts.URL, "atserve_jobs_rejected_total"); got != 1 {
		t.Fatalf("rejected = %v, want 1", got)
	}
	wg.Wait()
	close(results)
	for code := range results {
		if code != http.StatusOK {
			t.Fatalf("admitted job returned %d", code)
		}
	}
}

// TestServeDeadline504 verifies a job that outruns its deadline aborts
// mid-multiply and maps to 504.
func TestServeDeadline504(t *testing.T) {
	_, ts := newTestServer(t, 0, service.Options{})

	if resp := upload(t, ts.URL, "big", rmatStream(t, 512, 60000, 4)); resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload big: status %d", resp.StatusCode)
	} else {
		resp.Body.Close()
	}
	resp, out := multiply(t, ts.URL, map[string]any{"a": "big", "b": "big", "timeout_ms": 1})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("deadline multiply: status %d (%v), want 504", resp.StatusCode, out)
	}
	if got := metricValue(t, ts.URL, "atserve_jobs_canceled_total"); got != 1 {
		t.Fatalf("canceled = %v, want 1", got)
	}
}

// TestServeDrainFlipsReadyz verifies the liveness/readiness split during
// shutdown: /readyz flips to 503 so load balancers stop routing here,
// /healthz (liveness) stays 200 reporting "draining" so orchestrators do
// not kill the process mid-drain, and both load and multiply requests are
// refused.
func TestServeDrainFlipsReadyz(t *testing.T) {
	s, err := newServer(serverConfig{cfg: testConfig(), maxUpload: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.handler())
	defer ts.Close()
	if resp := upload(t, ts.URL, "A", rmatStream(t, 64, 640, 5)); resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload: status %d", resp.StatusCode)
	} else {
		resp.Body.Close()
	}
	// Before the drain, both probes answer 200.
	rresp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	rresp.Body.Close()
	if rresp.StatusCode != http.StatusOK {
		t.Fatalf("readyz before drain: status %d, want 200", rresp.StatusCode)
	}
	if err := s.shutdown(5 * time.Second); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hbody struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(hresp.Body).Decode(&hbody); err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK || hbody.Status != "draining" {
		t.Fatalf("healthz while draining: status %d %q, want 200 \"draining\" (liveness must not kill a draining process)", hresp.StatusCode, hbody.Status)
	}
	rresp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	rresp.Body.Close()
	if rresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining: status %d, want 503", rresp.StatusCode)
	}
	if resp := upload(t, ts.URL, "B", rmatStream(t, 64, 640, 6)); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("upload while draining: status %d, want 503", resp.StatusCode)
	} else {
		resp.Body.Close()
	}
	mresp, _ := multiply(t, ts.URL, map[string]any{"a": "A", "b": "A"})
	if mresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("multiply while draining: status %d, want 503", mresp.StatusCode)
	}
}

// TestConcurrentServeMultiplies hammers the HTTP layer from many clients
// under -race: every request either succeeds or is rejected with 429, and
// the metrics reconcile. Run by `make race`.
func TestConcurrentServeMultiplies(t *testing.T) {
	_, ts := newTestServer(t, 0, service.Options{Workers: 2, QueueDepth: 4})
	for i, name := range []string{"A", "B"} {
		if resp := upload(t, ts.URL, name, rmatStream(t, 64, 640, int64(200+i))); resp.StatusCode != http.StatusCreated {
			t.Fatalf("upload %s: status %d", name, resp.StatusCode)
		} else {
			resp.Body.Close()
		}
	}
	const n = 32
	var wg sync.WaitGroup
	codes := make(chan int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, _ := multiply(t, ts.URL, map[string]any{"a": "A", "b": "B"})
			codes <- resp.StatusCode
		}()
	}
	wg.Wait()
	close(codes)
	var ok, rejected int
	for code := range codes {
		switch code {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			rejected++
		default:
			t.Fatalf("unexpected status %d", code)
		}
	}
	if ok+rejected != n {
		t.Fatalf("ok %d + rejected %d != %d", ok, rejected, n)
	}
	if got := metricValue(t, ts.URL, "atserve_jobs_completed_total"); got != float64(ok) {
		t.Fatalf("completed = %v, want %d", got, ok)
	}
	if got := metricValue(t, ts.URL, "atserve_jobs_rejected_total"); got != float64(rejected) {
		t.Fatalf("rejected = %v, want %d", got, rejected)
	}
	accepted := metricValue(t, ts.URL, "atserve_jobs_accepted_total")
	completed := metricValue(t, ts.URL, "atserve_jobs_completed_total")
	failed := metricValue(t, ts.URL, "atserve_jobs_failed_total")
	canceled := metricValue(t, ts.URL, "atserve_jobs_canceled_total")
	queued := metricValue(t, ts.URL, "atserve_queue_depth")
	inflight := metricValue(t, ts.URL, "atserve_jobs_inflight")
	if completed+failed+canceled+queued+inflight != accepted {
		t.Fatalf("accounting identity broken: %v+%v+%v+%v+%v != %v",
			completed, failed, canceled, queued, inflight, accepted)
	}
}

// TestServeSmoke builds the real binary, starts it on a random port, loads
// two matrices, runs one multiply, checks /healthz, and shuts it down with
// SIGTERM. Gated behind ATSERVE_SMOKE=1 (run via `make serve-smoke`).
func TestServeSmoke(t *testing.T) {
	if os.Getenv("ATSERVE_SMOKE") != "1" {
		t.Skip("set ATSERVE_SMOKE=1 to run the binary smoke test")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "atserve")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	addrFile := filepath.Join(dir, "addr")
	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0", "-addr-file", addrFile,
		"-b-atomic", "8", "-sockets", "2", "-cores", "2", "-drain", "10s")
	var logs bytes.Buffer
	cmd.Stdout, cmd.Stderr = &logs, &logs
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	var base string
	for deadline := time.Now().Add(15 * time.Second); ; {
		if data, err := os.ReadFile(addrFile); err == nil && len(data) > 0 {
			base = "http://" + strings.TrimSpace(string(data))
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never wrote addr file; logs:\n%s", logs.String())
		}
		time.Sleep(50 * time.Millisecond)
	}

	hresp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v; logs:\n%s", err, logs.String())
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: status %d", hresp.StatusCode)
	}
	for i, name := range []string{"A", "B"} {
		resp := upload(t, base, name, rmatStream(t, 64, 640, int64(300+i)))
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("upload %s: status %d", name, resp.StatusCode)
		}
	}
	mresp, out := multiply(t, base, map[string]any{"a": "A", "b": "B"})
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("multiply: status %d (%v)", mresp.StatusCode, out)
	}
	if out["rows"].(float64) != 64 {
		t.Fatalf("multiply result %v", out)
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("server exited with %v; logs:\n%s", err, logs.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatalf("server did not exit after SIGTERM; logs:\n%s", logs.String())
	}
	if !strings.Contains(logs.String(), "clean shutdown") {
		t.Fatalf("no clean shutdown in logs:\n%s", logs.String())
	}
	fmt.Println("smoke ok:", out)
}

// TestServeSmokeRejectsLoneSockets starts the real binary with -sockets but
// no -cores: a simulated topology takes both, so it must exit with status 2
// naming the missing flag rather than serve the detected topology.
// Gated behind ATSERVE_SMOKE=1 (run via `make serve-smoke`).
func TestServeSmokeRejectsLoneSockets(t *testing.T) {
	if os.Getenv("ATSERVE_SMOKE") != "1" {
		t.Skip("set ATSERVE_SMOKE=1 to run the binary smoke test")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "atserve")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-sockets", "2")
	var logs bytes.Buffer
	cmd.Stdout, cmd.Stderr = &logs, &logs
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if code := cmd.ProcessState.ExitCode(); code != 2 {
			t.Fatalf("exit %v (status %d), want status 2; logs:\n%s", err, code, logs.String())
		}
		if !strings.Contains(logs.String(), "-cores missing") {
			t.Fatalf("message does not name the missing -cores:\n%s", logs.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("atserve -sockets 2 is still running after 10 s; logs:\n%s", logs.String())
	}
}
