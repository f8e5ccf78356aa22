package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"testing"
	"time"

	"atmatrix/internal/faultinject"
	"atmatrix/internal/leakcheck"
	"atmatrix/internal/mat"
	"atmatrix/internal/mmio"
	"atmatrix/internal/sched"
	"atmatrix/internal/service"
)

// eval posts to /v1/eval and decodes the JSON response.
func eval(t *testing.T, base string, req map[string]any) (*http.Response, map[string]any) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(base+"/v1/eval", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding eval response: %v", err)
	}
	return resp, out
}

// TestEvalEndpoint: POST /v1/eval end to end — plan echo, fusion, store,
// typed client errors, and the eval metrics.
func TestEvalEndpoint(t *testing.T) {
	leakcheck.Check(t)
	t.Cleanup(func() { sched.RuntimeFor(testConfig().Topology).Close() })
	_, ts := newTestServer(t, 0, service.Options{Verify: 1})

	for i, name := range []string{"a", "b", "c"} {
		resp := upload(t, ts.URL, name, rmatStream(t, 64, 640, int64(90+i)))
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("upload %s: status %d", name, resp.StatusCode)
		}
		resp.Body.Close()
	}

	// Happy path: a fused 3-term chain, stored for reuse.
	verifyBefore := metricValue(t, ts.URL, "atserve_mult_verify_seconds_total")
	resp, out := eval(t, ts.URL, map[string]any{"expr": "a*b*c", "store": "abc"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("eval a*b*c: status %d (%v), want 200", resp.StatusCode, out)
	}
	if v := metricValue(t, ts.URL, "atserve_mult_verify_seconds_total"); v <= verifyBefore {
		t.Errorf("atserve_mult_verify_seconds_total = %v after a verified eval, %v before: expression verification is not counted", v, verifyBefore)
	}
	plan, ok := out["plan"].(map[string]any)
	if !ok {
		t.Fatalf("eval response has no plan echo: %v", out)
	}
	if plan["fusion"] == "" || plan["expression"] != "a*b*c" {
		t.Fatalf("plan echo = %v, want expression a*b*c with a fusion strategy", plan)
	}
	if fs, _ := out["fused_stages"].(float64); fs == 0 {
		t.Fatalf("eval of a square 3-chain reported no fused stages: %v", out)
	}
	if out["stored"] != "abc" {
		t.Fatalf("stored = %v, want abc", out["stored"])
	}

	// The stored product multiplies like any catalog entry.
	resp2, out2 := multiply(t, ts.URL, map[string]any{"a": "abc", "b": "a"})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("multiply with stored eval result: status %d (%v)", resp2.StatusCode, out2)
	}

	// Bindings rename identifiers.
	resp3, out3 := eval(t, ts.URL, map[string]any{
		"expr": "M*N", "bindings": map[string]string{"M": "a", "N": "b"},
	})
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("bound eval: status %d (%v)", resp3.StatusCode, out3)
	}

	// A skinny right end makes a panel chain: the reply names the order
	// the panel executor runs in — right to left — not an association the
	// DP would have picked for matrices that are never formed.
	var xbuf bytes.Buffer
	if err := mmio.WriteBinary(&xbuf, mat.RandomCOO(rand.New(rand.NewSource(93)), 64, 4, 128)); err != nil {
		t.Fatal(err)
	}
	if resp := upload(t, ts.URL, "x", &xbuf); resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload x: status %d", resp.StatusCode)
	} else {
		resp.Body.Close()
	}
	for src, order := range map[string]string{"x'*a*x": "(x'·(a·x))", "pow(a,3)*b*x": "(pow(a,3)·(b·x))"} {
		resp, out := eval(t, ts.URL, map[string]any{"expr": src})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("eval %s: status %d (%v), want 200", src, resp.StatusCode, out)
		}
		if plan, _ := out["plan"].(map[string]any); plan["fusion"] != "panel" || plan["order"] != order {
			t.Errorf("eval %s: plan echo %v, want fusion panel in order %s", src, plan, order)
		}
	}

	// Typed client errors.
	for _, tc := range []struct {
		req  map[string]any
		want int
	}{
		{map[string]any{"expr": "a*"}, http.StatusBadRequest},     // parse error
		{map[string]any{}, http.StatusBadRequest},                 // missing expr
		{map[string]any{"expr": "a*nosuch"}, http.StatusNotFound}, // unknown matrix
		{map[string]any{"expr": "a*b", "iterations": -2}, http.StatusBadRequest},
	} {
		resp, out := eval(t, ts.URL, tc.req)
		if resp.StatusCode != tc.want {
			t.Errorf("eval %v: status %d (%v), want %d", tc.req, resp.StatusCode, out, tc.want)
		}
	}

	if v := metricValue(t, ts.URL, "atserve_eval_jobs_total"); v < 2 {
		t.Errorf("atserve_eval_jobs_total = %v, want ≥ 2", v)
	}
	if v := metricValue(t, ts.URL, "atserve_eval_fused_stages_total"); v == 0 {
		t.Errorf("atserve_eval_fused_stages_total = 0, want > 0")
	}
	if v := metricValue(t, ts.URL, "atserve_eval_plan_seconds_total"); v <= 0 {
		t.Errorf("atserve_eval_plan_seconds_total = %v, want > 0", v)
	}
}

// TestEvalChaos: the expression fault sites drive the retry and
// quarantine machinery end to end — transient plan faults are retried
// into success, stage panics fail typed and quarantine the operand
// combination, deleting an implicated matrix lifts the block, and no
// goroutines leak through any of it.
func TestEvalChaos(t *testing.T) {
	leakcheck.Check(t)
	t.Cleanup(func() { sched.RuntimeFor(testConfig().Topology).Close() })
	t.Cleanup(faultinject.Disable)
	_, ts := newTestServer(t, 0, service.Options{
		RetryBase: 2 * time.Millisecond,
		Verify:    1,
	})

	for i, name := range []string{"a", "b", "c"} {
		resp := upload(t, ts.URL, name, rmatStream(t, 64, 640, int64(70+i)))
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("upload %s: status %d", name, resp.StatusCode)
		}
		resp.Body.Close()
	}

	// --- Fault 1: a transient planning fault. The retry loop re-executes
	// and the job succeeds; the retry is visible in the counters.
	faultinject.Enable(1, faultinject.Rule{Site: "expr.plan", Kind: faultinject.KindTransient, Count: 1})
	resp, out := eval(t, ts.URL, map[string]any{"expr": "a*b*c"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("eval through transient plan fault: status %d (%v), want 200", resp.StatusCode, out)
	}
	if v := metricValue(t, ts.URL, "atserve_retries_total"); v < 1 {
		t.Fatalf("atserve_retries_total = %v, want ≥ 1 after transient plan fault", v)
	}
	faultinject.Disable()

	// --- Fault 2: a stage panic. The job fails typed — never a wrong
	// answer — and the operand combination is quarantined.
	faultinject.Enable(1, faultinject.Rule{Site: "expr.stage", Kind: faultinject.KindPanic})
	resp, out = eval(t, ts.URL, map[string]any{"expr": "a*b*c"})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("eval with stage panic: status %d (%v), want 500", resp.StatusCode, out)
	}
	faultinject.Disable()

	resp, out = eval(t, ts.URL, map[string]any{"expr": "a*b*c"})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("eval on quarantined combination: status %d (%v), want 422", resp.StatusCode, out)
	}
	// The quarantine is surgical: subsets of the combination still run.
	resp, out = eval(t, ts.URL, map[string]any{"expr": "a*b"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("eval of subset of quarantined combination: status %d (%v), want 200", resp.StatusCode, out)
	}

	// --- Recovery: deleting and re-loading an implicated matrix lifts the
	// combination quarantine.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/matrices/c", nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete c: status %d, want 204", dresp.StatusCode)
	}
	uresp := upload(t, ts.URL, "c", rmatStream(t, 64, 640, 72))
	if uresp.StatusCode != http.StatusCreated {
		t.Fatalf("re-upload c: status %d", uresp.StatusCode)
	}
	uresp.Body.Close()
	resp, out = eval(t, ts.URL, map[string]any{"expr": "a*b*c"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("eval after lifting quarantine: status %d (%v), want 200", resp.StatusCode, out)
	}
}
