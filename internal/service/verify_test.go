package service

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"atmatrix/internal/core"
	"atmatrix/internal/faultinject"
	"atmatrix/internal/mat"
)

// TestVerifyCatchesBitflipRetriesOnceThenPermanent is the verify
// classification contract: with every multiply's result corrupted by an
// armed bitflip rule, a verifying manager re-executes the job exactly once
// and then fails it permanently with core.ErrVerifyFailed — wrong answers
// are never served and never retried forever.
func TestVerifyCatchesBitflipRetriesOnceThenPermanent(t *testing.T) {
	m := chaosManager(t, Options{Verify: 2, RetryBase: 1, RetryMax: 2})
	faultinject.Enable(1, faultinject.Rule{
		Site: "core.mult.result", Kind: faultinject.KindBitflip, Count: 8,
	})

	job, err := m.Submit(Request{A: "a", B: "b"})
	if err != nil {
		t.Fatal(err)
	}
	_, err = job.Wait()
	if !errors.Is(err, core.ErrVerifyFailed) {
		t.Fatalf("job error = %v, want core.ErrVerifyFailed", err)
	}
	mm := m.Metrics()
	if mm.Retries != 1 {
		t.Fatalf("retries = %d, want exactly 1 for a persistent verify failure", mm.Retries)
	}
	if mm.VerifyFailed != 2 {
		t.Fatalf("verify_failed = %d, want 2 (first attempt plus the retry)", mm.VerifyFailed)
	}
	if mm.Failed != 1 {
		t.Fatalf("failed = %d, want 1", mm.Failed)
	}
	requireZeroRefs(t, m)
}

// TestVerifyBitflipTransientRecoversOnRetry: a one-off corruption (rule
// fires once) fails the first attempt's verification; the retry is clean
// and the job completes, with the failure visible only in the counters.
func TestVerifyBitflipTransientRecoversOnRetry(t *testing.T) {
	m := chaosManager(t, Options{Verify: 2, RetryBase: 1, RetryMax: 2})
	faultinject.Enable(1, faultinject.Rule{
		Site: "core.mult.result", Kind: faultinject.KindBitflip, Count: 1,
	})

	job, err := m.Submit(Request{A: "a", B: "b"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := job.Wait(); err != nil {
		t.Fatalf("job with transient corruption: %v, want recovery on retry", err)
	}
	mm := m.Metrics()
	if mm.VerifyFailed != 1 || mm.Retries != 1 || mm.Completed != 1 {
		t.Fatalf("metrics = {verify_failed:%d retries:%d completed:%d}, want 1/1/1",
			mm.VerifyFailed, mm.Retries, mm.Completed)
	}
	if mm.Mult.VerifyTime <= 0 {
		t.Fatalf("aggregated VerifyTime = %v, want > 0 with verification on", mm.Mult.VerifyTime)
	}
	requireZeroRefs(t, m)
}

// TestVerifyDisabledServesBitflippedResult documents the trade-off Verify
// buys out of: without verification the corrupted product is served as a
// success. (This is the control experiment for the two tests above.)
func TestVerifyDisabledServesBitflippedResult(t *testing.T) {
	m := chaosManager(t, Options{})
	faultinject.Enable(1, faultinject.Rule{
		Site: "core.mult.result", Kind: faultinject.KindBitflip, Count: 1,
	})
	job, err := m.Submit(Request{A: "a", B: "b"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := job.Wait(); err != nil {
		t.Fatalf("unverified job: %v", err)
	}
	if mm := m.Metrics(); mm.VerifyFailed != 0 || mm.Completed != 1 {
		t.Fatalf("metrics = %+v, want completed=1 and no verify failures", mm)
	}
	requireZeroRefs(t, m)
}

// TestVerifyChainMultiplication: chain jobs route through the expression
// engine, whose verification probes the final product against the raw
// operands with expression-level Freivalds rounds — fused chains have no
// per-step products to verify, so the check works end to end instead. A
// clean chain passes it and reports the plan it executed.
func TestVerifyChainMultiplication(t *testing.T) {
	m := chaosManager(t, Options{Verify: 1})
	job, err := m.Submit(Request{Chain: []string{"a", "b", "c"}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := job.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan == nil || res.ChainExpr == "" {
		t.Fatalf("chain result missing plan echo: %+v", res)
	}
	mm := m.Metrics()
	if mm.EvalJobs != 1 {
		t.Fatalf("eval_jobs = %d, want 1 (chains execute through the planner)", mm.EvalJobs)
	}
	if mm.VerifyFailed != 0 || mm.Completed != 1 {
		t.Fatalf("metrics = {verify_failed:%d completed:%d}, want 0/1", mm.VerifyFailed, mm.Completed)
	}
	requireZeroRefs(t, m)
}

// TestVerifyServesNonFiniteProduct: a correct product that holds an
// infinity is served — one execution, no retry, no verify failure — where
// it used to be retried once and then refused as systematic corruption.
func TestVerifyServesNonFiniteProduct(t *testing.T) {
	m := chaosManager(t, Options{Verify: 2, RetryBase: 1, RetryMax: 2})
	const n = 48
	coo := mat.NewCOO(n, n)
	for i := 0; i < n; i++ {
		coo.Append(i, i, float64(i%5)+1)
		coo.Append(i, (i+7)%n, -0.25)
	}
	coo.Append(3, 3, math.Inf(1))
	inf, _, err := core.Partition(coo, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.cat.Put("inf", inf, false); err != nil {
		t.Fatal(err)
	}
	job, err := m.Submit(Request{A: "inf", B: "inf"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := job.Wait(); err != nil {
		t.Fatalf("product with an infinite entry: %v", err)
	}
	if mm := m.Metrics(); mm.VerifyFailed != 0 || mm.Retries != 0 || mm.Completed != 1 {
		t.Fatalf("metrics = {verify_failed:%d retries:%d completed:%d}, want 0/0/1", mm.VerifyFailed, mm.Retries, mm.Completed)
	}
	requireZeroRefs(t, m)
}

// TestVerifyDeadlineIsNotAVerifyFailure: a deadline that lands anywhere in
// a verified job — the team-swept Freivalds check included, which a
// cancellation leaves with half-filled panels — cancels it; it is never
// reported, retried or counted as a failed verification.
func TestVerifyDeadlineIsNotAVerifyFailure(t *testing.T) {
	m := chaosManager(t, Options{Verify: 2, RetryBase: 1, RetryMax: 2})
	// 768² and dense: the product is above the sweeper's team cut-off.
	wide, _, err := core.Partition(mat.RandomCOO(rand.New(rand.NewSource(3)), 768, 768, 60000), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.cat.Put("wide", wide, false); err != nil {
		t.Fatal(err)
	}
	for _, req := range []Request{{A: "wide", B: "wide"}, {Expr: "wide*wide'+wide"}} {
		for timeout := 500 * time.Microsecond; timeout < time.Minute; timeout *= 2 {
			req.Timeout = timeout
			job, err := m.Submit(req)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := job.Wait(); err == nil {
				break // longer deadlines only finish too
			} else if classify(err) != failCanceled {
				t.Fatalf("%+v: %v, want a deadline error", req, err)
			}
		}
	}
	if mm := m.Metrics(); mm.VerifyFailed != 0 || mm.Failed != 0 || mm.Retries != 0 || mm.Completed != 2 {
		t.Fatalf("metrics = {verify_failed:%d failed:%d retries:%d completed:%d}, want 0/0/0/2", mm.VerifyFailed, mm.Failed, mm.Retries, mm.Completed)
	}
	requireZeroRefs(t, m)
}
