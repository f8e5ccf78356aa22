package core

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"atmatrix/internal/mat"
)

// cancelOperand builds a multiply that has plenty of tile-task batches to
// abort between: a fine-grained partition of a mid-size random matrix.
func cancelOperand(t *testing.T, seed int64) (*ATMatrix, Config) {
	t.Helper()
	cfg := testConfig()
	rng := rand.New(rand.NewSource(seed))
	am, _, err := Partition(mat.RandomCOO(rng, 1024, 1024, 120000), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return am, cfg
}

// TestConcurrentCancelMidMultiply cancels a large multiplication mid-flight
// and asserts that it aborts with the context error instead of producing a
// partial result, and that the persistent teams survive to serve the next
// multiplication. Run under -race by `make check`.
func TestConcurrentCancelMidMultiply(t *testing.T) {
	a, cfg := cancelOperand(t, 1)
	ctx, cancel := context.WithCancel(context.Background())
	opts := DefaultMultOptions()
	opts.Ctx = ctx

	type res struct {
		c   *ATMatrix
		err error
	}
	done := make(chan res, 1)
	go func() {
		c, _, err := MultiplyOpt(a, a, cfg, opts)
		done <- res{c, err}
	}()
	// Let the multiply get going, then pull the plug. If the machine is so
	// fast that the multiply already finished, the test is vacuous but not
	// wrong; the deadline variant below is deterministic.
	time.Sleep(2 * time.Millisecond)
	cancel()
	select {
	case r := <-done:
		if r.err != nil {
			if !errors.Is(r.err, context.Canceled) {
				t.Fatalf("cancelled multiply returned %v, want context.Canceled", r.err)
			}
			if r.c != nil {
				t.Fatalf("cancelled multiply returned a partial result")
			}
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled multiply did not return")
	}

	// The shared runtime must not be wedged by the aborted run.
	if _, _, err := Multiply(a, a, cfg); err != nil {
		t.Fatalf("multiply after cancellation: %v", err)
	}
}

// TestConcurrentCancelDeadlineExceeded uses an already-expired deadline:
// the operator must refuse deterministically with DeadlineExceeded.
func TestConcurrentCancelDeadlineExceeded(t *testing.T) {
	a, cfg := cancelOperand(t, 2)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	opts := DefaultMultOptions()
	opts.Ctx = ctx
	c, _, err := MultiplyOpt(a, a, cfg, opts)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired multiply returned %v, want context.DeadlineExceeded", err)
	}
	if c != nil {
		t.Fatal("expired multiply returned a result")
	}
}

// TestConcurrentCancelEphemeralWorkersReturn cancels a multiply running with
// throwaway scratch (EphemeralWorkers) and asserts it returns and leaves no
// goroutine behind — the count returns to its baseline.
func TestConcurrentCancelEphemeralWorkersReturn(t *testing.T) {
	a, cfg := cancelOperand(t, 3)
	cfg.EphemeralWorkers = true
	base := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	opts := DefaultMultOptions()
	opts.Ctx = ctx
	errCh := make(chan error, 1)
	go func() {
		_, _, err := MultiplyOpt(a, a, cfg, opts)
		errCh <- err
	}()
	time.Sleep(2 * time.Millisecond)
	cancel()
	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled multiply returned %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled ephemeral multiply did not return")
	}
	// Nothing the call started may outlive it.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("goroutines leaked after cancellation: %d > baseline %d", n, base)
	}
}

// TestConcurrentCancelChain checks MultiplyChainOpt honors an expired
// context between steps.
func TestConcurrentCancelChain(t *testing.T) {
	a, cfg := cancelOperand(t, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := DefaultMultOptions()
	opts.Ctx = ctx
	if _, _, err := MultiplyChainOpt([]*ATMatrix{a, a, a}, cfg, opts); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled chain returned %v, want context.Canceled", err)
	}
}
