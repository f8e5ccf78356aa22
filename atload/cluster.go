package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"atmatrix/internal/catalog"
	"atmatrix/internal/cluster"
	"atmatrix/internal/core"
	"atmatrix/internal/numa"
)

// countingTransport counts the request-body bytes the coordinator sends to
// its workers — the operand transport's cost, seen from outside.
type countingTransport struct {
	base http.RoundTripper
	sent atomic.Int64
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

func (t *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Body != nil {
		req.Body = countingBody{req.Body, &t.sent}
	}
	return t.base.RoundTrip(req)
}

// clusterProbe stands up, in this process and on loopback like
// bench_cluster_test.go, one coordinator and two workers at a 1×1 topology
// with R = 2, heartbeats and repair off, and multiplies R2·R2 and G9·G9 by
// shard reference and with the operands shipped inline. There is no
// end-to-end cluster workload: three processes on two shared cores would
// report the host's scheduler. What the probe is for is the exact byte and
// frame counts the "one operand transport" simplification will be judged on.
func clusterProbe(ms metricSet, w io.Writer, seed int64, base core.Config, quick bool) error {
	cfg := base
	cfg.Topology = numa.Topology{Sockets: 1, CoresPerSocket: 1}

	var servers []*http.Server
	var done []chan struct{}
	var addrs []string
	defer func() {
		for i, srv := range servers {
			_ = srv.Close()
			<-done[i]
		}
	}()
	for i := 0; i < 2; i++ {
		mux := http.NewServeMux()
		cluster.NewWorker(cfg).Register(mux)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fmt.Errorf("cluster probe: %w", err)
		}
		srv := &http.Server{Handler: mux}
		ch := make(chan struct{})
		go func() { defer close(ch); _ = srv.Serve(ln) }()
		servers, done, addrs = append(servers, srv), append(done, ch), append(addrs, ln.Addr().String())
	}
	transport := &countingTransport{base: &http.Transport{MaxIdleConnsPerHost: 4}}
	defer transport.base.(*http.Transport).CloseIdleConnections()
	coord := cluster.NewCoordinator(cfg, cluster.Options{
		HeartbeatPeriod: -1, RepairPeriod: -1, Replication: 2,
		RPCTimeout: 60 * time.Second, Client: &http.Client{Transport: transport},
	}, addrs)
	defer coord.Close()
	cat, err := catalog.Open(cfg, 0, "")
	if err != nil {
		return err
	}
	defer cat.Close()
	coord.AttachCatalog(cat)

	ids := []string{"R2", "G9"}
	if quick {
		ids = ids[:1]
	}
	opts := core.DefaultMultOptions()
	reps := 2
	var refMS, inlineMS, overhead, putMS []float64
	var refBytes, shipBytes, frames float64
	for _, id := range ids {
		_, m, err := probeMatrix(id, seed, cfg)
		if err != nil {
			return err
		}
		var buf bytes.Buffer
		if _, err := m.WriteTo(&buf); err != nil {
			return err
		}
		if _, err := cat.Load(id, catalog.FormatATM, &buf, false); err != nil {
			return fmt.Errorf("cluster probe: loading %s: %w", id, err)
		}
		t0 := time.Now()
		if err := coord.ShardByName(context.Background(), id); err != nil {
			return fmt.Errorf("cluster probe: sharding %s: %w", id, err)
		}
		putMS = append(putMS, float64(time.Since(t0).Nanoseconds())/1e6)

		multiply := func(name string) (ms float64, sent, merged int64, err error) {
			var times []float64
			sent0, frames0 := transport.sent.Load(), coord.Stats().MergeFrames
			for i := 0; i < reps; i++ {
				t0 := time.Now()
				c, _, err := coord.Multiply(name, name, m, m, opts)
				if err != nil {
					return 0, 0, 0, fmt.Errorf("cluster probe: %s*%s: %w", name, name, err)
				}
				times = append(times, float64(time.Since(t0).Nanoseconds())/1e6)
				if c.Rows != m.Rows || c.NNZ() == 0 {
					return 0, 0, 0, fmt.Errorf("cluster probe: %s*%s returned an empty product", name, name)
				}
			}
			return median(times), (transport.sent.Load() - sent0) / int64(reps), (coord.Stats().MergeFrames - frames0) / int64(reps), nil
		}
		// Unsharded names take the wire-shipping path: operand bytes ride
		// inline in every exec frame.
		inMS, inSent, _, err := multiply(id + "-inline")
		if err != nil {
			return err
		}
		rMS, rSent, rFrames, err := multiply(id)
		if err != nil {
			return err
		}
		refMS, inlineMS = append(refMS, rMS), append(inlineMS, inMS)
		refBytes, shipBytes, frames = refBytes+float64(rSent), shipBytes+float64(inSent), frames+float64(rFrames)
		// Local ATMULT at the same 1×1 topology is the base of the ratio.
		t0 = time.Now()
		if _, _, err := core.MultiplyOpt(m, m, cfg, opts); err != nil {
			return err
		}
		local := float64(time.Since(t0).Nanoseconds()) / 1e6
		overhead = append(overhead, rMS/local)
		fmt.Fprintf(w, "  cluster %s*%s: by reference %.1f ms (%d request bytes, %d frames), inline %.1f ms (%d request bytes), local 1x1 %.1f ms\n", id, id, rMS, rSent, rFrames, inMS, inSent, local)
	}
	st := coord.Stats()
	if st.RemoteMultiplies == 0 {
		return fmt.Errorf("cluster probe: no multiply executed remotely")
	}
	ms.set("cluster.multiply_ref_ms", geomean(refMS))
	ms.set("cluster.multiply_inline_ms", geomean(inlineMS))
	ms.set("cluster.overhead_ratio", geomean(overhead))
	ms.set("cluster.shard_put_ms", geomean(putMS))
	ms.set("cluster.ship_bytes", shipBytes)
	ms.set("cluster.ref_bytes", refBytes)
	ms.set("cluster.merge_frames", frames)
	ms.set("cluster.merge_peak_bytes", float64(st.MergePeakBytes))
	return nil
}
