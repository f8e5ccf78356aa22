package expr

import (
	"io"
	"math/rand"
	"testing"

	"atmatrix/internal/core"
	"atmatrix/internal/gen"
	"atmatrix/internal/mat"
	"atmatrix/internal/numa"
	"atmatrix/internal/sched"
)

// TestExprResultDigests pins the bytes of the benchmark's three eval_chain
// results — a row-streamed chain, a panel chain and a transpose/scale/sum —
// on its seed-1 operands (Table I stand-ins at 1/16, b_atomic 64) at three
// topologies. The digests are the Encode CRC-32C recorded before fused
// results were staged through core.PartitionRows; never edit them. The
// panel result's bytes differ between one socket and two because tile
// homes are serialized.
func TestExprResultDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("generates the 1/16 stand-ins")
	}
	bind := map[string]*mat.COO{}
	for _, id := range []string{"R9", "G9", "R8"} {
		s, err := gen.Lookup(id)
		if err != nil {
			t.Fatal(err)
		}
		s.Seed += 1000
		if bind[id], err = s.Generate(1.0 / 16); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(1007))
	x := mat.NewCOO(bind["G9"].Rows, 8)
	for r := 0; r < x.Rows; r++ {
		for c := 0; c < x.Cols; c++ {
			x.Append(r, c, rng.Float64())
		}
	}
	bind["x"] = x

	fusion := map[string]string{"R9*R9*R9": "row-stream", "pow(G9,10)*x": "panel", "0.5*R8'*R8+0.5*R8": "materialized"}
	want := map[numa.Topology]map[string]uint32{
		{Sockets: 1, CoresPerSocket: 1}: {"R9*R9*R9": 0x4e57a4cd, "pow(G9,10)*x": 0x25a6763e, "0.5*R8'*R8+0.5*R8": 0x8557a4da},
		{Sockets: 2, CoresPerSocket: 1}: {"R9*R9*R9": 0x4e57a4cd, "pow(G9,10)*x": 0xc8014c33, "0.5*R8'*R8+0.5*R8": 0x8557a4da},
		{Sockets: 2, CoresPerSocket: 2}: {"R9*R9*R9": 0x4e57a4cd, "pow(G9,10)*x": 0xc8014c33, "0.5*R8'*R8+0.5*R8": 0x8557a4da},
	}
	for topo, digests := range want {
		cfg := core.PaperConfig()
		cfg.BAtomic = 64
		cfg.Topology = topo
		mats := map[string]*core.ATMatrix{}
		for name, coo := range bind {
			m, _, err := core.Partition(coo, cfg)
			if err != nil {
				t.Fatal(err)
			}
			mats[name] = m
		}
		for src, digest := range digests {
			out, plan, _, err := Eval(src, mats, cfg, Options{Mult: core.DefaultMultOptions()})
			if err != nil {
				t.Fatalf("%dx%d %s: %v", topo.Sockets, topo.CoresPerSocket, src, err)
			}
			if got := plan.Summary().Fusion; got != fusion[src] {
				t.Errorf("%dx%d %s: fusion %s, want %s", topo.Sockets, topo.CoresPerSocket, src, got, fusion[src])
			}
			if _, got, err := out.Encode(io.Discard); err != nil {
				t.Fatal(err)
			} else if got != digest {
				t.Errorf("%dx%d %s: result digest 0x%08x, the parent's is 0x%08x", topo.Sockets, topo.CoresPerSocket, src, got, digest)
			}
		}
		sched.RuntimeFor(topo).Close()
	}
}
