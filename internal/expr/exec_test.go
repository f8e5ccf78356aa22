package expr

import (
	"bytes"
	"io"
	"math"
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
// on its seed-1 operands (Table I stand-ins at 1/16, b_atomic 64) at four
// topologies. The digests are the Encode CRC-32C recorded before fused
// results were staged through core.PartitionRows (1x2's before a socket's
// second core took tasks of its own); never edit them. The
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
		{Sockets: 1, CoresPerSocket: 2}: {"R9*R9*R9": 0x4e57a4cd, "pow(G9,10)*x": 0x25a6763e, "0.5*R8'*R8+0.5*R8": 0x8557a4da},
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

// TestScalarsFoldIntoAdd: an operand of a sum scaled by s ≠ 0 enters
// core.Add with s as its weight (negated under '-') instead of being scaled
// first. Every result must be bit-equal to the route that scales first — a
// Repartition copy of a bound operand, a sub-result in place — and then adds
// with weights 1 and ±1. N stores NaN and ±Inf: under a zero scalar it keeps
// the copy route (0·NaN and 0·Inf are NaN, and a zero weight would drop N
// whole); under a non-zero one NaN and the infinities are scaled either way.
func TestScalarsFoldIntoAdd(t *testing.T) {
	for _, topo := range []numa.Topology{{Sockets: 1, CoresPerSocket: 1}, {Sockets: 2, CoresPerSocket: 1}} {
		cfg := testCfg()
		cfg.Topology = topo
		bind := testBindings(t, cfg)
		rng := rand.New(rand.NewSource(11))
		n := mat.RandomCOO(rng, 128, 128, 600)
		n.Ent[5].Val, n.Ent[300].Val, n.Ent[len(n.Ent)-1].Val = math.NaN(), math.Inf(1), math.Inf(-1)
		nm, _, err := core.Partition(n, cfg)
		if err != nil {
			t.Fatal(err)
		}
		bind["N"] = nm
		scaled := func(m *core.ATMatrix, s float64, owned bool) *core.ATMatrix {
			if !owned {
				if m, _, err = m.Repartition(cfg); err != nil {
					t.Fatal(err)
				}
			}
			m.Scale(s)
			return m
		}
		add := func(l, r *core.ATMatrix, beta float64) *core.ATMatrix {
			out, err := core.Add(l, r, 1, beta, cfg)
			if err != nil {
				t.Fatal(err)
			}
			return out
		}
		a, b, c := bind["A"], bind["B"], bind["C"]
		for _, tc := range []struct {
			src  string
			want func() *core.ATMatrix
		}{
			{"0*N+B", func() *core.ATMatrix { return add(scaled(nm, 0, false), b, 1) }},
			{"B-0*N", func() *core.ATMatrix { return add(b, scaled(nm, 0, false), -1) }},
			{"-0.5*A - 2*B", func() *core.ATMatrix { return add(scaled(a, -0.5, false), scaled(b, 2, false), -1) }},
			{"0.5*(A+B)+C", func() *core.ATMatrix { return add(scaled(add(a, b, 1), 0.5, true), c, 1) }},
			{"3*N - 0.25*N", func() *core.ATMatrix { return add(scaled(nm, 3, false), scaled(nm, 0.25, false), -1) }},
		} {
			got, _, _, err := Eval(tc.src, bind, cfg, Options{})
			if err != nil {
				t.Fatalf("%s: %v", tc.src, err)
			}
			if !bytes.Equal(atmBytes(t, got), atmBytes(t, tc.want())) {
				t.Errorf("%dx%d %s: differs from the route that scales a copy first", topo.Sockets, topo.CoresPerSocket, tc.src)
			}
		}
	}
}
