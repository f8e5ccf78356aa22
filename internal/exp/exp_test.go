package exp

import (
	"bytes"
	"strings"
	"testing"

	"atmatrix/internal/core"
	"atmatrix/internal/costmodel"
	"atmatrix/internal/numa"
)

// tinyOptions runs the harness at a very small scale so the full pipeline
// executes in milliseconds.
func tinyOptions() Options {
	o := DefaultOptions()
	o.Scale = 1.0 / 128
	o.FlopCap = 5e8
	o.Topology = numa.Topology{Sockets: 2, CoresPerSocket: 1}
	return o
}

func TestConfigScaling(t *testing.T) {
	o := DefaultOptions()
	cfg := o.Config()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	// At scale 1/16: b_atomic = 1024/16 = 64, LLC = 24 MB/256 = 96 KB.
	if cfg.BAtomic != 64 {
		t.Fatalf("b_atomic = %d, want 64", cfg.BAtomic)
	}
	if cfg.LLCBytes != (24<<20)/256 {
		t.Fatalf("LLC = %d, want %d", cfg.LLCBytes, (24<<20)/256)
	}
	// The geometry matches the paper: τ^d_max = b_atomic, as at full scale.
	if cfg.MaxDenseTileDim() != cfg.BAtomic {
		t.Fatalf("τ^d_max %d != b_atomic %d", cfg.MaxDenseTileDim(), cfg.BAtomic)
	}
	// Tiny scales clamp to the floors.
	o.Scale = 1e-6
	cfg = o.Config()
	if cfg.BAtomic < 16 || cfg.LLCBytes < 1<<14 {
		t.Fatalf("floors not applied: b=%d llc=%d", cfg.BAtomic, cfg.LLCBytes)
	}
}

// TestFigureConfigIsServerCostModel pins the figure harness to the
// server's one cost table: the recorded configuration decides by
// costmodel.Default() and the server's ρ0^W, so two Fig. 8 runs make the
// same decisions — conversions, write threshold, result tile kinds — and
// store the same result bytes.
func TestFigureConfigIsServerCostModel(t *testing.T) {
	cfg := DefaultOptions().Config()
	if cfg.Cost != costmodel.Default() {
		t.Fatalf("figure cost table %+v, want costmodel.Default() %+v", cfg.Cost, costmodel.Default())
	}
	if want := core.PaperConfig().RhoWrite; cfg.RhoWrite != want {
		t.Fatalf("figure ρ0^W = %g, want the server's %g", cfg.RhoWrite, want)
	}

	o := tinyOptions()
	o.IDs = []string{"R1", "R3", "G9"}
	first, err := RunFig8(o)
	if err != nil {
		t.Fatal(err)
	}
	second, err := RunFig8(o)
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range first {
		b := second[i]
		if a.Conversions != b.Conversions || a.BytesATMatrix != b.BytesATMatrix ||
			a.WriteThreshold != b.WriteThreshold || a.SparseTiles != b.SparseTiles || a.DenseTiles != b.DenseTiles {
			t.Errorf("%s: decisions moved between runs: conversions %d/%d, bytes %d/%d, ρW %g/%g, tiles %d+%d/%d+%d",
				a.ID, a.Conversions, b.Conversions, a.BytesATMatrix, b.BytesATMatrix, a.WriteThreshold, b.WriteThreshold,
				a.SparseTiles, a.DenseTiles, b.SparseTiles, b.DenseTiles)
		}
	}
}

func TestSpecsSelection(t *testing.T) {
	o := tinyOptions()
	all, err := o.Specs()
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 18 {
		t.Fatalf("%d specs, want 18", len(all))
	}
	o.IDs = []string{"R3", "G1"}
	sel, err := o.Specs()
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != 2 || sel[0].ID != "R3" || sel[1].ID != "G1" {
		t.Fatalf("selection wrong: %+v", sel)
	}
	o.IDs = []string{"bogus"}
	if _, err := o.Specs(); err == nil {
		t.Fatal("bogus id accepted")
	}
}

func TestRunTab1(t *testing.T) {
	o := tinyOptions()
	o.IDs = []string{"R1", "R3", "R7", "G1"}
	var buf bytes.Buffer
	o.Out = &buf
	rows, err := RunTab1(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.NNZ <= 0 || r.Dim <= 0 || r.BinBytes != 16*r.NNZ {
			t.Fatalf("row %s inconsistent: %+v", r.ID, r)
		}
	}
	// Densities must match Table I: R1 ≈ 14.8%, R7 ≈ 0.016%.
	if rows[0].Density < 10 || rows[0].Density > 20 {
		t.Fatalf("R1 density %.3f%%, want ≈14.8%%", rows[0].Density)
	}
	if rows[2].Density > 0.1 {
		t.Fatalf("R7 density %.4f%%, want ≈0.016%%", rows[2].Density)
	}
	if !strings.Contains(buf.String(), "Table I") {
		t.Fatal("table not rendered")
	}
}

func TestRunFig7(t *testing.T) {
	o := tinyOptions()
	o.IDs = []string{"R1", "R3"}
	var buf bytes.Buffer
	o.Out = &buf
	rows, err := RunFig7(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.MultTime <= 0 || r.SortTime < 0 {
			t.Fatalf("row %+v", r)
		}
		if r.RelativeTotal <= 0 {
			t.Fatalf("row %s: no relative total", r.ID)
		}
	}
}

func TestRunFig8(t *testing.T) {
	o := tinyOptions()
	o.IDs = []string{"R1", "R3", "R7"}
	var buf bytes.Buffer
	o.Out = &buf
	rows, err := RunFig8(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.SpSpSp <= 0 || r.ATTotal <= 0 {
			t.Fatalf("row %s missing baseline or ATMULT time", r.ID)
		}
		if r.ResultNNZ <= 0 {
			t.Fatalf("row %s: empty result", r.ID)
		}
		if r.BytesATMatrix <= 0 || r.BytesATMatrix > r.BytesDense {
			t.Fatalf("row %s: AT MATRIX bytes %d outside (0, dense=%d]", r.ID, r.BytesATMatrix, r.BytesDense)
		}
	}
	out := buf.String()
	if !strings.Contains(out, "Fig. 8a") || !strings.Contains(out, "Fig. 8c") {
		t.Fatal("tables not rendered")
	}
}

func TestRunFig9(t *testing.T) {
	o := tinyOptions()
	o.IDs = []string{"R1", "R3"}
	var buf bytes.Buffer
	o.Out = &buf
	rows, err := RunFig9(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 { // two orders per matrix
		t.Fatalf("%d rows, want 4", len(rows))
	}
	seenDenseLeft := false
	for _, r := range rows {
		if r.Mixed <= 0 || r.ATMult <= 0 {
			t.Fatalf("row %+v missing timings", r)
		}
		if r.DenseLeft {
			seenDenseLeft = true
		}
	}
	if !seenDenseLeft {
		t.Fatal("dense-left order not measured")
	}
}

func TestRunFig10(t *testing.T) {
	o := tinyOptions()
	o.IDs = []string{"R3"}
	var buf bytes.Buffer
	o.Out = &buf
	rows, err := RunFig10(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("%d rows, want 6 steps", len(rows))
	}
	if rows[0].Relative != 1 {
		t.Fatalf("baseline relative %g, want 1", rows[0].Relative)
	}
	for _, r := range rows[1:] {
		if r.MultiplyTime <= 0 || r.Relative <= 0 {
			t.Fatalf("step %v: %+v", r.Step, r)
		}
	}
}

func TestRunFig10DefaultsToPaperMatrices(t *testing.T) {
	if len(Fig10Matrices) != 5 {
		t.Fatalf("Fig10Matrices = %v", Fig10Matrices)
	}
}

func TestRunFig2(t *testing.T) {
	o := tinyOptions()
	var buf bytes.Buffer
	o.Out = &buf
	res, err := RunFig2(o)
	if err != nil {
		t.Fatal(err)
	}
	if res.ID != "R3" {
		t.Fatalf("default matrix %s", res.ID)
	}
	if res.FineTiles <= res.CoarseTiles {
		t.Fatalf("fine granularity %d tiles vs coarse %d — expected more", res.FineTiles, res.CoarseTiles)
	}
	if !strings.Contains(res.LayoutCoarse, "#") {
		t.Fatal("R3 layout shows no dense tiles")
	}
	if res.EstimatedResultMap == "" || res.ActualResultMap == "" {
		t.Fatal("density maps not rendered")
	}
	// At this tiny scale the R3 blob size is comparable to a map cell, so
	// the block-uniformity assumption loses precision; the estimator is
	// accuracy-tested on the uniform G1 below and in the density package.
	if res.MaxMapError < 0 || res.MaxMapError > 1 {
		t.Fatalf("estimator error %g out of range", res.MaxMapError)
	}

	o.IDs = []string{"G1"}
	resG, err := RunFig2(o)
	if err != nil {
		t.Fatal(err)
	}
	if resG.MaxMapError > 0.2 {
		t.Fatalf("estimator error %g on uniform G1, want ≤ 0.2", resG.MaxMapError)
	}
}

func TestRunFig5(t *testing.T) {
	o := tinyOptions()
	var buf bytes.Buffer
	o.Out = &buf
	res, err := RunFig5(o)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, b := range res.Histogram {
		total += b.Count
	}
	if total == 0 {
		t.Fatal("empty histogram")
	}
	// The memory curve must be finite and the water levels must honor
	// their limits (where satisfiable).
	for _, l := range res.Levels {
		if l.Bytes > l.LimitBytes && l.Level <= 1 {
			t.Fatalf("level %+v violates its limit", l)
		}
	}
	if len(res.Curve) < 3 {
		t.Fatal("memory curve too short")
	}
}

func TestFormatters(t *testing.T) {
	if fmtBytes(512) != "512B" || fmtBytes(2048) != "2.0KB" || fmtBytes(-1) != "-" {
		t.Fatal("fmtBytes wrong")
	}
	if fmtSpeedup(0) != "skip" || fmtSpeedup(2) != "2.00x" {
		t.Fatal("fmtSpeedup wrong")
	}
	if fmtDur(0) != "-" {
		t.Fatal("fmtDur wrong")
	}
}

func TestRunFig6(t *testing.T) {
	o := tinyOptions()
	var buf bytes.Buffer
	o.Out = &buf
	rows, err := RunFig6(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].ID != "R3" {
		t.Fatalf("rows = %+v", rows)
	}
	r := rows[0]
	if r.Topology.Sockets != 4 {
		t.Fatalf("topology %+v, want the paper's 4 sockets", r.Topology)
	}
	if r.LocalBytes+r.RemoteBytes == 0 {
		t.Fatal("no traffic recorded")
	}
	// With 4 sockets, B tile reads are remote ≈ 3/4 of the time, and so
	// are the A reads and C writes of a pair a dry team took from its home:
	// the overall local fraction must be strictly between the extremes.
	if r.LocalFraction <= 0 || r.LocalFraction >= 1 {
		t.Fatalf("local fraction %.3f outside (0, 1)", r.LocalFraction)
	}
	var allocTotal int64
	for _, b := range r.AllocPerNode {
		allocTotal += b
	}
	if allocTotal == 0 {
		t.Fatal("no first-touch allocations recorded")
	}
}

func TestRunFig8WithMemLimit(t *testing.T) {
	o := tinyOptions()
	o.IDs = []string{"R3"}
	unlimited, err := RunFig8(o)
	if err != nil {
		t.Fatal(err)
	}
	o.MemLimitFrac = 0.05 // tight: 5% of the dense footprint
	limited, err := RunFig8(o)
	if err != nil {
		t.Fatal(err)
	}
	if limited[0].ResultNNZ != unlimited[0].ResultNNZ {
		t.Fatal("memory limit changed the result values")
	}
	if limited[0].BytesATMatrix > unlimited[0].BytesATMatrix {
		t.Fatalf("memory limit grew the result: %d vs %d",
			limited[0].BytesATMatrix, unlimited[0].BytesATMatrix)
	}
}
