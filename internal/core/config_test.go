package core

import (
	"math"
	"testing"
)

// testConfig returns a small-scale configuration suitable for unit tests:
// dense tiles up to 64×64 (LLC sized accordingly), atomic blocks of 8.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.LLCBytes = 3 * 8 * 64 * 64 // τ^d_max = 64 with α = 3
	cfg.BAtomic = 8
	cfg.Topology.Sockets = 2
	cfg.Topology.CoresPerSocket = 2
	return cfg
}

func TestPaperTileSizeFormulas(t *testing.T) {
	cfg := PaperConfig()
	// Eq. 1 with LLC = 24 MB, α = 3, S_d = 8: τ^d_max = √(24·2^20/24) = 1024.
	if got := cfg.MaxDenseTileDim(); got != 1024 {
		t.Fatalf("τ^d_max = %d, want 1024", got)
	}
	// b_atomic derived from the LLC equals τ^d_max (§II-B2, k = 10).
	if got := deriveBAtomic(cfg.LLCBytes); got != 1024 {
		t.Fatalf("derived b_atomic = %d, want 1024", got)
	}
	// Eq. 2 dimension bound: LLC/(β·S_d) = 24·2^20/24 = 2^20.
	if got := cfg.MaxSparseTileDim(0); got != 1<<20 {
		t.Fatalf("sparse dim bound = %d, want 2^20", got)
	}
	// Eq. 2 memory bound for ρ = 0.01: √(24·2^20/(3·0.01·16)) ≈ 7240.
	want := int(math.Sqrt(float64(cfg.LLCBytes) / (3 * 0.01 * 16)))
	if got := cfg.MaxSparseTileDim(0.01); got != want {
		t.Fatalf("sparse tile dim at ρ=0.01 = %d, want %d", got, want)
	}
	// The paper's §II-B2 example: a 300,000² matrix with ρ = 5·10⁻⁶
	// fits in a single sparse tile (both Eq. 2 bounds above 300k).
	if got := cfg.MaxSparseTileDim(5e-6); got < 300000 {
		t.Fatalf("hypersparse tile bound %d, want ≥ 300000", got)
	}
}

func TestMaxSparseTileDimMonotone(t *testing.T) {
	cfg := PaperConfig()
	prev := cfg.MaxSparseTileDim(1e-7)
	for _, rho := range []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 1} {
		cur := cfg.MaxSparseTileDim(rho)
		if cur > prev {
			t.Fatalf("sparse tile bound grew with density: ρ=%g → %d > %d", rho, cur, prev)
		}
		prev = cur
	}
}

func TestConfigValidate(t *testing.T) {
	good := testConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.BAtomic = 12 // not a power of two
	if err := bad.Validate(); err == nil {
		t.Fatal("b_atomic 12 accepted")
	}
	bad = good
	bad.RhoRead = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("ρ0^R = 0 accepted")
	}
	bad = good
	bad.RhoWrite = 1.5
	if err := bad.Validate(); err == nil {
		t.Fatal("ρ0^W > 1 accepted")
	}
	bad = good
	bad.LLCBytes = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("LLC 0 accepted")
	}
	bad = good
	bad.MemLimit = -1
	if err := bad.Validate(); err == nil {
		t.Fatal("negative memory limit accepted")
	}
}

func TestDefaultConfigUsable(t *testing.T) {
	cfg := DefaultConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.RhoRead != cfg.Cost.RhoRead() {
		t.Fatal("ρ0^R not derived from cost model")
	}
	if cfg.BAtomic&(cfg.BAtomic-1) != 0 {
		t.Fatal("derived b_atomic not a power of two")
	}
}

func TestDetectLLCPositive(t *testing.T) {
	if DetectLLC() <= 0 {
		t.Fatal("DetectLLC returned non-positive size")
	}
}

func TestCalibrateCostModel(t *testing.T) {
	p := CalibrateCostModel()
	if p.FlopDD != 1.0 {
		t.Fatalf("FlopDD = %g, want normalized 1.0", p.FlopDD)
	}
	if p.FlopSp < 1.5 || p.FlopSp > 16 {
		t.Fatalf("FlopSp = %g outside clamp", p.FlopSp)
	}
	if p.FlopMixed < p.FlopSp {
		t.Fatal("calibration inverted the conversion zone")
	}
	if p.RhoRead() <= 0 || p.RhoRead() > 1 {
		t.Fatalf("calibrated ρ0^R = %g invalid", p.RhoRead())
	}
	if p.WriteSp <= p.WriteD {
		t.Fatal("write asymmetry lost in calibration")
	}
}
