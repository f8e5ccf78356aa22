package core

import (
	"math/rand"
	"testing"

	"atmatrix/internal/mat"
	"atmatrix/internal/numa"
)

func TestATMatrixTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	cfg := testConfig()
	src, err := genHeterogeneous(rng, 144)
	if err != nil {
		t.Fatal(err)
	}
	am, _, err := Partition(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	at := am.Transpose(cfg)
	if err := at.Validate(); err != nil {
		t.Fatal(err)
	}
	if at.NNZ() != am.NNZ() {
		t.Fatalf("transpose changed nnz: %d vs %d", at.NNZ(), am.NNZ())
	}
	if !at.ToDense().EqualApprox(am.ToDense().Transpose(), 0) {
		t.Fatal("transpose content mismatch")
	}
	// Double transpose is the identity on content.
	if !at.Transpose(cfg).ToDense().EqualApprox(am.ToDense(), 0) {
		t.Fatal("double transpose mismatch")
	}
	// Kinds are preserved tile-for-tile (density is symmetric).
	sp1, d1 := am.TileCount()
	sp2, d2 := at.TileCount()
	if sp1 != sp2 || d1 != d2 {
		t.Fatalf("tile kinds changed: (%d,%d) vs (%d,%d)", sp1, d1, sp2, d2)
	}
}

// TestTransposeHomesByConfig: every tile of a transpose sits where the
// configuration's placement rule puts its first row — also when the source
// tiles all carry home 0, from which no socket count could be recovered.
func TestTransposeHomesByConfig(t *testing.T) {
	rng := rand.New(rand.NewSource(95))
	cfg := testConfig() // 2×2
	src, err := genHeterogeneous(rng, 144)
	if err != nil {
		t.Fatal(err)
	}
	am, _, err := Partition(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, allZero := range []bool{false, true} {
		if allZero {
			for _, tile := range am.Tiles {
				tile.Home = 0
			}
		}
		at := am.Transpose(cfg)
		homes := map[numa.Node]bool{}
		for _, tile := range at.Tiles {
			if want := cfg.HomeOfRow(tile.Row0); tile.Home != want {
				t.Fatalf("tile at row %d homed on %d, want %d", tile.Row0, tile.Home, want)
			}
			homes[tile.Home] = true
		}
		if len(homes) != cfg.Topology.Sockets {
			t.Fatalf("transpose uses %d of %d sockets", len(homes), cfg.Topology.Sockets)
		}
	}
}

func TestATMatrixTransposeNonSquare(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	cfg := testConfig()
	a := mat.RandomCOO(rng, 100, 60, 1200)
	am, _, err := Partition(a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	at := am.Transpose(cfg)
	if at.Rows != 60 || at.Cols != 100 {
		t.Fatalf("transpose shape %d×%d", at.Rows, at.Cols)
	}
	if err := at.Validate(); err != nil {
		t.Fatal(err)
	}
	// A·Aᵀ through ATMULT using the transposed AT MATRIX.
	prod, _, err := Multiply(am, at, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ad := a.ToDense()
	want := mat.MulReference(ad, ad.Transpose())
	if !prod.ToDense().EqualApprox(want, tol) {
		t.Fatal("A·Aᵀ mismatch")
	}
}

func TestRepartitionCompactsResult(t *testing.T) {
	rng := rand.New(rand.NewSource(94))
	cfg := testConfig()
	src, err := genHeterogeneous(rng, 160)
	if err != nil {
		t.Fatal(err)
	}
	am, _, err := Partition(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, _, err := Multiply(am, am, cfg)
	if err != nil {
		t.Fatal(err)
	}
	compacted, _, err := c.Repartition(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := compacted.Validate(); err != nil {
		t.Fatal(err)
	}
	if !compacted.ToDense().EqualApprox(c.ToDense(), 0) {
		t.Fatal("repartition changed the content")
	}
	if compacted.NNZ() != c.NNZ() {
		t.Fatal("repartition changed nnz")
	}
}
