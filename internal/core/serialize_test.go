package core

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"testing"

	"atmatrix/internal/mat"
	"atmatrix/internal/mmio"
)

func TestSerializeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	cfg := testConfig()
	src, err := genHeterogeneous(rng, 160)
	if err != nil {
		t.Fatal(err)
	}
	am, _, err := Partition(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	n, err := am.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	back, err := ReadATMatrix(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Rows != am.Rows || back.Cols != am.Cols || back.BAtomic != am.BAtomic {
		t.Fatal("header mismatch")
	}
	if len(back.Tiles) != len(am.Tiles) {
		t.Fatalf("tile count %d, want %d", len(back.Tiles), len(am.Tiles))
	}
	for i := range am.Tiles {
		a, b := am.Tiles[i], back.Tiles[i]
		if a.Kind != b.Kind || a.Home != b.Home || a.NNZ != b.NNZ ||
			a.Row0 != b.Row0 || a.Col0 != b.Col0 || a.Rows != b.Rows || a.Cols != b.Cols {
			t.Fatalf("tile %d metadata mismatch", i)
		}
	}
	if !back.ToDense().EqualApprox(am.ToDense(), 0) {
		t.Fatal("content mismatch after round trip")
	}
	// The reloaded matrix multiplies correctly.
	c, _, err := Multiply(back, back, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := mat.MulReference(src.ToDense(), src.ToDense())
	if !c.ToDense().EqualApprox(want, tol) {
		t.Fatal("reloaded matrix multiplies wrong")
	}
}

func TestSerializeEmptyMatrix(t *testing.T) {
	cfg := testConfig()
	am, _, err := Partition(mat.NewCOO(32, 48), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := am.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadATMatrix(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NNZ() != 0 || back.Rows != 32 || back.Cols != 48 {
		t.Fatal("empty round trip wrong")
	}
}

func TestSerializeRejectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(132))
	cfg := testConfig()
	am, _, err := Partition(mat.RandomCOO(rng, 64, 64, 600), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := am.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	if _, err := ReadATMatrix(bytes.NewReader(data[:len(data)/2])); err == nil {
		t.Fatal("truncated stream accepted")
	}
	bad := append([]byte(nil), data...)
	copy(bad, "WRONGMAG")
	if _, err := ReadATMatrix(bytes.NewReader(bad)); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("bad magic: got %v, want ErrBadMagic", err)
	}
	// Corrupt the tile count to something absurd.
	bad = append([]byte(nil), data...)
	bad[8+24] = 0xff
	bad[8+25] = 0xff
	if _, err := ReadATMatrix(bytes.NewReader(bad)); err == nil {
		t.Fatal("absurd tile count accepted")
	}
}

// TestSerializeChecksum flips single payload bytes and checks the CRC-32C
// footer rejects each corruption with the typed ErrChecksum — the signal
// the catalog uses to distinguish a damaged upload from an I/O failure.
func TestSerializeChecksum(t *testing.T) {
	rng := rand.New(rand.NewSource(133))
	cfg := testConfig()
	am, _, err := Partition(mat.RandomCOO(rng, 64, 64, 600), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := am.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	// Every corruption past the header must surface as *some* error, and a
	// value-byte flip (which passes all structural validation) must surface
	// specifically as ErrChecksum.
	for _, off := range []int{len(data) / 2, len(data) - 8} {
		bad := append([]byte(nil), data...)
		bad[off] ^= 0x40
		if _, err := ReadATMatrix(bytes.NewReader(bad)); err == nil {
			t.Fatalf("corruption at byte %d accepted", off)
		}
	}
	// Flipping the low bit of a float64 value mantissa changes no structure
	// at all; only the checksum can catch it.
	bad := append([]byte(nil), data...)
	bad[len(data)-12] ^= 0x01
	if _, err := ReadATMatrix(bytes.NewReader(bad)); !errors.Is(err, ErrChecksum) {
		t.Fatalf("silent payload corruption: got %v, want ErrChecksum", err)
	}
	// A stream whose footer is short or missing cannot be verified: it
	// fails like a wrong footer, never as a bare end of stream.
	for _, cut := range []int{2, 4} {
		_, err := ReadATMatrix(bytes.NewReader(data[:len(data)-cut]))
		if !errors.Is(err, ErrChecksum) || errors.Is(err, io.EOF) {
			t.Fatalf("footer cut by %d bytes: got %v, want ErrChecksum", cut, err)
		}
	}
}

// TestSerializeHostileNNZ checks that a header claiming a huge tile payload
// fails on the short stream instead of allocating the claimed size.
func TestSerializeHostileNNZ(t *testing.T) {
	cfg := testConfig()
	rng := rand.New(rand.NewSource(134))
	am, _, err := Partition(mat.RandomCOO(rng, 64, 64, 600), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := am.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// First tile starts after magic (8) + header (32): bounds (32) + kind
	// (1) + home (4), then the int64 nnz of the first (sparse) tile.
	off := 8 + 32 + 32 + 1 + 4
	if mat.Kind(data[8+32+32]) != mat.Sparse {
		t.Skip("first tile not sparse under this seed")
	}
	bad := append([]byte(nil), data...)
	// Claim nnz = 64·64 (the maximum the tile bounds allow) with the same
	// short stream behind it: the chunked reader must fail at EOF.
	for i := 0; i < 8; i++ {
		bad[off+i] = 0
	}
	bad[off] = 0x00
	bad[off+1] = 0x10 // 4096 little-endian
	if _, err := ReadATMatrix(bytes.NewReader(bad)); err == nil {
		t.Fatal("hostile nnz accepted")
	}
}

// TestCodecAllocsConstant: encoding a stream and sealing a matrix allocate
// the codec writer (and the seal slice) and nothing per tile, row or
// element.
func TestCodecAllocsConstant(t *testing.T) {
	small, _, err := Partition(mat.RandomCOO(rand.New(rand.NewSource(135)), 8, 8, 20), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	big, _, err := Partition(standIn(t, "R3"), benchLayoutConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		max  float64
		run  func(m *ATMatrix)
	}{
		{"WriteTo", 2, func(m *ATMatrix) { m.WriteTo(io.Discard) }},
		{"SealChecksums", 3, func(m *ATMatrix) { m.SealChecksums() }},
		{"VerifyChecksums", 2, func(m *ATMatrix) { m.VerifyChecksums() }},
	} {
		got := [2]float64{}
		for i, m := range []*ATMatrix{small, big} {
			got[i] = testing.AllocsPerRun(5, func() { c.run(m) })
		}
		if got[0] != got[1] || got[1] > c.max {
			t.Errorf("%s: %v allocs on %d and %d tiles, want the same ≤ %v", c.name, got, len(small.Tiles), len(big.Tiles), c.max)
		}
	}
}

// TestSentinelsSharedAcrossFormats: a damaged or foreign stream of either
// binary format matches the one ErrChecksum / ErrBadMagic pair, under its
// core and its mmio name alike.
func TestSentinelsSharedAcrossFormats(t *testing.T) {
	coo := mat.RandomCOO(rand.New(rand.NewSource(136)), 40, 40, 300)
	am, _, err := Partition(coo, testConfig())
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
	decoders := map[string]struct {
		data []byte
		read func([]byte) error
	}{
		"atm": {atm.Bytes(), func(b []byte) error { _, err := ReadATMatrix(bytes.NewReader(b)); return err }},
		"coo": {bin.Bytes(), func(b []byte) error { _, err := mmio.ReadBinary(bytes.NewReader(b)); return err }},
	}
	for name, d := range decoders {
		flipped := append([]byte(nil), d.data...)
		flipped[len(flipped)-6] ^= 0x01
		magic := append([]byte(nil), d.data...)
		magic[0] ^= 0xff
		for _, c := range []struct {
			what     string
			in       []byte
			sentinel []error
		}{
			{"flipped payload bit", flipped, []error{ErrChecksum, mmio.ErrChecksum}},
			{"bad magic", magic, []error{ErrBadMagic, mmio.ErrBadMagic}},
		} {
			err := d.read(c.in)
			for _, want := range c.sentinel {
				if !errors.Is(err, want) {
					t.Errorf("%s, %s: error %v does not match %v", name, c.what, err, want)
				}
			}
		}
	}
}
