package core

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"testing"

	"atmatrix/internal/gen"
	"atmatrix/internal/mat"
	"atmatrix/internal/mmio"
)

// The codec oracle: digests of the streams and tile seals the encoders
// produce, recorded before the three encoders (.atm, tile seals, binary COO)
// were folded into internal/mmio's one codec. The digest is CRC-32 (IEEE)
// over the bytes, independent of the codec's own CRC-32C. They are not to be
// edited: a mismatch means a byte of some stream changed, and files written
// before would stop loading.

// frameDigests: WriteTileRowFrames per codec case.
var frameDigests = map[string]uint32{
	"1×1": 0xe9057021, "1×n": 0xb2bcf345, "a-a": 0x2144df1c,
	"all-zero": 0x2144df1c, "foreign b_atomic": 0xe9370b5a, "g3": 0x1e8089c4,
	"g3²": 0x79e6305a, "g3·g9 ragged": 0x9edd1f40, "g3ᵀ": 0x7718af4d,
	"g9": 0x6ffa4175, "g9²": 0xd13c0d6f, "g9ᵀ": 0x51b3d96e,
	"half zeroed": 0x22f22306, "het": 0x288a8e00, "het²": 0x4e07039b,
	"hetᵀ": 0x18b4a36e, "n×1": 0x43812ebf, "plain CSR": 0x1cba403f,
	"r2": 0x47df50bc, "r2²": 0xae50f24c, "r2ᵀ": 0xed72ee4b,
	"r3": 0xa345304a, "r3²": 0x8a26632c, "r3ᵀ": 0x9318bd57,
	"r8": 0xb8bb1fbb, "r8²": 0xd7136154, "r8ᵀ": 0x868d6e35,
	"ragged 77×101": 0x86dbf2d1, "scale(0)": 0xf2bfae7f, "standin G9": 0x921c1a21,
	"standin R1": 0xb902d3b0, "standin R2": 0x97bce267, "standin R3": 0xbc77f26d,
	"standin R4": 0x6c1928eb, "standin R5": 0xe3b75506, "standin R6": 0x93c0b620,
	"standin R7": 0xd15d5f77, "standin R8": 0x314c8c6a, "standin R9": 0xd1392170,
	// Recorded later, by the unchanged codec, for the special-value and
	// fine-b_atomic layout cases.
	"dense specials": 0xe6288709, "sparse specials": 0x1521caf9,
	"foreign b_atomic, mixed": 0xc3abe628, "foreign b_atomic, mixed²": 0xd7c94de9,
}

// sealDigests: the matrix's tile seals, little-endian in tile order.
var sealDigests = map[string]uint32{
	"1×1": 0x2781e578, "1×n": 0xc17bd18a, "a-a": 0x00000000,
	"all-zero": 0x00000000, "foreign b_atomic": 0xd2af1d67, "g3": 0x2a20f074,
	"g3²": 0x56e8d6e6, "g3·g9 ragged": 0xf7738268, "g3ᵀ": 0x7e17dab8,
	"g9": 0xf9e37a6b, "g9²": 0x82ff159b, "g9ᵀ": 0xe8b4344c,
	"half zeroed": 0x40507df8, "het": 0xdf5e579e, "het²": 0xc66d0788,
	"hetᵀ": 0xc1425177, "n×1": 0x3d5275d8, "plain CSR": 0xb904b8f3,
	"r2": 0xbaef443c, "r2²": 0x07a225f5, "r2ᵀ": 0x04e909e1,
	"r3": 0x235ebe89, "r3²": 0x3aabd673, "r3ᵀ": 0x638ef6ff,
	"r8": 0xddd571c4, "r8²": 0xfa8e16ac, "r8ᵀ": 0x5bdd3546,
	"ragged 77×101": 0x7709e9e7, "scale(0)": 0x76d2762e, "standin G9": 0x025976ed,
	"standin R1": 0x2929aa92, "standin R2": 0x38e424ff, "standin R3": 0xe0232707,
	"standin R4": 0x309a8620, "standin R5": 0x2c908f23, "standin R6": 0x6178123f,
	"standin R7": 0x0173229c, "standin R8": 0xb56bf921, "standin R9": 0xc746edec,
	// Recorded later, as frameDigests' last four.
	"dense specials": 0xeb30761f, "sparse specials": 0x1baf26df,
	"foreign b_atomic, mixed": 0x780030c6, "foreign b_atomic, mixed²": 0x33f54d61,
}

// cooDigests: WriteBinary of the Table I stand-ins at 1/32 (seed 1), and of
// ingest_store's T1 and T2 (the R2 stand-in at 1/32, variants 1 and 2).
var cooDigests = map[string]uint32{
	"G9": 0x4eb81b4c, "R1": 0x046ac5c7, "R2": 0xe5167fb9, "R3": 0xd2360cd4,
	"R4": 0x3e20b322, "R5": 0x30c835e2, "R6": 0x58de3da9, "R7": 0x308148b4,
	"R8": 0x1d6c6120, "R9": 0xd57d9265, "T1": 0x4739eab8, "T2": 0x62235db7,
}

func ieeeOf(t testing.TB, write func(io.Writer) error) uint32 {
	t.Helper()
	var buf bytes.Buffer
	if err := write(&buf); err != nil {
		t.Fatal(err)
	}
	return crc32.ChecksumIEEE(buf.Bytes())
}

// codecCases are the layout cases plus the ten stand-ins as the benchmark
// server partitions them.
func codecCases(t *testing.T) []layoutCase {
	cases := layoutCases(t, testConfig())
	for _, id := range []string{"R1", "R2", "R3", "R4", "R5", "R6", "R7", "R8", "R9", "G9"} {
		m, _, err := Partition(standIn(t, id), benchLayoutConfig())
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, layoutCase{"standin " + id, m})
	}
	return cases
}

// standInVariant generates the stand-in id at scale as atload does for
// seed 1 and the given variant.
func standInVariant(t testing.TB, id string, variant int64, scale float64) *mat.COO {
	t.Helper()
	s, err := gen.Lookup(id)
	if err != nil {
		t.Fatal(err)
	}
	s.Seed += 1000 + 50*variant
	coo, err := s.Generate(scale)
	if err != nil {
		t.Fatal(err)
	}
	return coo
}

func TestCodecGoldenDigests(t *testing.T) {
	check := func(kind string, want map[string]uint32, name string, got uint32) {
		t.Helper()
		if w, ok := want[name]; !ok || got != w {
			t.Errorf("%s\t%q: 0x%08x, // golden 0x%08x", kind, name, got, w)
		}
	}
	for _, c := range codecCases(t) {
		check("frames", frameDigests, c.name, ieeeOf(t, func(w io.Writer) error { _, err := c.m.WriteTileRowFrames(w); return err }))
		c.m.SealChecksums()
		check("seals", sealDigests, c.name, ieeeOf(t, func(w io.Writer) error {
			var b []byte
			for _, s := range c.m.tileSums {
				b = binary.LittleEndian.AppendUint32(b, s)
			}
			_, err := w.Write(b)
			return err
		}))
	}
	coos := map[string]*mat.COO{"T1": standInVariant(t, "R2", 1, 1.0/32), "T2": standInVariant(t, "R2", 2, 1.0/32)}
	for _, id := range []string{"R1", "R2", "R3", "R4", "R5", "R6", "R7", "R8", "R9", "G9"} {
		coos[id] = standIn(t, id)
	}
	for name, coo := range coos {
		check("coo", cooDigests, name, ieeeOf(t, func(w io.Writer) error { return mmio.WriteBinary(w, coo) }))
	}
}

// TestCompatFilesLoad: an .atm file and a binary COO stream written before
// the codec was shared (testdata/compat) still load, re-encode to the same
// bytes, and the .atm's footer is the fingerprint its manifest recorded.
func TestCompatFilesLoad(t *testing.T) {
	dir := filepath.Join("..", "..", "testdata", "compat")
	raw, err := os.ReadFile(filepath.Join(dir, "ca978112ca1bbdca-1.atm"))
	if err != nil {
		t.Fatal(err)
	}
	m, crc, err := DecodeATMatrix(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if crc != 2873573160 { // manifest.json's "crc32c"
		t.Fatalf("footer %08x, manifest recorded %08x", crc, 2873573160)
	}
	var back bytes.Buffer
	if _, err := m.WriteTo(&back); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back.Bytes(), raw) {
		t.Fatal(".atm file re-encodes to different bytes")
	}
	raw, err = os.ReadFile(filepath.Join(dir, "a.coo"))
	if err != nil {
		t.Fatal(err)
	}
	coo, err := mmio.ReadBinary(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	back.Reset()
	if err := mmio.WriteBinary(&back, coo); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back.Bytes(), raw) {
		t.Fatal(".coo stream re-encodes to different bytes")
	}
	if !coo.ToDense().EqualApprox(m.ToDense(), 0) {
		t.Fatal("the .coo and the .atm hold different matrices")
	}
}
