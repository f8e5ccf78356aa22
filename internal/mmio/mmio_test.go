package mmio

import (
	"bytes"
	"errors"
	"hash/crc32"
	"io"
	"math/rand"
	"strings"
	"testing"

	"atmatrix/internal/mat"
)

func TestReadCoordinateGeneral(t *testing.T) {
	src := `%%MatrixMarket matrix coordinate real general
% a comment
3 4 3
1 1 1.5
3 4 -2
2 2 7
`
	a, err := ReadMatrixMarket(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if a.Rows != 3 || a.Cols != 4 || a.NNZ() != 3 {
		t.Fatalf("shape %d×%d nnz %d", a.Rows, a.Cols, a.NNZ())
	}
	d := a.ToDense()
	if d.At(0, 0) != 1.5 || d.At(2, 3) != -2 || d.At(1, 1) != 7 {
		t.Fatalf("values wrong: %v", d.Data)
	}
}

func TestReadSymmetricExpansion(t *testing.T) {
	src := `%%MatrixMarket matrix coordinate real symmetric
3 3 2
2 1 5
3 3 1
`
	a, err := ReadMatrixMarket(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	d := a.ToDense()
	if d.At(1, 0) != 5 || d.At(0, 1) != 5 {
		t.Fatal("symmetric entry not mirrored")
	}
	if a.NNZ() != 3 { // diagonal entry not duplicated
		t.Fatalf("nnz = %d, want 3", a.NNZ())
	}
}

func TestReadSkewSymmetric(t *testing.T) {
	src := `%%MatrixMarket matrix coordinate real skew-symmetric
2 2 1
2 1 4
`
	a, err := ReadMatrixMarket(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	d := a.ToDense()
	if d.At(1, 0) != 4 || d.At(0, 1) != -4 {
		t.Fatal("skew-symmetric mirror wrong")
	}
}

func TestReadPattern(t *testing.T) {
	src := `%%MatrixMarket matrix coordinate pattern general
2 2 2
1 2
2 1
`
	a, err := ReadMatrixMarket(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	d := a.ToDense()
	if d.At(0, 1) != 1 || d.At(1, 0) != 1 {
		t.Fatal("pattern values should be 1")
	}
}

func TestReadIntegerValues(t *testing.T) {
	src := `%%MatrixMarket matrix coordinate integer general
2 2 1
1 1 42
`
	a, err := ReadMatrixMarket(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if a.ToDense().At(0, 0) != 42 {
		t.Fatal("integer value wrong")
	}
}

func TestReadArray(t *testing.T) {
	// Array layout is column-major.
	src := `%%MatrixMarket matrix array real general
2 3
1
4
2
5
0
6
`
	a, err := ReadMatrixMarket(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	d := a.ToDense()
	want := [][]float64{{1, 2, 0}, {4, 5, 6}}
	for r := range want {
		for c := range want[r] {
			if d.At(r, c) != want[r][c] {
				t.Fatalf("array (%d,%d) = %g, want %g", r, c, d.At(r, c), want[r][c])
			}
		}
	}
	if a.NNZ() != 5 { // the zero must be dropped
		t.Fatalf("nnz = %d, want 5", a.NNZ())
	}
}

func TestReadRejectsMalformed(t *testing.T) {
	cases := []string{
		"not a header\n1 1 1\n",
		"%%MatrixMarket matrix coordinate complex general\n1 1 1\n",
		"%%MatrixMarket matrix coordinate real hermitian\n1 1 1\n",
		"%%MatrixMarket tensor coordinate real general\n1 1 1\n",
		"%%MatrixMarket matrix coordinate real general\n1 1\n",            // short size line
		"%%MatrixMarket matrix coordinate real general\n2 2 1\n5 1 1\n",   // row out of range
		"%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1\n",     // missing value
		"%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1\n",   // truncated entries
		"%%MatrixMarket matrix array real symmetric\n2 2\n1\n2\n3\n4\n",   // unsupported array variant
		"%%MatrixMarket matrix coordinate real general\nx y z\n",          // bad size tokens
		"%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 abc\n", // bad value
	}
	for i, src := range cases {
		if _, err := ReadMatrixMarket(strings.NewReader(src)); err == nil {
			t.Errorf("case %d: malformed input accepted", i)
		}
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a := mat.RandomCOO(rng, 50, 70, 400)
	var buf bytes.Buffer
	if err := WriteMatrixMarket(&buf, a); err != nil {
		t.Fatal(err)
	}
	back, err := ReadMatrixMarket(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !back.ToDense().EqualApprox(a.ToDense(), 0) {
		t.Fatal("MatrixMarket round trip lost data")
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	a := mat.RandomCOO(rng, 123, 45, 999)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, a); err != nil {
		t.Fatal(err)
	}
	// Binary size = magic + 24-byte header + 16 bytes per entry + 4-byte
	// CRC-32C footer.
	if want := len(binaryMagic) + 24 + 16*len(a.Ent) + 4; buf.Len() != want {
		t.Fatalf("binary size %d, want %d", buf.Len(), want)
	}
	back, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Rows != a.Rows || back.Cols != a.Cols || len(back.Ent) != len(a.Ent) {
		t.Fatal("binary round trip header mismatch")
	}
	for i := range a.Ent {
		if back.Ent[i] != a.Ent[i] {
			t.Fatal("binary round trip entry mismatch")
		}
	}
}

func TestBinaryRejectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	a := mat.RandomCOO(rng, 10, 10, 20)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, a); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if _, err := ReadBinary(bytes.NewReader(data[:len(data)-8])); err == nil {
		t.Fatal("truncated stream accepted")
	}
	bad := append([]byte("XXXXXXX\n"), data[8:]...)
	if _, err := ReadBinary(bytes.NewReader(bad)); err == nil {
		t.Fatal("bad magic accepted")
	} else if !errors.Is(err, ErrBadMagic) {
		t.Fatalf("bad magic error %v does not match ErrBadMagic", err)
	}
}

func TestBinaryChecksumDetectsBitflip(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	a := mat.RandomCOO(rng, 10, 10, 20)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, a); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Flip one bit in a value byte of the last entry; the coordinates stay
	// valid so only the footer can catch it.
	data[len(data)-4-1] ^= 0x10
	_, err := ReadBinary(bytes.NewReader(data))
	if !errors.Is(err, ErrChecksum) {
		t.Fatalf("corrupt stream error %v does not match ErrChecksum", err)
	}
}

// TestBinaryFooterlessStreamRefused: every binary COO stream carries its
// footer, so one that ends right after its last entry is refused as
// unverifiable, exactly like one whose footer is wrong.
func TestBinaryFooterlessStreamRefused(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	a := mat.RandomCOO(rng, 10, 10, 20)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, a); err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{4, 1} {
		_, err := ReadBinary(bytes.NewReader(buf.Bytes()[:buf.Len()-cut]))
		if !errors.Is(err, ErrChecksum) || errors.Is(err, io.EOF) {
			t.Fatalf("footer cut by %d bytes: error %v, want ErrChecksum", cut, err)
		}
	}
}

func TestEmptyMatrixRoundTrips(t *testing.T) {
	a := mat.NewCOO(5, 5)
	var buf bytes.Buffer
	if err := WriteMatrixMarket(&buf, a); err != nil {
		t.Fatal(err)
	}
	back, err := ReadMatrixMarket(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NNZ() != 0 || back.Rows != 5 {
		t.Fatal("empty matrix round trip failed")
	}
	buf.Reset()
	if err := WriteBinary(&buf, a); err != nil {
		t.Fatal(err)
	}
	back, err = ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NNZ() != 0 || back.Cols != 5 {
		t.Fatal("empty binary round trip failed")
	}
}

// TestBinaryAllocsConstant: WriteBinary allocates the codec writer and
// nothing per entry.
func TestBinaryAllocsConstant(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	var got [2]float64
	for i, nnz := range []int{1, 50000} {
		a := mat.RandomCOO(rng, 1000, 1000, nnz)
		got[i] = testing.AllocsPerRun(5, func() {
			if err := WriteBinary(io.Discard, a); err != nil {
				t.Fatal(err)
			}
		})
	}
	if got[0] != got[1] || got[1] > 2 {
		t.Fatalf("WriteBinary allocates %v for 1 and 50 000 entries, want the same ≤ 2", got)
	}
}

// TestResidue: CRC-32C over a whole framed stream, footer included, is the
// same constant for every stream — which is why the footer, not that, is
// the stream's fingerprint.
func TestResidue(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for _, nnz := range []int{0, 1, 700} {
		var buf bytes.Buffer
		if err := WriteBinary(&buf, mat.RandomCOO(rng, 40, 30, nnz)); err != nil {
			t.Fatal(err)
		}
		if got := crc32.Checksum(buf.Bytes(), castagnoli); got != Residue {
			t.Fatalf("%d entries: CRC-32C over stream and footer %08x, want %08x", nnz, got, uint32(Residue))
		}
	}
}

// TestReadLongLinesMatchOracle: a line longer than the 1 MiB read buffer is
// assembled whole, in both layouts, and read as the oracle reads it.
func TestReadLongLinesMatchOracle(t *testing.T) {
	pad := strings.Repeat(" ", 1<<20+100)
	for _, src := range []string{
		"%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1" + pad + "2.5\n2 2 1\n",
		"%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 2.5" + pad + "x\n",
		"%%MatrixMarket matrix array real general\n300000 1\n" + strings.Repeat("1.5 ", 300000) + "\n",
	} {
		got, err := ReadMatrixMarket(strings.NewReader(src))
		want, werr := oracleReadMatrixMarket(strings.NewReader(src))
		if err != nil || werr != nil {
			t.Fatalf("reader error %v, oracle error %v", err, werr)
		}
		if !sameCOO(got, want) || len(got.Ent) == 0 {
			t.Fatalf("%d-byte input: reader read %d entries, oracle %d", len(src), len(got.Ent), len(want.Ent))
		}
	}
}
