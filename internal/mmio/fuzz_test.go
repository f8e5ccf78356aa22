package mmio

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"atmatrix/internal/alloccheck"
	"atmatrix/internal/mat"
)

// FuzzReadMatrixMarket checks that arbitrary input never panics the
// parser or makes it allocate more than 48·len(input) + 2 MiB (a plain
// entry line costs nothing and any other its string and fields; a two-byte
// array value or a four-byte symmetric "2 1\n" costs 16 bytes of entry
// slice per two input bytes, in a slice append grows a quarter at a time
// with every step charged: ≈ 46× measured; the fixed part is the 1 MiB read
// buffer), and that everything it accepts is structurally valid and
// round-trips.
func FuzzReadMatrixMarket(f *testing.F) {
	f.Add("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1.5\n")
	f.Add("%%MatrixMarket matrix coordinate real symmetric\n3 3 2\n2 1 5\n3 3 1\n")
	f.Add("%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 2\n")
	f.Add("%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n")
	f.Add("%%MatrixMarket matrix coordinate real general\n% comment\n\n1 1 0\n")
	f.Add("")
	f.Add("%%MatrixMarket")
	f.Fuzz(func(t *testing.T, input string) {
		var a *mat.COO
		var err error
		alloccheck.Bound(t, len(input), 48, 2<<20, func() {
			a, err = ReadMatrixMarket(strings.NewReader(input))
		})
		if err != nil {
			return
		}
		if verr := a.Validate(); verr != nil {
			t.Fatalf("accepted invalid matrix: %v", verr)
		}
		var buf bytes.Buffer
		if werr := WriteMatrixMarket(&buf, a); werr != nil {
			t.Fatalf("cannot re-serialize accepted matrix: %v", werr)
		}
		back, rerr := ReadMatrixMarket(&buf)
		if rerr != nil {
			t.Fatalf("cannot re-read own output: %v", rerr)
		}
		if back.Rows != a.Rows || back.Cols != a.Cols {
			t.Fatal("round trip changed the shape")
		}
	})
}

// mtxSeeds are MatrixMarket inputs on the edges of what a field is: signs
// and leading zeros, integers too long for the in-place digits, every ASCII
// space, Unicode spaces and invalid UTF-8 inside and after the fields,
// extra fields, special and out-of-range values, CRLF lines and a last
// line without a newline, in both layouts.
var mtxSeeds = []string{
	"%%MatrixMarket matrix coordinate real general\n3 3 3\n1 1 1.5\n+2 02 -0\n3 3 0x1p-2\n",
	"%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1_0\n",
	"%%MatrixMarket matrix coordinate real general\n2 2 1\n-1 1 2\n",
	"%%MatrixMarket matrix coordinate real general\r\n2 2 2\r\n1\t1\v2.5\f\r\n 2  2   -1e-3 \r\n",
	"%%MatrixMarket matrix coordinate real general\n2 2 1\n1\u00a01 2.5\n",
	"%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 2.5\u00a0\n",
	"%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1\u0085 2\n",
	"%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 2.5 \xff\n2 2 2.5\xff\n",
	"%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 2.5 extra\n",
	"%%MatrixMarket matrix coordinate real general\n2 2 2\n0000000000000000001 1 2\n1 1234567890123456789 1\n",
	"%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 inf\n1 2 NaN\n2 1 -Infinity\n",
	"%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1e400\n",
	"%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 \n",
	"%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 7",
	"%%MatrixMarket matrix coordinate pattern symmetric\n3 3 2\n2 1 9\n3 3\n",
	"%%MatrixMarket matrix coordinate integer skew-symmetric\n3 3 1\n3 1 -4\n",
	"%%MatrixMarket matrix array real general\n2 2\n1 2\n3\v4\n",
	"%%MatrixMarket matrix array real general\n2 2\n1\t0\r\n\n -2.5 4",
	"%%MatrixMarket matrix array real general\n1 2\n1\u00a02\n",
}

// FuzzReadMatrixMarketMatchesOracle: on every input ReadMatrixMarket
// accepts and rejects what the string-per-line reader it replaced does
// (oracleReadMatrixMarket), and returns the same shape and entries, values
// bit for bit.
func FuzzReadMatrixMarketMatchesOracle(f *testing.F) {
	for _, s := range mtxSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		got, err := ReadMatrixMarket(strings.NewReader(input))
		want, werr := oracleReadMatrixMarket(strings.NewReader(input))
		if (err == nil) != (werr == nil) {
			t.Fatalf("reader error %v, oracle error %v", err, werr)
		}
		if err == nil && !sameCOO(got, want) {
			t.Fatalf("reader read %d×%d %v, oracle %d×%d %v", got.Rows, got.Cols, got.Ent, want.Rows, want.Cols, want.Ent)
		}
	})
}

// sameCOO reports whether two COO matrices have the same shape and the
// same entries in the same order, values compared by their bits.
func sameCOO(a, b *mat.COO) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols || len(a.Ent) != len(b.Ent) {
		return false
	}
	for i, e := range a.Ent {
		f := b.Ent[i]
		if e.Row != f.Row || e.Col != f.Col || math.Float64bits(e.Val) != math.Float64bits(f.Val) {
			return false
		}
	}
	return true
}

// FuzzReadBinary checks the binary COO reader against arbitrary bytes:
// never a panic, never more heap than the codec decoders' bound
// (alloccheck.DecodeFactor, DecodeFixed, shared with core's .atm and frame
// decoders), and an accepted stream re-serializes to all of the bytes it
// was read from, footer included.
func FuzzReadBinary(f *testing.F) {
	var buf bytes.Buffer
	seed := mat.NewCOO(3, 3)
	seed.Append(0, 1, 2.5)
	seed.Append(2, 2, -1)
	if err := WriteBinary(&buf, seed); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("ATMCOO1\n"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, input []byte) {
		var a *mat.COO
		var err error
		alloccheck.Bound(t, len(input), alloccheck.DecodeFactor, alloccheck.DecodeFixed, func() {
			a, err = ReadBinary(bytes.NewReader(input))
		})
		if err != nil {
			return
		}
		if verr := a.Validate(); verr != nil {
			t.Fatalf("accepted invalid matrix: %v", verr)
		}
		var back bytes.Buffer
		if werr := WriteBinary(&back, a); werr != nil {
			t.Fatalf("cannot re-serialize accepted matrix: %v", werr)
		}
		// ReadBinary buffers ahead, so bytes after the footer are not its
		// business; what it decoded is the prefix it re-serializes to.
		if !bytes.HasPrefix(input, back.Bytes()) {
			t.Fatalf("accepted %d bytes that re-serialize to %d different ones", len(input), back.Len())
		}
	})
}
