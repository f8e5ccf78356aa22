package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"testing"

	"atmatrix/internal/alloccheck"
	"atmatrix/internal/mat"
)

func streamTestMatrix(t *testing.T, seed int64) (*ATMatrix, Config) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.LLCBytes = 3 * 8 * 64 * 64
	cfg.BAtomic = 8
	cfg.Topology.Sockets = 1
	cfg.Topology.CoresPerSocket = 1
	rng := rand.New(rand.NewSource(seed))
	m, _, err := Partition(mat.RandomCOO(rng, 96, 80, 2400), cfg)
	if err != nil {
		t.Fatalf("partition: %v", err)
	}
	return m, cfg
}

// TestTileRowFramesRoundTrip checks the framed stream reproduces the
// matrix: one frame per distinct tile-row, each independently decodable,
// the union of frame tiles equal to the original tile set, and the
// acquire hook called exactly once per frame with its wire length.
func TestTileRowFramesRoundTrip(t *testing.T) {
	m, _ := streamTestMatrix(t, 41)
	var buf bytes.Buffer
	n, err := m.WriteTileRowFrames(&buf)
	if err != nil {
		t.Fatalf("write frames: %v", err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("reported %d bytes, wrote %d", n, buf.Len())
	}

	rows := make(map[int]bool)
	for _, tl := range m.Tiles {
		rows[tl.Row0] = true
	}

	var acquired []int
	releases := 0
	acquire := func(n int) (func(), error) {
		acquired = append(acquired, n)
		return func() { releases++ }, nil
	}
	var frames []*ATMatrix
	gotTiles := 0
	err = ReadTileRowFrames(&buf, acquire, func(f *ATMatrix) error {
		if f.Rows != m.Rows || f.Cols != m.Cols || f.BAtomic != m.BAtomic {
			t.Fatalf("frame dims %dx%d/%d, want %dx%d/%d", f.Rows, f.Cols, f.BAtomic, m.Rows, m.Cols, m.BAtomic)
		}
		r0 := f.Tiles[0].Row0
		for _, tl := range f.Tiles {
			if tl.Row0 != r0 {
				t.Fatalf("frame mixes tile-rows %d and %d", r0, tl.Row0)
			}
		}
		frames = append(frames, f)
		gotTiles += len(f.Tiles)
		return nil
	})
	if err != nil {
		t.Fatalf("read frames: %v", err)
	}
	if len(frames) != len(rows) {
		t.Fatalf("frames = %d, want one per tile-row = %d", len(frames), len(rows))
	}
	if gotTiles != len(m.Tiles) {
		t.Fatalf("decoded %d tiles, want %d", gotTiles, len(m.Tiles))
	}
	if len(acquired) != len(frames) || releases != len(frames) {
		t.Fatalf("acquire/release called %d/%d times, want %d", len(acquired), releases, len(frames))
	}
	var sum int64
	for _, a := range acquired {
		if a <= 0 {
			t.Fatalf("acquired non-positive frame size %d", a)
		}
		sum += int64(a)
	}
	// Total payload = stream minus the 4-byte length prefixes and terminator.
	if want := n - int64(4*(len(frames)+1)); sum != want {
		t.Fatalf("acquired %d payload bytes, want %d", sum, want)
	}
}

// TestTileRowFramesCorruptionFailsChecksum flips one payload bit: the
// damaged frame's own CRC must fail its decode with ErrChecksum, without
// waiting for the end of the stream.
func TestTileRowFramesCorruptionFailsChecksum(t *testing.T) {
	m, _ := streamTestMatrix(t, 42)
	var buf bytes.Buffer
	if _, err := m.WriteTileRowFrames(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Flip a bit inside the first frame's payload, away from its header.
	frameLen := binary.LittleEndian.Uint32(data[:4])
	data[4+frameLen/2] ^= 0x01
	err := ReadTileRowFrames(bytes.NewReader(data), nil, func(*ATMatrix) error { return nil })
	if !errors.Is(err, ErrChecksum) {
		t.Fatalf("corrupted stream error = %v, want ErrChecksum", err)
	}
}

// TestTileRowFramesTruncation cuts the stream mid-frame and before the
// terminator: both must fail rather than silently yield a partial matrix.
func TestTileRowFramesTruncation(t *testing.T) {
	m, _ := streamTestMatrix(t, 43)
	var buf bytes.Buffer
	if _, err := m.WriteTileRowFrames(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	midFrame := data[:4+int(binary.LittleEndian.Uint32(data[:4]))/2]
	err := ReadTileRowFrames(bytes.NewReader(midFrame), nil, func(*ATMatrix) error { return nil })
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("mid-frame truncation error = %v, want unexpected EOF", err)
	}

	noTerm := data[:len(data)-4]
	err = ReadTileRowFrames(bytes.NewReader(noTerm), nil, func(*ATMatrix) error { return nil })
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("missing-terminator error = %v, want unexpected EOF", err)
	}
}

// TestTileRowFramesAcquireError propagates a window-acquire failure (the
// coordinator's cancelled merge context) as the stream's error.
func TestTileRowFramesAcquireError(t *testing.T) {
	m, _ := streamTestMatrix(t, 44)
	var buf bytes.Buffer
	if _, err := m.WriteTileRowFrames(&buf); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("window closed")
	err := ReadTileRowFrames(&buf, func(int) (func(), error) { return nil, boom }, func(*ATMatrix) error {
		t.Fatal("fn called after acquire failed")
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("error = %v, want the acquire failure", err)
	}
}

// hostileFrame is a frame header declaring 2 GiB followed by three bytes:
// the smallest input that made the reader allocate what a peer declared.
var hostileFrame = []byte{0xff, 0xff, 0xff, 0x7f, 0x01, 0x02, 0x03}

// TestTileRowFramesLengthIsNotAnAllocation pins the frame reader's memory
// to what the stream delivers: a declared length buys nothing by itself,
// whether it opens the stream or follows real frames (which must still
// reach fn before the stream fails).
func TestTileRowFramesLengthIsNotAnAllocation(t *testing.T) {
	var err error
	alloccheck.Bound(t, len(hostileFrame), 0, 1<<20, func() {
		err = ReadTileRowFrames(bytes.NewReader(hostileFrame), nil, func(*ATMatrix) error {
			t.Fatal("fn called on a frame that never arrived")
			return nil
		})
	})
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("2 GiB frame of 3 bytes: error = %v, want unexpected EOF", err)
	}

	m, _ := streamTestMatrix(t, 45)
	var buf bytes.Buffer
	if _, err := m.WriteTileRowFrames(&buf); err != nil {
		t.Fatal(err)
	}
	want := 0
	if err := ReadTileRowFrames(bytes.NewReader(buf.Bytes()), nil, func(*ATMatrix) error { want++; return nil }); err != nil {
		t.Fatal(err)
	}
	// Replace the terminator with a frame declaring 4 GiB - 1.
	data := append(buf.Bytes()[:buf.Len()-4:buf.Len()-4], 0xff, 0xff, 0xff, 0xff, 'A', 'T')
	got := 0
	alloccheck.Bound(t, len(data), 16, 1<<20, func() {
		err = ReadTileRowFrames(bytes.NewReader(data), nil, func(*ATMatrix) error { got++; return nil })
	})
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("4 GiB frame after %d real ones: error = %v, want unexpected EOF", want, err)
	}
	if got != want || want == 0 {
		t.Fatalf("fn saw %d frames before the oversized one, want %d", got, want)
	}
}

// TestReadATMatrixGridIsNotAnAllocation pins the decoder's memory to the
// tiles a stream holds, not to the block grid its header declares: a valid
// stream of one small tile in a 2^12 × 2^12 grid decodes within the
// decoders' shared bound.
func TestReadATMatrixGridIsNotAnAllocation(t *testing.T) {
	const dim = 1 << 12
	sp := mat.NewCSR(2, 3)
	sp.RowPtr[1], sp.RowPtr[2] = 1, 1
	sp.ColIdx, sp.Val = []int32{2}, []float64{1.5}
	m, err := NewFromTiles(dim, dim, 1, []*Tile{{Row0: 7, Col0: 9, Rows: 2, Cols: 3, Kind: mat.Sparse, Sp: sp, NNZ: 1}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, _, err := m.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	var got *ATMatrix
	alloccheck.Bound(t, buf.Len(), alloccheck.DecodeFactor, alloccheck.DecodeFixed, func() {
		got, err = ReadATMatrix(bytes.NewReader(buf.Bytes()))
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.BR != dim || got.BC != dim || len(got.Tiles) != 1 || got.At(7, 11) != 1.5 {
		t.Fatalf("decoded a %d×%d-block grid with %d tiles, At(7, 11) = %g", got.BR, got.BC, len(got.Tiles), got.At(7, 11))
	}
}

// TestTileRowFramesTrailingBytes rejects a frame whose declared length
// runs past its matrix: the bytes in between belong to nobody.
func TestTileRowFramesTrailingBytes(t *testing.T) {
	m, _ := streamTestMatrix(t, 46)
	var buf bytes.Buffer
	if _, err := m.WriteTileRowFrames(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	n := binary.LittleEndian.Uint32(data[:4])
	padded := binary.LittleEndian.AppendUint32(nil, n+3)
	padded = append(padded, data[4:4+n]...)
	padded = append(padded, 0, 0, 0)
	padded = append(padded, data[4+n:]...)
	err := ReadTileRowFrames(bytes.NewReader(padded), nil, func(*ATMatrix) error {
		t.Fatal("fn called on a padded frame")
		return nil
	})
	if err == nil || errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("padded frame error = %v, want a trailing-bytes failure", err)
	}
}

// failAfter delivers the first n bytes of data and then fails with err, the
// way a reset connection or an expired deadline does.
type failAfter struct {
	data []byte
	n    int
	err  error
}

func (f *failAfter) Read(p []byte) (int, error) {
	if f.n == 0 {
		return 0, f.err
	}
	n := copy(p, f.data[:f.n])
	f.data, f.n = f.data[n:], f.n-n
	return n, nil
}

// TestTileRowFramesStreamFailureIsNotADecodeError keeps "the stream stopped"
// apart from "the bytes were bad": a stream cut or failing inside a frame —
// header, tile metadata or payload — is a plain read error, never the
// TileError of whatever the decoder was reading (the cluster treats that as
// corruption and refuses to fall back), and never a bare io.EOF. A frame
// whose own declared length cuts its matrix short is the peer's bytes being
// wrong, and stays a decoder error.
func TestTileRowFramesStreamFailureIsNotADecodeError(t *testing.T) {
	m, _ := streamTestMatrix(t, 47)
	var buf bytes.Buffer
	if _, err := m.WriteTileRowFrames(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	frameLen := int(binary.LittleEndian.Uint32(data[:4]))
	nop := func(*ATMatrix) error { return nil }
	reset := errors.New("connection reset by peer")
	var te *TileError
	for _, cut := range []int{4 + 3, 4 + 40, 4 + 60, 4 + frameLen/2, 4 + frameLen - 2} {
		err := ReadTileRowFrames(bytes.NewReader(data[:cut]), nil, nop)
		if !errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.EOF) || errors.As(err, &te) || errors.Is(err, ErrChecksum) {
			t.Fatalf("stream cut at byte %d: error = %v, want a plain unexpected EOF", cut, err)
		}
		err = ReadTileRowFrames(&failAfter{data: data, n: cut, err: reset}, nil, nop)
		if !errors.Is(err, reset) || errors.As(err, &te) || errors.Is(err, ErrChecksum) {
			t.Fatalf("stream reset at byte %d: error = %v, want the plain transport error", cut, err)
		}
	}

	short := binary.LittleEndian.AppendUint32(nil, uint32(frameLen/2))
	short = append(short, data[4:]...)
	err := ReadTileRowFrames(bytes.NewReader(short), nil, nop)
	if !errors.As(err, &te) || !errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.EOF) {
		t.Fatalf("frame declared shorter than its matrix: error = %v, want a TileError carrying unexpected EOF", err)
	}
}
