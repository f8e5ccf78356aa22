package core

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"math"
	"os"

	"atmatrix/internal/mat"
	"atmatrix/internal/numa"
)

// Serialization of a partitioned AT MATRIX: a database system keeps the
// partitioned physical layout, so reloading must not repeat the
// partitioning work. The format is a little-endian stream:
//
//	magic "ATMAT1\n\x00" (8 bytes)
//	int64 rows, cols, bAtomic, nTiles
//	per tile:
//	  int64 row0, col0, rows, cols
//	  uint8 kind, int32 home
//	  sparse: int64 nnz, rowPtr[rows+1], colIdx[nnz] (int32), val[nnz]
//	  dense:  val[rows·cols] (compact row-major)
//	uint32 CRC-32C footer over every preceding byte (including the magic)
//
// The footer lets a server distinguish a corrupt upload (ErrChecksum) from
// a well-formed stream, and ErrBadMagic a stream that never was an AT
// MATRIX; both are detectable with errors.Is.

const atMagic = "ATMAT1\n\x00"

var (
	// ErrBadMagic reports a stream that does not start with the AT MATRIX
	// magic — it is some other file format entirely.
	ErrBadMagic = errors.New("core: bad AT MATRIX magic")
	// ErrChecksum reports a stream whose CRC-32C footer does not match its
	// content: the bytes were damaged after WriteTo produced them.
	ErrChecksum = errors.New("core: AT MATRIX checksum mismatch")
)

// castagnoli is the CRC-32C polynomial table shared by writer and reader.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ChecksumBytes fingerprints a byte slice with the same CRC-32C the ATMAT1
// footer uses. The cluster layer checksums serialized shard streams with it
// so a shard's identity is its content, wherever the bytes sit.
func ChecksumBytes(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// TileError identifies the tile at which decoding an AT MATRIX stream
// failed: its ordinal in stream order and — once the bounds were readable —
// its absolute (Row0, Col0) coordinate. A coordinator receiving a corrupt
// shard over the wire uses the coordinate to name the damaged tile when it
// quarantines the operand combination, instead of reporting a bare byte
// offset. Unwrap exposes the cause, so errors.Is still matches ErrChecksum
// and the structural sentinels underneath.
type TileError struct {
	Tile       int // tile ordinal in stream order
	Row0, Col0 int // absolute coordinate; -1 when the bounds were unreadable
	Err        error
}

func (e *TileError) Error() string {
	if e.Row0 < 0 {
		return fmt.Sprintf("core: tile %d: %v", e.Tile, e.Err)
	}
	return fmt.Sprintf("core: tile %d at (%d,%d): %v", e.Tile, e.Row0, e.Col0, e.Err)
}

func (e *TileError) Unwrap() error { return e.Err }

// tileErr wraps a per-tile decode failure with its stream position.
func tileErr(ti int64, row0, col0 int, format string, args ...any) error {
	return &TileError{Tile: int(ti), Row0: row0, Col0: col0, Err: fmt.Errorf(format, args...)}
}

// WriteTo serializes the AT MATRIX. It returns the number of bytes
// written, including the trailing CRC-32C footer.
func (a *ATMatrix) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriterSize(w, 1<<20)
	cw := &countingWriter{w: bw, crc: crc32.New(castagnoli)}
	if _, err := cw.Write([]byte(atMagic)); err != nil {
		return cw.n, fmt.Errorf("core: writing magic: %w", err)
	}
	hdr := []int64{int64(a.Rows), int64(a.Cols), int64(a.BAtomic), int64(len(a.Tiles))}
	if err := binary.Write(cw, binary.LittleEndian, hdr); err != nil {
		return cw.n, fmt.Errorf("core: writing header: %w", err)
	}
	for ti, t := range a.Tiles {
		meta := []int64{int64(t.Row0), int64(t.Col0), int64(t.Rows), int64(t.Cols)}
		if err := binary.Write(cw, binary.LittleEndian, meta); err != nil {
			return cw.n, fmt.Errorf("core: tile %d bounds: %w", ti, err)
		}
		if err := binary.Write(cw, binary.LittleEndian, uint8(t.Kind)); err != nil {
			return cw.n, fmt.Errorf("core: tile %d kind: %w", ti, err)
		}
		if err := binary.Write(cw, binary.LittleEndian, int32(t.Home)); err != nil {
			return cw.n, fmt.Errorf("core: tile %d home: %w", ti, err)
		}
		if t.Kind == mat.Sparse {
			if err := binary.Write(cw, binary.LittleEndian, t.NNZ); err != nil {
				return cw.n, fmt.Errorf("core: tile %d nnz: %w", ti, err)
			}
			if err := binary.Write(cw, binary.LittleEndian, t.Sp.RowPtr); err != nil {
				return cw.n, fmt.Errorf("core: tile %d row pointers: %w", ti, err)
			}
			if err := binary.Write(cw, binary.LittleEndian, t.Sp.ColIdx); err != nil {
				return cw.n, fmt.Errorf("core: tile %d columns: %w", ti, err)
			}
			if err := binary.Write(cw, binary.LittleEndian, t.Sp.Val); err != nil {
				return cw.n, fmt.Errorf("core: tile %d values: %w", ti, err)
			}
			continue
		}
		// Dense payloads may carry a stride; write compact rows.
		for r := 0; r < t.Rows; r++ {
			if err := binary.Write(cw, binary.LittleEndian, t.D.RowSlice(r)); err != nil {
				return cw.n, fmt.Errorf("core: tile %d row %d: %w", ti, r, err)
			}
		}
	}
	// The footer is the checksum of everything before it, so it is written
	// past the hashing writer.
	sum := cw.crc.Sum32()
	var foot [4]byte
	binary.LittleEndian.PutUint32(foot[:], sum)
	if _, err := bw.Write(foot[:]); err != nil {
		return cw.n, fmt.Errorf("core: writing checksum: %w", err)
	}
	cw.n += 4
	if err := bw.Flush(); err != nil {
		return cw.n, fmt.Errorf("core: flushing: %w", err)
	}
	return cw.n, nil
}

// ReadATMatrix deserializes an AT MATRIX written by WriteTo, verifies the
// CRC-32C footer and validates the structural invariants. Payload reads are
// chunked and allocations grow incrementally, so a corrupt or hostile
// header cannot force an allocation larger than the actual stream.
func ReadATMatrix(r io.Reader) (*ATMatrix, error) {
	return readATMatrix(bufio.NewReaderSize(r, 1<<20))
}

// readATMatrix is ReadATMatrix on a caller-owned buffer, so a caller that
// decodes many streams in a row (ReadTileRowFrames) can reuse one buffer and
// see how much of it the decoder left unread.
func readATMatrix(br *bufio.Reader) (*ATMatrix, error) {
	cr := &crcReader{r: br, crc: crc32.New(castagnoli)}
	magic := make([]byte, len(atMagic))
	if _, err := io.ReadFull(cr, magic); err != nil {
		return nil, fmt.Errorf("core: reading magic: %w", err)
	}
	if string(magic) != atMagic {
		return nil, fmt.Errorf("%w: %q", ErrBadMagic, magic)
	}
	var hdr [4]int64
	if err := binary.Read(cr, binary.LittleEndian, hdr[:]); err != nil {
		return nil, fmt.Errorf("core: reading header: %w", err)
	}
	rows, cols, bAtomic, nTiles := hdr[0], hdr[1], hdr[2], hdr[3]
	if rows <= 0 || cols <= 0 || bAtomic <= 0 || nTiles < 0 ||
		rows > 1<<31 || cols > 1<<31 || bAtomic > 1<<31 {
		return nil, fmt.Errorf("core: invalid header %v", hdr)
	}
	if bAtomic&(bAtomic-1) != 0 {
		return nil, fmt.Errorf("core: b_atomic %d not a power of two", bAtomic)
	}
	// Bound the block-index allocation against corrupt headers.
	br2 := (rows + bAtomic - 1) / bAtomic
	bc2 := (cols + bAtomic - 1) / bAtomic
	if br2*bc2 > 1<<28 {
		return nil, fmt.Errorf("core: header implies an absurd %d-block grid", br2*bc2)
	}
	if nTiles > br2*bc2 {
		return nil, fmt.Errorf("core: header claims %d tiles for a %d-block grid", nTiles, br2*bc2)
	}
	// Tiles are collected first and indexed only once the footer has
	// verified: the block index is sized by the header (up to 1 GiB at the
	// grid bound above), so a corrupt or truncated stream must fail before
	// it is allocated.
	var tiles []*Tile
	for ti := int64(0); ti < nTiles; ti++ {
		var meta [4]int64
		if err := binary.Read(cr, binary.LittleEndian, meta[:]); err != nil {
			return nil, tileErr(ti, -1, -1, "bounds: %w", err)
		}
		r0, c0 := int(meta[0]), int(meta[1])
		var kind uint8
		if err := binary.Read(cr, binary.LittleEndian, &kind); err != nil {
			return nil, tileErr(ti, r0, c0, "kind: %w", err)
		}
		var home int32
		if err := binary.Read(cr, binary.LittleEndian, &home); err != nil {
			return nil, tileErr(ti, r0, c0, "home: %w", err)
		}
		t := &Tile{
			Row0: r0, Col0: c0,
			Rows: int(meta[2]), Cols: int(meta[3]),
			Kind: mat.Kind(kind), Home: numa.Node(home),
		}
		if t.Rows <= 0 || t.Cols <= 0 ||
			t.Row0 < 0 || t.Col0 < 0 ||
			t.Row0+t.Rows > int(rows) || t.Col0+t.Cols > int(cols) {
			return nil, tileErr(ti, r0, c0, "bounds %v outside matrix", meta)
		}
		switch t.Kind {
		case mat.Sparse:
			var nnz int64
			if err := binary.Read(cr, binary.LittleEndian, &nnz); err != nil {
				return nil, tileErr(ti, r0, c0, "nnz: %w", err)
			}
			if nnz < 0 || nnz > int64(t.Rows)*int64(t.Cols) {
				return nil, tileErr(ti, r0, c0, "impossible nnz %d", nnz)
			}
			rowPtr, err := readInt64s(cr, int64(t.Rows)+1)
			if err != nil {
				return nil, tileErr(ti, r0, c0, "row pointers: %w", err)
			}
			colIdx, err := readInt32s(cr, nnz)
			if err != nil {
				return nil, tileErr(ti, r0, c0, "columns: %w", err)
			}
			val, err := readFloat64s(cr, nnz)
			if err != nil {
				return nil, tileErr(ti, r0, c0, "values: %w", err)
			}
			csr := &mat.CSR{Rows: t.Rows, Cols: t.Cols, RowPtr: rowPtr, ColIdx: colIdx, Val: val}
			if err := csr.Validate(); err != nil {
				return nil, tileErr(ti, r0, c0, "payload: %w", err)
			}
			t.Sp = csr
			t.NNZ = nnz
		case mat.DenseKind:
			data, err := readFloat64s(cr, int64(t.Rows)*int64(t.Cols))
			if err != nil {
				return nil, tileErr(ti, r0, c0, "payload: %w", err)
			}
			d := &mat.Dense{Rows: t.Rows, Cols: t.Cols, Stride: t.Cols, Data: data}
			t.D = d
			t.NNZ = d.NNZ()
		default:
			return nil, tileErr(ti, r0, c0, "unknown kind %d", kind)
		}
		tiles = append(tiles, t)
	}
	// The footer itself is not part of the checksummed bytes.
	want := cr.crc.Sum32()
	var foot [4]byte
	if _, err := io.ReadFull(cr.r, foot[:]); err != nil {
		return nil, fmt.Errorf("core: reading checksum: %w", err)
	}
	if got := binary.LittleEndian.Uint32(foot[:]); got != want {
		return nil, fmt.Errorf("%w: stream %08x, computed %08x", ErrChecksum, got, want)
	}
	out := newATMatrix(int(rows), int(cols), int(bAtomic))
	for _, t := range tiles {
		out.addTile(t)
	}
	if err := out.Validate(); err != nil {
		return nil, err
	}
	return out, nil
}

// FileChecksum returns the CRC-32C footer and total size of an .atm file
// without parsing it. The footer covers every preceding byte, so it
// identifies the stream's exact content — the cheap fingerprint the
// catalog manifest records and cross-checks on reload.
func FileChecksum(path string) (crc uint32, size int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return 0, 0, err
	}
	if st.Size() < int64(len(atMagic))+4 {
		return 0, st.Size(), fmt.Errorf("%w: %s is %d bytes, shorter than magic+footer", ErrBadMagic, path, st.Size())
	}
	var foot [4]byte
	if _, err := f.ReadAt(foot[:], st.Size()-4); err != nil {
		return 0, st.Size(), fmt.Errorf("core: reading checksum footer of %s: %w", path, err)
	}
	return binary.LittleEndian.Uint32(foot[:]), st.Size(), nil
}

// chunkBytes is the unit in which the decoder reads payload slices; a
// multiple of every element size used.
const chunkBytes = 1 << 16

// readSlice reads n fixed-size little-endian elements through the reader's
// bounded chunk buffer. The destination grows incrementally, so a hostile
// length field cannot allocate more than the stream actually delivers (plus
// one bounded chunk); a short stream fails with io.ErrUnexpectedEOF.
func readSlice[T any](r *crcReader, n int64, size int, dec func([]byte) T) ([]T, error) {
	if n < 0 {
		return nil, fmt.Errorf("core: negative element count %d", n)
	}
	initCap := n
	if initCap > chunkBytes/int64(size) {
		initCap = chunkBytes / int64(size)
	}
	out := make([]T, 0, initCap)
	for int64(len(out)) < n {
		want := (n - int64(len(out))) * int64(size)
		if want > chunkBytes {
			want = chunkBytes
		}
		if _, err := io.ReadFull(r, r.chunk[:want]); err != nil {
			if errors.Is(err, io.EOF) {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
		for off := int64(0); off < want; off += int64(size) {
			out = append(out, dec(r.chunk[off:off+int64(size)]))
		}
	}
	return out, nil
}

func readInt64s(r *crcReader, n int64) ([]int64, error) {
	return readSlice(r, n, 8, func(b []byte) int64 { return int64(binary.LittleEndian.Uint64(b)) })
}

func readInt32s(r *crcReader, n int64) ([]int32, error) {
	return readSlice(r, n, 4, func(b []byte) int32 { return int32(binary.LittleEndian.Uint32(b)) })
}

func readFloat64s(r *crcReader, n int64) ([]float64, error) {
	return readSlice(r, n, 8, func(b []byte) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(b)) })
}

// countingWriter tracks bytes written and feeds them to the running CRC.
type countingWriter struct {
	w   io.Writer
	n   int64
	crc hash.Hash32
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	c.crc.Write(p[:n])
	return n, err
}

// crcReader feeds every byte it delivers to the running CRC. chunk is
// readSlice's staging buffer: one per decode, not one per slice.
type crcReader struct {
	r     *bufio.Reader
	crc   hash.Hash32
	chunk [chunkBytes]byte
}

func (c *crcReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	if n > 0 {
		c.crc.Write(p[:n])
	}
	return n, err
}
