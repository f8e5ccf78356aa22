package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"atmatrix/internal/mat"
	"atmatrix/internal/mmio"
	"atmatrix/internal/numa"
)

// Serialization of a partitioned AT MATRIX: a database system keeps the
// partitioned physical layout, so reloading must not repeat the
// partitioning work. The format follows the framing rule of internal/mmio's
// codec:
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
// MATRIX. Both are the codec's sentinels, so errors.Is matches them on a
// damaged binary COO stream as well.

const atMagic = "ATMAT1\n\x00"

// ErrBadMagic and ErrChecksum are the codec's sentinels under core's names.
var ErrBadMagic, ErrChecksum = mmio.ErrBadMagic, mmio.ErrChecksum

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
	n, _, err := a.Encode(w)
	return n, err
}

// Encode is WriteTo that also returns the stream's footer CRC-32C: the
// fingerprint the catalog manifest and the cluster shard maps record.
func (a *ATMatrix) Encode(w io.Writer) (n int64, crc uint32, err error) {
	return encode(mmio.NewWriter(w), a.Rows, a.Cols, a.BAtomic, a.Tiles)
}

// encode writes the stream of a matrix with the given tiles through a
// caller-owned codec writer. WriteTileRowFrames calls it once per tile-row,
// with one writer, and builds no matrix for a frame.
func encode(w *mmio.Writer, rows, cols, bAtomic int, tiles []*Tile) (int64, uint32, error) {
	w.String(atMagic)
	for _, v := range [...]int{rows, cols, bAtomic, len(tiles)} {
		w.Int64(int64(v))
	}
	for _, t := range tiles {
		for _, v := range [...]int{t.Row0, t.Col0, t.Rows, t.Cols} {
			w.Int64(int64(v))
		}
		w.Uint8(uint8(t.Kind))
		w.Int32(int32(t.Home))
		if t.Kind == mat.Sparse {
			w.Int64(t.NNZ)
		}
		t.writePayload(w)
	}
	n, crc, err := w.Footer()
	if err != nil {
		return n, crc, fmt.Errorf("core: writing AT MATRIX: %w", err)
	}
	return n, crc, nil
}

// writePayload writes the tile's payload arrays, the part of its stream
// after the kind, home and nnz fields. Dense payloads may carry a stride;
// their rows are written compact.
func (t *Tile) writePayload(w *mmio.Writer) {
	if t.Kind == mat.Sparse {
		w.Int64s(t.Sp.RowPtr)
		w.Int32s(t.Sp.ColIdx)
		w.Float64s(t.Sp.Val)
		return
	}
	for r := 0; r < t.Rows; r++ {
		w.Float64s(t.D.RowSlice(r))
	}
}

// ReadATMatrix deserializes an AT MATRIX written by WriteTo, verifies the
// CRC-32C footer and validates the structural invariants. The codec's
// reader grows every slice as its bytes arrive, so a corrupt or hostile
// header cannot force an allocation larger than the actual stream.
func ReadATMatrix(r io.Reader) (*ATMatrix, error) {
	m, _, err := DecodeATMatrix(r)
	return m, err
}

// DecodeATMatrix is ReadATMatrix that also returns the stream's verified
// footer CRC-32C, its fingerprint.
func DecodeATMatrix(r io.Reader) (*ATMatrix, uint32, error) {
	return readATMatrix(mmio.NewReader(bufio.NewReaderSize(r, mmio.ChunkBytes)))
}

func le64(b []byte) int64 { return int64(binary.LittleEndian.Uint64(b)) }

// readATMatrix decodes one stream through a caller-owned codec reader, so a
// caller that decodes many streams in a row (ReadTileRowFrames) keeps one
// buffer and knows where each stream ended.
func readATMatrix(cr *mmio.Reader) (*ATMatrix, uint32, error) {
	if err := cr.Magic(atMagic); err != nil {
		return nil, 0, err
	}
	hdr, err := cr.Next(32)
	if err != nil {
		return nil, 0, fmt.Errorf("core: reading header: %w", err)
	}
	rows, cols, bAtomic, nTiles := le64(hdr), le64(hdr[8:]), le64(hdr[16:]), le64(hdr[24:])
	if rows <= 0 || cols <= 0 || bAtomic <= 0 || nTiles < 0 ||
		rows > 1<<31 || cols > 1<<31 || bAtomic > 1<<31 {
		return nil, 0, fmt.Errorf("core: invalid header %d×%d, b_atomic %d, %d tiles", rows, cols, bAtomic, nTiles)
	}
	if bAtomic&(bAtomic-1) != 0 {
		return nil, 0, fmt.Errorf("core: b_atomic %d not a power of two", bAtomic)
	}
	// Bound the block grid against corrupt headers: DensityMap allocates it
	// on first use.
	br2 := (rows + bAtomic - 1) / bAtomic
	bc2 := (cols + bAtomic - 1) / bAtomic
	if br2*bc2 > 1<<28 {
		return nil, 0, fmt.Errorf("core: header implies an absurd %d-block grid", br2*bc2)
	}
	if nTiles > br2*bc2 {
		return nil, 0, fmt.Errorf("core: header claims %d tiles for a %d-block grid", nTiles, br2*bc2)
	}
	var tiles []*Tile
	for ti := int64(0); ti < nTiles; ti++ {
		th, err := cr.Next(37)
		if err != nil {
			return nil, 0, tileErr(ti, -1, -1, "header: %w", err)
		}
		t := &Tile{
			Row0: int(le64(th)), Col0: int(le64(th[8:])),
			Rows: int(le64(th[16:])), Cols: int(le64(th[24:])),
			Kind: mat.Kind(th[32]), Home: numa.Node(int32(binary.LittleEndian.Uint32(th[33:]))),
		}
		if t.Rows <= 0 || t.Cols <= 0 ||
			t.Row0 < 0 || t.Col0 < 0 ||
			t.Row0+t.Rows > int(rows) || t.Col0+t.Cols > int(cols) {
			return nil, 0, tileErr(ti, t.Row0, t.Col0, "bounds %d×%d outside matrix", t.Rows, t.Cols)
		}
		switch t.Kind {
		case mat.Sparse:
			b, err := cr.Next(8)
			if err != nil {
				return nil, 0, tileErr(ti, t.Row0, t.Col0, "nnz: %w", err)
			}
			nnz := le64(b)
			if nnz < 0 || nnz > int64(t.Rows)*int64(t.Cols) {
				return nil, 0, tileErr(ti, t.Row0, t.Col0, "impossible nnz %d", nnz)
			}
			rowPtr, err := cr.Int64s(int64(t.Rows) + 1)
			if err != nil {
				return nil, 0, tileErr(ti, t.Row0, t.Col0, "row pointers: %w", err)
			}
			colIdx, err := cr.Int32s(nnz)
			if err != nil {
				return nil, 0, tileErr(ti, t.Row0, t.Col0, "columns: %w", err)
			}
			val, err := cr.Float64s(nnz)
			if err != nil {
				return nil, 0, tileErr(ti, t.Row0, t.Col0, "values: %w", err)
			}
			csr := &mat.CSR{Rows: t.Rows, Cols: t.Cols, RowPtr: rowPtr, ColIdx: colIdx, Val: val}
			if err := csr.Validate(); err != nil {
				return nil, 0, tileErr(ti, t.Row0, t.Col0, "payload: %w", err)
			}
			t.Sp = csr
			t.NNZ = nnz
		case mat.DenseKind:
			data, err := cr.Float64s(int64(t.Rows) * int64(t.Cols))
			if err != nil {
				return nil, 0, tileErr(ti, t.Row0, t.Col0, "payload: %w", err)
			}
			d := &mat.Dense{Rows: t.Rows, Cols: t.Cols, Stride: t.Cols, Data: data}
			t.D = d
			t.NNZ = d.NNZ()
		default:
			return nil, 0, tileErr(ti, t.Row0, t.Col0, "unknown kind %d", t.Kind)
		}
		tiles = append(tiles, t)
	}
	crc, err := cr.Footer()
	if err != nil {
		return nil, 0, err
	}
	out := newATMatrix(int(rows), int(cols), int(bAtomic))
	out.Tiles = tiles
	if err := out.Validate(); err != nil {
		return nil, 0, err
	}
	return out, crc, nil
}
