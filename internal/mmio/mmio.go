// Package mmio reads and writes sparse matrices in the MatrixMarket
// exchange format used by the Florida (SuiteSparse) collection the paper
// draws its real-world matrices from, plus a compact binary COO format for
// fast reloading of generated matrices.
//
// It also owns the system's one binary codec (codec.go): Writer and Reader
// implement the framing every binary stream follows — the binary COO here,
// and core's .atm files, tile-row frames and cluster shard bodies — with one
// CRC-32C footer rule, one bounded decoder and the one ErrChecksum /
// ErrBadMagic pair.
//
// Supported MatrixMarket variants: `matrix coordinate real|integer|pattern
// general|symmetric|skew-symmetric` and `matrix array real general`.
// Symmetric inputs are expanded to their full (general) form on read,
// matching what the multiplication operators expect.
package mmio

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"atmatrix/internal/mat"
)

// ReadMatrixMarket parses a MatrixMarket stream into a COO staging matrix.
func ReadMatrixMarket(r io.Reader) (*mat.COO, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	header, err := readLine(br)
	if err != nil {
		return nil, fmt.Errorf("mmio: reading header: %w", err)
	}
	fields := strings.Fields(strings.ToLower(header))
	if len(fields) != 5 || fields[0] != "%%matrixmarket" || fields[1] != "matrix" {
		return nil, fmt.Errorf("mmio: malformed MatrixMarket header %q", header)
	}
	layout, valType, symmetry := fields[2], fields[3], fields[4]
	switch layout {
	case "coordinate", "array":
	default:
		return nil, fmt.Errorf("mmio: unsupported layout %q", layout)
	}
	switch valType {
	case "real", "integer", "pattern":
	default:
		return nil, fmt.Errorf("mmio: unsupported value type %q", valType)
	}
	switch symmetry {
	case "general", "symmetric", "skew-symmetric":
	default:
		return nil, fmt.Errorf("mmio: unsupported symmetry %q", symmetry)
	}
	if layout == "array" && (valType == "pattern" || symmetry != "general") {
		return nil, fmt.Errorf("mmio: array layout supports only real general")
	}

	// Skip comments, read the size line.
	var sizeLine string
	for {
		line, err := readLine(br)
		if err != nil {
			return nil, fmt.Errorf("mmio: reading size line: %w", err)
		}
		if strings.HasPrefix(line, "%") || strings.TrimSpace(line) == "" {
			continue
		}
		sizeLine = line
		break
	}
	sz := strings.Fields(sizeLine)
	if layout == "array" {
		if len(sz) != 2 {
			return nil, fmt.Errorf("mmio: malformed array size line %q", sizeLine)
		}
	} else if len(sz) != 3 {
		return nil, fmt.Errorf("mmio: malformed coordinate size line %q", sizeLine)
	}
	rows, err := strconv.Atoi(sz[0])
	if err != nil {
		return nil, fmt.Errorf("mmio: bad row count %q", sz[0])
	}
	cols, err := strconv.Atoi(sz[1])
	if err != nil {
		return nil, fmt.Errorf("mmio: bad column count %q", sz[1])
	}
	if rows < 0 || cols < 0 || rows > 1<<31 || cols > 1<<31 {
		return nil, fmt.Errorf("mmio: unreasonable dimensions %d×%d", rows, cols)
	}
	if symmetry != "general" && rows != cols {
		// The mirrored entry (c, r) of a non-square matrix is out of bounds.
		return nil, fmt.Errorf("mmio: %s matrix must be square, header says %d×%d", symmetry, rows, cols)
	}
	out := mat.NewCOO(rows, cols)

	if layout == "array" {
		// Column-major dense enumeration.
		for c := 0; c < cols; c++ {
			for r := 0; r < rows; r++ {
				tok, err := nextToken(br)
				if err != nil {
					return nil, fmt.Errorf("mmio: array entry (%d,%d): %w", r, c, err)
				}
				v, err := strconv.ParseFloat(tok, 64)
				if err != nil {
					return nil, fmt.Errorf("mmio: array value %q: %w", tok, err)
				}
				if v != 0 {
					out.Append(r, c, v)
				}
			}
		}
		return out, nil
	}

	nnz, err := strconv.Atoi(sz[2])
	if err != nil {
		return nil, fmt.Errorf("mmio: bad nnz %q", sz[2])
	}
	if nnz < 0 || int64(nnz) > int64(rows)*int64(cols) {
		return nil, fmt.Errorf("mmio: header claims %d entries for a %d×%d matrix", nnz, rows, cols)
	}
	for i := 0; i < nnz; i++ {
		line, err := readLine(br)
		if err != nil {
			return nil, fmt.Errorf("mmio: entry %d/%d: %w", i+1, nnz, err)
		}
		f := strings.Fields(line)
		want := 3
		if valType == "pattern" {
			want = 2
		}
		if len(f) < want {
			return nil, fmt.Errorf("mmio: entry %d: malformed line %q", i+1, line)
		}
		r, err := strconv.Atoi(f[0])
		if err != nil {
			return nil, fmt.Errorf("mmio: entry %d: bad row %q", i+1, f[0])
		}
		c, err := strconv.Atoi(f[1])
		if err != nil {
			return nil, fmt.Errorf("mmio: entry %d: bad column %q", i+1, f[1])
		}
		v := 1.0
		if valType != "pattern" {
			v, err = strconv.ParseFloat(f[2], 64)
			if err != nil {
				return nil, fmt.Errorf("mmio: entry %d: bad value %q", i+1, f[2])
			}
		}
		r-- // MatrixMarket is 1-based
		c--
		if r < 0 || r >= rows || c < 0 || c >= cols {
			return nil, fmt.Errorf("mmio: entry %d: coordinate (%d,%d) outside %d×%d", i+1, r+1, c+1, rows, cols)
		}
		out.Append(r, c, v)
		if r != c {
			switch symmetry {
			case "symmetric":
				out.Append(c, r, v)
			case "skew-symmetric":
				out.Append(c, r, -v)
			}
		}
	}
	return out, nil
}

// WriteMatrixMarket writes a COO matrix in `coordinate real general` form.
func WriteMatrixMarket(w io.Writer, a *mat.COO) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := fmt.Fprintf(bw, "%%%%MatrixMarket matrix coordinate real general\n"); err != nil {
		return fmt.Errorf("mmio: writing header: %w", err)
	}
	if _, err := fmt.Fprintf(bw, "%d %d %d\n", a.Rows, a.Cols, len(a.Ent)); err != nil {
		return fmt.Errorf("mmio: writing size line: %w", err)
	}
	for _, e := range a.Ent {
		if _, err := fmt.Fprintf(bw, "%d %d %.17g\n", e.Row+1, e.Col+1, e.Val); err != nil {
			return fmt.Errorf("mmio: writing entry: %w", err)
		}
	}
	return bw.Flush()
}

// binaryMagic identifies the compact binary COO format.
const binaryMagic = "ATMCOO1\n"

// WriteBinary writes the compact binary COO representation: a magic
// string, little-endian int64 rows/cols/nnz, then packed
// <int32,int32,float64> triples — exactly the Table I "Bin. Size" layout —
// followed by the codec's CRC-32C footer, so uploads shipped over a wire
// are corruption-detectable end to end.
func WriteBinary(w io.Writer, a *mat.COO) error {
	cw := NewWriter(w)
	cw.String(binaryMagic)
	cw.Int64(int64(a.Rows))
	cw.Int64(int64(a.Cols))
	cw.Int64(int64(len(a.Ent)))
	putSlice(cw, a.Ent, 16, putEntries)
	if _, _, err := cw.Footer(); err != nil {
		return fmt.Errorf("mmio: writing binary COO: %w", err)
	}
	return nil
}

// ReadBinary reads the compact binary COO representation and verifies its
// footer: a damaged stream fails with ErrChecksum, one that is no binary
// COO with ErrBadMagic.
func ReadBinary(r io.Reader) (*mat.COO, error) {
	cr := NewReader(bufio.NewReaderSize(r, ChunkBytes))
	if err := cr.Magic(binaryMagic); err != nil {
		return nil, err
	}
	hdr, err := cr.Int64s(3)
	if err != nil {
		return nil, fmt.Errorf("mmio: reading binary header: %w", err)
	}
	rows, cols, nnz := hdr[0], hdr[1], hdr[2]
	if rows < 0 || cols < 0 || nnz < 0 || rows > 1<<31 || cols > 1<<31 || nnz > rows*cols {
		return nil, fmt.Errorf("mmio: invalid header: %d entries for a %d×%d matrix", nnz, rows, cols)
	}
	ent, err := getSlice(cr, nnz, 16, getEntries)
	if err != nil {
		return nil, fmt.Errorf("mmio: reading binary entries: %w", err)
	}
	if _, err := cr.Footer(); err != nil {
		return nil, err
	}
	out := &mat.COO{Rows: int(rows), Cols: int(cols), Ent: ent}
	if err := out.Validate(); err != nil {
		return nil, err
	}
	return out, nil
}

func putEntries(b []byte, es []mat.Entry) {
	for i, e := range es {
		p := b[16*i : 16*i+16]
		binary.LittleEndian.PutUint32(p, uint32(e.Row))
		binary.LittleEndian.PutUint32(p[4:], uint32(e.Col))
		binary.LittleEndian.PutUint64(p[8:], math.Float64bits(e.Val))
	}
}

func getEntries(dst []mat.Entry, b []byte) {
	for i := range dst {
		p := b[16*i : 16*i+16]
		dst[i] = mat.Entry{
			Row: int32(binary.LittleEndian.Uint32(p)),
			Col: int32(binary.LittleEndian.Uint32(p[4:])),
			Val: math.Float64frombits(binary.LittleEndian.Uint64(p[8:])),
		}
	}
}

func readLine(br *bufio.Reader) (string, error) {
	line, err := br.ReadString('\n')
	if errors.Is(err, io.EOF) && line != "" {
		return line, nil
	}
	if err != nil {
		return "", err
	}
	return strings.TrimRight(line, "\r\n"), nil
}

// nextToken reads the next whitespace-delimited token, skipping newlines.
func nextToken(br *bufio.Reader) (string, error) {
	var sb strings.Builder
	for {
		b, err := br.ReadByte()
		if err != nil {
			if sb.Len() > 0 && errors.Is(err, io.EOF) {
				return sb.String(), nil
			}
			return "", err
		}
		switch b {
		case ' ', '\t', '\r', '\n':
			if sb.Len() > 0 {
				return sb.String(), nil
			}
		default:
			sb.WriteByte(b)
		}
	}
}
