package mmio

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"atmatrix/internal/mat"
)

// oracleReadMatrixMarket is the MatrixMarket reader as it was before it
// tokenized in place: a string per line, strings.Fields per entry line and
// a strings.Builder per array token. ReadMatrixMarket must accept and
// reject exactly what it does and return the same matrix, bit for bit.
func oracleReadMatrixMarket(r io.Reader) (*mat.COO, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	header, err := oracleReadLine(br)
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
		line, err := oracleReadLine(br)
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
				tok, err := oracleNextToken(br)
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
		line, err := oracleReadLine(br)
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

func oracleReadLine(br *bufio.Reader) (string, error) {
	line, err := br.ReadString('\n')
	if errors.Is(err, io.EOF) && line != "" {
		return line, nil
	}
	if err != nil {
		return "", err
	}
	return strings.TrimRight(line, "\r\n"), nil
}

// oracleNextToken reads the next whitespace-delimited token, skipping newlines.
func oracleNextToken(br *bufio.Reader) (string, error) {
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
