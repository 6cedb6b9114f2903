package tensor

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
)

// The on-disk format matches the published P-Tucker datasets: one observed
// entry per line, N whitespace-separated 1-based indices followed by the
// value. Lines starting with '#' and blank lines are ignored.

// ErrNonFinite reports a NaN or ±Inf value in a tensor file. Every reader
// rejects one: a single non-finite observation turns each factor row it
// touches non-finite, and the fit still reports success.
var ErrNonFinite = errors.New("tensor: value is not finite")

// Write streams t to w in the text format.
func Write(w io.Writer, t *Coord) error {
	bw := bufio.NewWriter(w)
	n := t.Order()
	for e := 0; e < t.NNZ(); e++ {
		idx := t.Index(e)
		for k := 0; k < n; k++ {
			if k > 0 {
				if err := bw.WriteByte('\t'); err != nil {
					return err
				}
			}
			if _, err := bw.WriteString(strconv.Itoa(idx[k] + 1)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(bw, "\t%g\n", t.Value(e)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteFile writes t to the named file.
func WriteFile(path string, t *Coord) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Write(f, t); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Read parses a sparse tensor of the given order from r. Dimensions are
// inferred as the per-mode maxima unless dims is non-nil, in which case
// out-of-range entries are an error.
func Read(r io.Reader, order int, dims []int) (*Coord, error) {
	if order <= 0 {
		return nil, fmt.Errorf("tensor: order must be positive, got %d", order)
	}
	var (
		indices []int
		values  []float64
		maxIdx  = make([]int, order)
	)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != order+1 {
			return nil, fmt.Errorf("tensor: line %d: want %d fields, got %d", lineNo, order+1, len(fields))
		}
		for k := 0; k < order; k++ {
			v, err := strconv.Atoi(fields[k])
			if err != nil {
				return nil, fmt.Errorf("tensor: line %d: bad index %q: %v", lineNo, fields[k], err)
			}
			if v < 1 {
				return nil, fmt.Errorf("tensor: line %d: index %d is not 1-based positive", lineNo, v)
			}
			zero := v - 1
			if zero > maxIdx[k] {
				maxIdx[k] = zero
			}
			indices = append(indices, zero)
		}
		val, err := strconv.ParseFloat(fields[order], 64)
		if err != nil {
			return nil, fmt.Errorf("tensor: line %d: bad value %q: %v", lineNo, fields[order], err)
		}
		if math.IsNaN(val) || math.IsInf(val, 0) {
			return nil, fmt.Errorf("%w: line %d: %q", ErrNonFinite, lineNo, fields[order])
		}
		values = append(values, val)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}

	if dims == nil {
		dims = make([]int, order)
		for k := range dims {
			dims[k] = maxIdx[k] + 1
		}
	} else {
		if len(dims) != order {
			return nil, fmt.Errorf("tensor: dims length %d does not match order %d", len(dims), order)
		}
		for k := range dims {
			if maxIdx[k] >= dims[k] && len(values) > 0 {
				return nil, fmt.Errorf("%w: mode %d has index %d but dimension %d", ErrDimension, k, maxIdx[k], dims[k])
			}
		}
	}
	t := NewCoord(dims)
	t.indices = indices
	t.values = values
	return t, nil
}

// ReadFile reads a sparse tensor from the named file. The encoding is
// auto-detected: files opening with the binary snapshot magic (see
// WriteBinary / store.WriteTensor) take the fixed-width binary path, anything
// else is parsed as the text format — existing call sites transparently
// accept either. For binary files order may be 0 (the snapshot declares its
// own order).
func ReadFile(path string, order int, dims []int) (*Coord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<16)
	format, err := DetectFormat(br)
	if err != nil {
		return nil, err
	}
	if format == FormatBinary {
		return ReadBinary(br, order, dims)
	}
	return Read(br, order, dims)
}
