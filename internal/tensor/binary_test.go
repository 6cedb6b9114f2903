package tensor

import (
	"bufio"
	"bytes"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func coordsEqual(t *testing.T, a, b *Coord) {
	t.Helper()
	if a.Order() != b.Order() {
		t.Fatalf("order %d vs %d", a.Order(), b.Order())
	}
	for k := 0; k < a.Order(); k++ {
		if a.Dim(k) != b.Dim(k) {
			t.Fatalf("mode %d dim %d vs %d", k, a.Dim(k), b.Dim(k))
		}
	}
	if a.NNZ() != b.NNZ() {
		t.Fatalf("nnz %d vs %d", a.NNZ(), b.NNZ())
	}
	for e := 0; e < a.NNZ(); e++ {
		ia, ib := a.Index(e), b.Index(e)
		for k := range ia {
			if ia[k] != ib[k] {
				t.Fatalf("entry %d mode %d index %d vs %d", e, k, ia[k], ib[k])
			}
		}
		if math.Float64bits(a.Value(e)) != math.Float64bits(b.Value(e)) {
			t.Fatalf("entry %d value bits differ: %v vs %v", e, a.Value(e), b.Value(e))
		}
	}
}

// TestBinaryRoundTrip checks bit-identical write/read across orders,
// including values that stress the float encoding.
func TestBinaryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	shapes := [][]int{{64}, {12, 9}, {20, 16, 12}, {6, 5, 4, 3}}
	for _, dims := range shapes {
		x := randomCoord(rng, dims, 50)
		// Stress the value encoding with non-round numbers and extremes.
		x.SetValue(0, math.Nextafter(1, 2))
		x.SetValue(1, -0.0)
		x.SetValue(2, 1e-308)

		var buf bytes.Buffer
		if err := WriteBinary(&buf, x); err != nil {
			t.Fatalf("%v: write: %v", dims, err)
		}
		got, err := ReadBinary(bytes.NewReader(buf.Bytes()), 0, nil)
		if err != nil {
			t.Fatalf("%v: read: %v", dims, err)
		}
		coordsEqual(t, x, got)

		// Explicit order and dims must also be accepted.
		got, err = ReadBinary(bytes.NewReader(buf.Bytes()), len(dims), x.Dims())
		if err != nil {
			t.Fatalf("%v: read with order/dims: %v", dims, err)
		}
		coordsEqual(t, x, got)
	}
}

// TestBinaryTextRoundTrip cross-checks the two encodings: a tensor written
// as text and as binary decodes to the same entries (values in the text path
// survive %g formatting of float64 exactly via strconv).
func TestBinaryTextRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	x := randomCoord(rng, []int{30, 20, 10}, 200)

	var tb, bb bytes.Buffer
	if err := Write(&tb, x); err != nil {
		t.Fatal(err)
	}
	if err := WriteBinary(&bb, x); err != nil {
		t.Fatal(err)
	}
	fromText, err := Read(bytes.NewReader(tb.Bytes()), 3, x.Dims())
	if err != nil {
		t.Fatal(err)
	}
	fromBin, err := ReadBinary(bytes.NewReader(bb.Bytes()), 3, x.Dims())
	if err != nil {
		t.Fatal(err)
	}
	coordsEqual(t, fromText, fromBin)
}

func TestDetectFormat(t *testing.T) {
	x := NewCoord([]int{3, 3})
	x.MustAppend([]int{1, 2}, 0.5)

	var bin bytes.Buffer
	if err := WriteBinary(&bin, x); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		data string
		want Format
	}{
		{"binary", bin.String(), FormatBinary},
		{"text", "2\t3\t0.5\n", FormatText},
		{"comment first", "# header\n1 1 2\n", FormatText},
		{"empty", "", FormatText},
		{"short", "1\n", FormatText},
	}
	for _, tc := range cases {
		got, err := DetectFormat(bufio.NewReader(strings.NewReader(tc.data)))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got != tc.want {
			t.Errorf("%s: detected %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestReadFileAutoDetect writes the same tensor in both encodings and loads
// each through the one ReadFile entry point.
func TestReadFileAutoDetect(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	x := randomCoord(rng, []int{15, 10, 5}, 80)
	dir := t.TempDir()

	textPath := filepath.Join(dir, "x.tns")
	binPath := filepath.Join(dir, "x.ptkt")
	if err := WriteFile(textPath, x); err != nil {
		t.Fatal(err)
	}
	if err := WriteBinaryFile(binPath, x); err != nil {
		t.Fatal(err)
	}

	fromText, err := ReadFile(textPath, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	coordsEqual(t, x, fromText)

	fromBin, err := ReadFile(binPath, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	coordsEqual(t, x, fromBin)

	// Binary files know their own order; 0 adopts it, a wrong one errors.
	if _, err := ReadFile(binPath, 0, nil); err != nil {
		t.Fatalf("order 0 on binary: %v", err)
	}
	if _, err := ReadFile(binPath, 4, nil); err == nil {
		t.Fatal("wrong order accepted on binary file")
	}

	if f, err := DetectFormatFile(binPath); err != nil || f != FormatBinary {
		t.Fatalf("DetectFormatFile(bin) = %v, %v", f, err)
	}
	if f, err := DetectFormatFile(textPath); err != nil || f != FormatText {
		t.Fatalf("DetectFormatFile(text) = %v, %v", f, err)
	}
}

func TestBinaryCorruptionDetected(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	x := randomCoord(rng, []int{10, 10}, 40)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, x); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	// Flip one byte in the value block: checksum must catch it.
	bad := append([]byte(nil), good...)
	bad[len(bad)-12] ^= 0x40
	if _, err := ReadBinary(bytes.NewReader(bad), 0, nil); !errors.Is(err, ErrTensorChecksum) {
		t.Fatalf("corrupted stream: got %v, want ErrTensorChecksum", err)
	}

	// Truncation anywhere must fail, not yield a partial tensor.
	for _, cut := range []int{3, 20, len(good) / 2, len(good) - 2} {
		if _, err := ReadBinary(bytes.NewReader(good[:cut]), 0, nil); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}

	// A dims mismatch is the caller's error, reported before any decode.
	if _, err := ReadBinary(bytes.NewReader(good), 0, []int{10, 11}); !errors.Is(err, ErrDimension) {
		t.Fatalf("dims mismatch: got %v, want ErrDimension", err)
	}
}

// TestBinaryValueAlignment pins the format guarantee that the value block
// starts on an 8-byte boundary (what makes the file mmap-friendly).
func TestBinaryValueAlignment(t *testing.T) {
	for nnz := 1; nnz <= 8; nnz++ {
		x := NewCoord([]int{50, 50, 50})
		for e := 0; e < nnz; e++ {
			x.MustAppend([]int{e, e, e}, float64(e))
		}
		var buf bytes.Buffer
		if err := WriteBinary(&buf, x); err != nil {
			t.Fatal(err)
		}
		n := x.Order()
		valOff := 24 + 8*n + 4*n*nnz
		valOff += (8 - valOff%8) % 8
		if valOff%8 != 0 {
			t.Fatalf("nnz=%d: value offset %d not 8-aligned", nnz, valOff)
		}
		want := valOff + 8*nnz + 4 // + values + crc trailer
		if buf.Len() != want {
			t.Fatalf("nnz=%d: file length %d, want %d", nnz, buf.Len(), want)
		}
	}
}

// TestWriteBinaryFileOverwrite ensures plain (non-atomic) file writes behave.
func TestWriteBinaryFileOverwrite(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.ptkt")
	a := NewCoord([]int{4, 4})
	a.MustAppend([]int{0, 1}, 1)
	b := NewCoord([]int{5, 5})
	b.MustAppend([]int{4, 4}, 2)
	b.MustAppend([]int{1, 3}, 3)

	for _, x := range []*Coord{a, b} {
		if err := WriteBinaryFile(path, x); err != nil {
			t.Fatal(err)
		}
		got, err := ReadFile(path, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		coordsEqual(t, x, got)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatal(err)
	}
}

// TestReadersRejectNonFinite: NaN and ±Inf values fail both readers with
// ErrNonFinite, naming the line (text) or the entry (binary, which also
// wraps ErrBadTensorFormat). Parsing accepts these spellings, and the binary
// format can carry their bit patterns, so each reader must check.
func TestReadersRejectNonFinite(t *testing.T) {
	for _, tc := range []struct {
		name string
		v    float64
		text string
	}{
		{"NaN", math.NaN(), "NaN"},
		{"+Inf", math.Inf(1), "Inf"},
		{"-Inf", math.Inf(-1), "-Inf"},
		{"+Inf spelled infinity", math.Inf(1), "+infinity"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Text: the bad value sits on line 3, after a comment line.
			in := "# ratings\n1 1 1 0.5\n2 1 2 " + tc.text + "\n2 2 2 1.5\n"
			_, err := Read(strings.NewReader(in), 3, nil)
			if !errors.Is(err, ErrNonFinite) || !strings.Contains(err.Error(), "line 3") {
				t.Fatalf("text: got %v, want ErrNonFinite naming line 3", err)
			}

			x := NewCoord([]int{3, 3})
			x.MustAppend([]int{0, 0}, 1)
			x.MustAppend([]int{1, 2}, 2)
			x.MustAppend([]int{2, 1}, 3)
			x.SetValue(1, tc.v)
			var buf bytes.Buffer
			if err := WriteBinary(&buf, x); err != nil {
				t.Fatal(err)
			}
			_, err = ReadBinary(bytes.NewReader(buf.Bytes()), 0, nil)
			if !errors.Is(err, ErrBadTensorFormat) || !errors.Is(err, ErrNonFinite) || !strings.Contains(err.Error(), "entry 1") {
				t.Fatalf("binary: got %v, want ErrBadTensorFormat and ErrNonFinite naming entry 1", err)
			}
		})
	}
}
