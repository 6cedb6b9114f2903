package tensor

import (
	"bufio"
	"bytes"
	"math"
	"testing"
)

// FuzzReadBinary decodes arbitrary bytes as a binary tensor snapshot. An
// input the decoder accepts must hold only finite values and must re-encode
// and re-decode to a stable byte stream (the canonical serialization is a
// fixed point); inputs it rejects must fail with an error, never a panic.
func FuzzReadBinary(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(BinaryMagic))

	f.Fuzz(func(t *testing.T, data []byte) {
		t1, err := ReadBinary(bytes.NewReader(data), 0, nil)
		if err != nil {
			return // rejected: fine
		}
		for e, v := range t1.Values() {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("accepted non-finite value %v at entry %d", v, e)
			}
		}
		var b1 bytes.Buffer
		if err := WriteBinary(&b1, t1); err != nil {
			t.Fatalf("re-encoding a decoded snapshot failed: %v", err)
		}
		t2, err := ReadBinary(bytes.NewReader(b1.Bytes()), 0, nil)
		if err != nil {
			t.Fatalf("re-decoding the canonical encoding failed: %v", err)
		}
		var b2 bytes.Buffer
		if err := WriteBinary(&b2, t2); err != nil {
			t.Fatalf("second re-encode failed: %v", err)
		}
		if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
			t.Fatalf("round-trip is not a fixed point: %d bytes vs %d bytes", b1.Len(), b2.Len())
		}
	})
}

// FuzzDetectFormat sniffs arbitrary bytes. Detection must never fail on an
// in-memory stream and must classify every input as text or binary — the
// loader dispatches on the answer, so "unknown" would wedge a startup.
func FuzzDetectFormat(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(BinaryMagic))
	f.Add([]byte("1 2 3 4.5\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		format, err := DetectFormat(bufio.NewReader(bytes.NewReader(data)))
		if err != nil {
			t.Fatalf("DetectFormat failed on an in-memory stream: %v", err)
		}
		if format != FormatText && format != FormatBinary {
			t.Fatalf("DetectFormat returned %v; every stream must classify as text or binary", format)
		}
	})
}
