package binfmt

import (
	"bytes"
	"errors"
	"math"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	var w Writer
	w.U8(7)
	w.U16(0xBEEF)
	w.U32(0xDEADBEEF)
	w.U64(1 << 40)
	w.F64(math.Inf(-1))
	w.Bool(true)
	w.Bool(false)
	w.F64s([]float64{0.25, -1})
	w.Bytes([]byte("blob"))
	w.Str("kind")

	r := NewReader(w.B)
	pair := make([]float64, 2)
	if r.U8() != 7 || r.U16() != 0xBEEF || r.U32() != 0xDEADBEEF || r.U64() != 1<<40 ||
		!math.IsInf(r.F64(), -1) || r.U8() != 1 || r.U8() != 0 {
		t.Fatal("scalar fields did not round-trip")
	}
	if r.F64s(pair); pair[0] != 0.25 || pair[1] != -1 {
		t.Fatalf("F64s = %v", pair)
	}
	if got := r.Bytes(); string(got) != "blob" {
		t.Fatalf("Bytes = %q", got)
	}
	if got := r.Bytes(); string(got) != "kind" {
		t.Fatalf("Str = %q", got)
	}
	if err := r.Done(); err != nil {
		t.Fatalf("Done after exact consumption: %v", err)
	}
}

// TestStickyError pins rule one: the first failure is the one reported,
// and every read after it yields a zero value without touching the input.
func TestStickyError(t *testing.T) {
	r := NewReader([]byte{1, 2, 3, 4, 5, 6})
	if r.U32() != 0x04030201 {
		t.Fatal("first read")
	}
	if r.U64() != 0 || !errors.Is(r.Err(), ErrTruncated) {
		t.Fatalf("short U64: err %v", r.Err())
	}
	// Two bytes were left when U64 failed; none are readable afterwards.
	dst := []float64{9}
	r.F64s(dst)
	if r.U8() != 0 || r.U16() != 0 || r.Len() != 0 || r.Bytes() != nil || r.Rest() != nil ||
		r.Count(1, 10) != 0 || dst[0] != 9 {
		t.Fatal("a read succeeded after the cursor failed")
	}
	custom := errors.New("later validation failure")
	r.Fail(custom)
	if err := r.Done(); !errors.Is(err, ErrTruncated) {
		t.Fatalf("Done = %v, want the first error", err)
	}
}

func TestFailKeepsCallerError(t *testing.T) {
	custom := errors.New("bad flag")
	r := NewReader([]byte{1, 2, 3})
	r.Fail(custom)
	if r.U8() != 0 || !errors.Is(r.Done(), custom) {
		t.Fatalf("Done = %v, want %v", r.Done(), custom)
	}
}

// TestCount pins rule two: a count is admitted only within the caller's
// cap and only if count × elemSize bytes are present.
func TestCount(t *testing.T) {
	frame := func(n uint32, payload int) []byte {
		var w Writer
		w.U32(n)
		return append(w.B, make([]byte, payload)...)
	}
	for _, tc := range []struct {
		name     string
		data     []byte
		elemSize int
		max      int
		want     int
		err      error
	}{
		{"fits", frame(3, 24), 8, 3, 3, nil},
		{"zero", frame(0, 0), 8, 0, 0, nil},
		{"over the caller's cap", frame(4, 32), 8, 3, 0, ErrCount},
		{"one byte short", frame(3, 23), 8, 10, 0, ErrTruncated},
		{"claims 4 Gi elements", frame(math.MaxUint32, 64), 8, math.MaxInt32, 0, ErrCount},
		{"product overflows 32 bits", frame(1<<30, 64), 1 << 10, math.MaxInt32, 0, ErrTruncated},
		{"prefix itself truncated", []byte{1, 0}, 8, 10, 0, ErrTruncated},
	} {
		r := NewReader(tc.data)
		if got := r.Count(tc.elemSize, tc.max); got != tc.want || !errors.Is(r.Err(), tc.err) {
			t.Errorf("%s: Count = %d, err %v; want %d, %v", tc.name, got, r.Err(), tc.want, tc.err)
		}
	}
}

func TestBytesChecksPrefixAgainstRemaining(t *testing.T) {
	var w Writer
	w.U32(1 << 31) // claims 2 GiB
	w.U8(0)
	r := NewReader(w.B)
	if r.Bytes() != nil || !errors.Is(r.Err(), ErrTruncated) {
		t.Fatalf("oversized prefix: err %v", r.Err())
	}
}

// TestDoneRejectsTrailingBytes pins rule three.
func TestDoneRejectsTrailingBytes(t *testing.T) {
	r := NewReader([]byte{1, 2})
	r.U8()
	if err := r.Done(); !errors.Is(err, ErrTrailing) {
		t.Fatalf("Done = %v, want ErrTrailing", err)
	}
}

func TestCRC(t *testing.T) {
	prefix := []byte("untouched")
	buf := SealCRC(append(bytes.Clone(prefix), "body"...), len(prefix))
	frame := buf[len(prefix):]
	body, err := OpenCRC(frame, 4)
	if err != nil || string(body) != "body" {
		t.Fatalf("OpenCRC = %q, %v", body, err)
	}
	if _, err := OpenCRC(frame, 5); !errors.Is(err, ErrTruncated) {
		t.Fatalf("below the length floor: %v", err)
	}
	if _, err := OpenCRC(frame[:3], 0); !errors.Is(err, ErrTruncated) {
		t.Fatalf("shorter than a trailer: %v", err)
	}
	for i := range frame {
		bad := bytes.Clone(frame)
		bad[i] ^= 0x10
		if _, err := OpenCRC(bad, 4); !errors.Is(err, ErrChecksum) {
			t.Fatalf("flip in byte %d: %v", i, err)
		}
	}
}
