package serve

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"testing"
	"unsafe"
)

func testBatch(dim int) []Reading {
	rs := make([]Reading, 5)
	for i := range rs {
		rs[i].Sensor = string(rune('a' + i))
		rs[i].Value = make([]float64, dim)
		for j := range rs[i].Value {
			rs[i].Value[j] = float64(i)*10 + float64(j) + 0.5
		}
	}
	return rs
}

func TestBatchRoundTrip(t *testing.T) {
	const dim = 3
	const fp = uint64(0xdeadbeefcafe)
	readings := testBatch(dim)
	frame := AppendBatch(nil, readings, dim, fp)

	var names Interner
	got, err := DecodeBatchInto(frame, nil, dim, 100, fp, &names)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(readings) {
		t.Fatalf("decoded %d readings, want %d", len(got), len(readings))
	}
	for i := range readings {
		if got[i].Sensor != readings[i].Sensor {
			t.Fatalf("reading %d sensor %q, want %q", i, got[i].Sensor, readings[i].Sensor)
		}
		for j := range readings[i].Value {
			if got[i].Value[j] != readings[i].Value[j] {
				t.Fatalf("reading %d value[%d] = %v, want %v", i, j, got[i].Value[j], readings[i].Value[j])
			}
		}
	}

	// Canonical encoding: a decoded frame re-encodes bit-identical.
	re := AppendBatch(nil, got, dim, fp)
	if !bytes.Equal(re, frame) {
		t.Fatal("re-encoded frame differs from original")
	}

	// Buffer reuse: a second decode into the same dst must not allocate
	// fresh Value arrays.
	v0 := &got[0].Value[0]
	got2, err := DecodeBatchInto(frame, got, dim, 100, fp, &names)
	if err != nil {
		t.Fatal(err)
	}
	if &got2[0].Value[0] != v0 {
		t.Fatal("decode did not reuse the Value backing array")
	}
}

// TestResultsRoundTrip: an ODWR frame carries every result field but the
// retired exact bit, which the encoder never writes (flag bit 4 is
// reserved-zero), so a result claiming Exact decodes without it.
func TestResultsRoundTrip(t *testing.T) {
	results := []ReadingResult{
		{Shard: 0, Accepted: true, Seq: 41, Outlier: true, Exact: true, Warmed: true},
		{Shard: 3, Accepted: false},
		{Shard: 1, Accepted: true, Seq: 7, Warmed: true},
	}
	frame := AppendResults(nil, results, 1, 250)
	got, rejected, retryMS, err := DecodeResultsInto(frame, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rejected != 1 || retryMS != 250 {
		t.Fatalf("rejected=%d retryMS=%d, want 1, 250", rejected, retryMS)
	}
	if len(got) != len(results) {
		t.Fatalf("decoded %d results, want %d", len(got), len(results))
	}
	for i := range results {
		want := results[i]
		want.Exact = false
		if got[i] != want {
			t.Fatalf("result %d = %+v, want %+v", i, got[i], want)
		}
	}
	re := AppendResults(nil, got, rejected, retryMS)
	if !bytes.Equal(re, frame) {
		t.Fatal("re-encoded response differs from original")
	}
}

// corrupt returns frame with one mutation applied, re-stamping the
// trailing CRC so the corruption is reached (unless the CRC itself is the
// target).
func corrupt(frame []byte, mutate func([]byte), fixCRC bool) []byte {
	out := append([]byte(nil), frame...)
	mutate(out)
	if fixCRC {
		binary.LittleEndian.PutUint32(out[len(out)-4:],
			crc32.ChecksumIEEE(out[:len(out)-4]))
	}
	return out
}

func TestDecodeBatchMalformed(t *testing.T) {
	const dim = 2
	const fp = uint64(0x1234)
	frame := AppendBatch(nil, testBatch(dim), dim, fp)

	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, errFrameTruncated},
		{"truncated header", frame[:10], errFrameTruncated},
		{"truncated body", corrupt(frame[:len(frame)-12], func([]byte) {}, true), errFrameTruncated},
		{"bad magic", corrupt(frame, func(b []byte) { b[0] ^= 0xff }, true), errFrameMagic},
		{"bad version", corrupt(frame, func(b []byte) { b[4] = 99 }, true), errFrameVersion},
		{"nonzero reserved", corrupt(frame, func(b []byte) { b[5] = 1 }, true), errFrameReserved},
		{"bad crc", corrupt(frame, func(b []byte) { b[len(b)-1] ^= 0xff }, false), errFrameCRC},
		{"flipped payload bit", corrupt(frame, func(b []byte) { b[25] ^= 0x01 }, false), errFrameCRC},
		{"dim mismatch", corrupt(frame, func(b []byte) { b[6] = 7 }, true), errFrameDim},
		{"fingerprint mismatch", corrupt(frame, func(b []byte) { b[12] ^= 0xff }, true), errFrameFingerprint},
		{"oversized count", corrupt(frame, func(b []byte) {
			binary.LittleEndian.PutUint32(b[8:], 1e6)
		}, true), errBatchTooLarge},
		{"count beyond body", corrupt(frame, func(b []byte) {
			binary.LittleEndian.PutUint32(b[8:], 50)
		}, true), errFrameTruncated},
		{"zero-length sensor", corrupt(frame, func(b []byte) {
			binary.LittleEndian.PutUint16(b[wireBatchHeaderLen:], 0)
		}, true), errFrameSensor},
		{"oversized sensor", corrupt(frame, func(b []byte) {
			binary.LittleEndian.PutUint16(b[wireBatchHeaderLen:], 300)
		}, true), errFrameSensor},
		{"nan value", corrupt(frame, func(b []byte) {
			binary.LittleEndian.PutUint64(b[wireBatchHeaderLen+3:], math.Float64bits(math.NaN()))
		}, true), errFrameValue},
		{"inf value", corrupt(frame, func(b []byte) {
			binary.LittleEndian.PutUint64(b[wireBatchHeaderLen+3:], math.Float64bits(math.Inf(1)))
		}, true), errFrameValue},
		{"trailing bytes", corrupt(append(frame[:len(frame)-4], 0, 0, 0, 0, 0, 0, 0, 0),
			func([]byte) {}, true), errFrameTrailing},
	}
	var names Interner
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := DecodeBatchInto(tc.data, nil, dim, 100, fp, &names)
			if !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
		})
	}
}

func TestDecodeResultsMalformed(t *testing.T) {
	frame := AppendResults(nil, []ReadingResult{{Accepted: true, Seq: 1}}, 0, 0)
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, errFrameTruncated},
		{"bad magic", corrupt(frame, func(b []byte) { b[1] ^= 0xff }, true), errFrameMagic},
		{"bad version", corrupt(frame, func(b []byte) { b[4] = 0 }, true), errFrameVersion},
		{"bad crc", corrupt(frame, func(b []byte) { b[len(b)-2] ^= 0x10 }, false), errFrameCRC},
		{"reserved u16", corrupt(frame, func(b []byte) { b[6] = 1 }, true), errFrameReserved},
		{"rejected-flag mismatch", corrupt(frame, func(b []byte) {
			binary.LittleEndian.PutUint32(b[12:], 1) // rejected>0 but flags bit0 clear
		}, true), errFrameReserved},
		{"unknown result flags", corrupt(frame, func(b []byte) {
			b[wireRespHeaderLen] |= 0x80
		}, true), errFrameReserved},
		{"length mismatch", corrupt(frame, func(b []byte) {
			binary.LittleEndian.PutUint32(b[8:], 2)
		}, true), errFrameTruncated},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, _, err := DecodeResultsInto(tc.data, nil)
			if !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
		})
	}
}

func TestStreamFraming(t *testing.T) {
	var buf []byte
	buf = AppendStreamHeader(buf)
	ev := Event{Sensor: "s-42", Shard: 3, Seq: 99, Outlier: true, Warmed: true}
	buf = AppendVerdictFrame(buf, ev)
	buf = AppendGapFrame(buf, 17)
	buf = AppendVerdictFrame(buf, Event{Sensor: "t", Shard: 0, Seq: 1})

	sr := NewStreamReader(bytes.NewReader(buf))
	got, _, kind, err := sr.Next()
	if err != nil || kind != StreamFrameVerdict {
		t.Fatalf("frame 1: kind=%d err=%v", kind, err)
	}
	if got != ev {
		t.Fatalf("frame 1 = %+v, want %+v", got, ev)
	}
	_, gap, kind, err := sr.Next()
	if err != nil || kind != StreamFrameGap || gap != 17 {
		t.Fatalf("frame 2: kind=%d gap=%d err=%v", kind, gap, err)
	}
	got, _, kind, err = sr.Next()
	if err != nil || kind != StreamFrameVerdict || got.Sensor != "t" || got.Seq != 1 {
		t.Fatalf("frame 3: %+v kind=%d err=%v", got, kind, err)
	}
	if _, _, _, err = sr.Next(); err != io.EOF {
		t.Fatalf("end of stream: err=%v, want io.EOF", err)
	}
}

func TestStreamFramingCorrupt(t *testing.T) {
	header := AppendStreamHeader(nil)

	t.Run("bad header magic", func(t *testing.T) {
		bad := append([]byte(nil), header...)
		bad[0] ^= 0xff
		if _, _, _, err := NewStreamReader(bytes.NewReader(bad)).Next(); !errors.Is(err, errFrameMagic) {
			t.Fatalf("err = %v, want %v", err, errFrameMagic)
		}
	})
	t.Run("bad frame crc", func(t *testing.T) {
		buf := AppendVerdictFrame(append([]byte(nil), header...), Event{Sensor: "x", Seq: 2})
		buf[len(buf)-1] ^= 0xff
		sr := NewStreamReader(bytes.NewReader(buf))
		if _, _, _, err := sr.Next(); !errors.Is(err, errFrameCRC) {
			t.Fatalf("err = %v, want %v", err, errFrameCRC)
		}
	})
	t.Run("absurd length prefix", func(t *testing.T) {
		buf := append([]byte(nil), header...)
		buf = binary.LittleEndian.AppendUint32(buf, 1<<30)
		sr := NewStreamReader(bytes.NewReader(buf))
		if _, _, _, err := sr.Next(); !errors.Is(err, errFrameTruncated) {
			t.Fatalf("err = %v, want %v", err, errFrameTruncated)
		}
	})
}

func TestInternerBoundedAndStable(t *testing.T) {
	var in Interner
	a := in.intern([]byte("sensor-1"))
	b := in.intern([]byte("sensor-1"))
	if a != "sensor-1" || b != "sensor-1" {
		t.Fatalf("intern returned %q, %q", a, b)
	}
	// Same underlying string instance both times (pointer-equal data).
	if unsafe.StringData(a) != unsafe.StringData(b) {
		t.Fatal("intern did not deduplicate")
	}
}

// FuzzDecodeBatch pins two properties of the binary decoder: it never
// panics on arbitrary bytes, and the encoding is canonical — any frame
// that decodes successfully re-encodes to the identical bytes.
func FuzzDecodeBatch(f *testing.F) {
	const dim = 2
	const fp = uint64(0x0dd5)
	f.Add(AppendBatch(nil, testBatch(dim), dim, fp))
	f.Add(AppendBatch(nil, nil, dim, fp))
	f.Add(AppendBatch(nil, []Reading{{Sensor: "x", Value: []float64{1, -2}}}, dim, fp))
	f.Add([]byte{})
	f.Add([]byte("ODWB garbage"))
	f.Fuzz(func(t *testing.T, data []byte) {
		var names Interner
		readings, err := DecodeBatchInto(data, nil, dim, 1024, fp, &names)
		if err != nil {
			return
		}
		re := AppendBatch(nil, readings, dim, fp)
		if !bytes.Equal(re, data) {
			t.Fatalf("non-canonical frame: decode succeeded but re-encode differs\n in: %x\nout: %x", data, re)
		}
	})
}
