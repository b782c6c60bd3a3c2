// Package binfmt is the one place the repo decides how a little-endian,
// length-prefixed blob is read safely. Every state and control format —
// the handoff blobs (ODSB, ODVE, ODES, ODKM, ODDM), the
// detector and pipeline snapshots (ODDB, ODPS, ODSV) and the cluster
// frames (ODRP) — decodes through Reader and encodes through
// Writer; the ODWP wire codec shares the CRC trailer helpers. These
// decoders are the system's input surface (snapshots and frames arrive
// from peers and from disk), so the cursor enforces three rules:
//
//   - Sticky error. The first failed read poisons the Reader: it and
//     every later read return zero values, so a decoder is straight-line
//     reads followed by one Done (or Err) check instead of an ok-ladder.
//   - Checked counts. Count admits an element count only if it is within
//     the caller's own capacity and count × element size fits in the bytes
//     that remain, so nothing is ever sized by a number the input merely
//     claims. Bytes applies the same check to its length prefix.
//   - No trailing bytes. Done fails unless the input was consumed exactly.
//
// Zero values returned after a failure are safe to compute with but not
// to trust: a decoder that validates decoded values, or allocates inside
// a loop, checks Err first.
package binfmt

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
)

var (
	// ErrTruncated reports a read, length prefix, or count that needs more
	// bytes than remain.
	ErrTruncated = errors.New("binfmt: truncated input")
	// ErrCount reports an element count above the caller's capacity.
	ErrCount = errors.New("binfmt: count exceeds capacity")
	// ErrTrailing reports input left over after the last field.
	ErrTrailing = errors.New("binfmt: trailing bytes")
	// ErrChecksum reports a CRC-32 trailer that does not match its body.
	ErrChecksum = errors.New("binfmt: checksum mismatch")
)

// Reader is a bounds-checked little-endian cursor with a sticky error.
// It is a small value type: declare one per decode, on the stack.
type Reader struct {
	data []byte
	err  error
}

// NewReader returns a cursor over data. Slices returned by Bytes and Rest
// alias data.
func NewReader(data []byte) Reader { return Reader{data: data} }

// Fail poisons the reader with err unless an earlier error is already
// recorded. Decoders use it to stop on a validation failure with the
// same straight-line shape as a truncation.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.data = nil
}

// take consumes n bytes; after any failure the remaining input is empty,
// so the length test alone keeps later reads failing.
func (r *Reader) take(n int) []byte {
	if n < 0 || len(r.data) < n {
		r.Fail(ErrTruncated)
		return nil
	}
	v := r.data[:n:n]
	r.data = r.data[n:]
	return v
}

func (r *Reader) U8() byte {
	if len(r.data) < 1 {
		r.Fail(ErrTruncated)
		return 0
	}
	v := r.data[0]
	r.data = r.data[1:]
	return v
}

func (r *Reader) U16() uint16 {
	if len(r.data) < 2 {
		r.Fail(ErrTruncated)
		return 0
	}
	v := binary.LittleEndian.Uint16(r.data)
	r.data = r.data[2:]
	return v
}

func (r *Reader) U32() uint32 {
	if len(r.data) < 4 {
		r.Fail(ErrTruncated)
		return 0
	}
	v := binary.LittleEndian.Uint32(r.data)
	r.data = r.data[4:]
	return v
}

func (r *Reader) U64() uint64 {
	if len(r.data) < 8 {
		r.Fail(ErrTruncated)
		return 0
	}
	v := binary.LittleEndian.Uint64(r.data)
	r.data = r.data[8:]
	return v
}

func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// F64s fills dst with len(dst) consecutive float64s, or fails without
// consuming anything when fewer remain.
func (r *Reader) F64s(dst []float64) {
	src := r.take(8 * len(dst))
	if src == nil {
		return
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
	}
}

// Count reads a u32 element count that the caller is about to size an
// allocation or a loop by. It fails unless count <= max (the caller's own
// capacity, from its configuration or the format's plausibility bound)
// and count × elemSize bytes remain (elemSize is the smallest encoding of
// one element). A failed Count returns 0.
func (r *Reader) Count(elemSize, max int) int {
	n := uint64(r.U32())
	switch {
	case r.err != nil:
		return 0
	case n > uint64(max):
		r.Fail(ErrCount)
		return 0
	case n*uint64(elemSize) > uint64(len(r.data)):
		r.Fail(ErrTruncated)
		return 0
	}
	return int(n)
}

// Bytes reads a u32 length prefix and returns that many bytes (aliasing
// the input); take checks the prefix against the bytes that remain (and
// rejects one that goes negative where int is 32 bits).
func (r *Reader) Bytes() []byte { return r.take(int(r.U32())) }

// Rest consumes and returns everything that remains.
func (r *Reader) Rest() []byte { return r.take(len(r.data)) }

// Len reports the bytes remaining (0 after a failure).
func (r *Reader) Len() int { return len(r.data) }

// Err reports the sticky error, nil while every read so far succeeded.
func (r *Reader) Err() error { return r.err }

// Done ends a decode: the first recorded error, else ErrTrailing when
// input remains, else nil.
func (r *Reader) Done() error {
	if r.err == nil && len(r.data) != 0 {
		r.err = ErrTrailing
	}
	return r.err
}

// Writer is the append-side twin of Reader: a byte slice with typed
// little-endian appends. The zero value is ready; wrap an existing buffer
// with Writer{B: dst} to append to it.
type Writer struct{ B []byte }

func (w *Writer) U8(v byte)     { w.B = append(w.B, v) }
func (w *Writer) U16(v uint16)  { w.B = binary.LittleEndian.AppendUint16(w.B, v) }
func (w *Writer) U32(v uint32)  { w.B = binary.LittleEndian.AppendUint32(w.B, v) }
func (w *Writer) U64(v uint64)  { w.B = binary.LittleEndian.AppendUint64(w.B, v) }
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// Bool appends 1 or 0.
func (w *Writer) Bool(v bool) {
	if v {
		w.B = append(w.B, 1)
	} else {
		w.B = append(w.B, 0)
	}
}

// F64s appends the values back to back, with no count.
func (w *Writer) F64s(xs []float64) {
	for _, x := range xs {
		w.F64(x)
	}
}

// Bytes appends a u32 length prefix and b — the inverse of Reader.Bytes.
func (w *Writer) Bytes(b []byte) {
	w.U32(uint32(len(b)))
	w.B = append(w.B, b...)
}

// Str is Bytes for a string.
func (w *Writer) Str(s string) {
	w.U32(uint32(len(s)))
	w.B = append(w.B, s...)
}

// SealCRC appends the CRC-32 (IEEE) of buf[start:], the trailer every
// framed format ends with.
func SealCRC(buf []byte, start int) []byte {
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[start:]))
}

// OpenCRC verifies a SealCRC trailer and returns the body before it.
// minBody is the format's length floor: a frame too short to hold that
// many body bytes plus the trailer is ErrTruncated, a trailer mismatch
// ErrChecksum.
func OpenCRC(frame []byte, minBody int) ([]byte, error) {
	if len(frame) < minBody+4 {
		return nil, ErrTruncated
	}
	body, tail := frame[:len(frame)-4], frame[len(frame)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(tail) {
		return nil, ErrChecksum
	}
	return body, nil
}
