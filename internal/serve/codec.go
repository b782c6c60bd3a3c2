package serve

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"strconv"
	"sync"

	"odds/internal/binfmt"
)

// ODWP — the odds binary wire protocol. JSON is the default encoding on
// every endpoint, but at serving rates the codec dominates the budget:
// the shard pipeline costs ~1.2 µs/reading while JSON encode/decode of a
// batch costs several times that. A client opts into ODWP by POSTing
// /ingest with Content-Type: application/x-odds-batch; the response
// comes back in the same encoding. Subscription streams negotiate the
// frame flavor with ?format=binary (see subscribe.go).
//
// Framing follows the snapshot idioms ("ODPS"/"ODSV" in snapshot.go):
// little-endian, a magic + version prefix, the server's configuration
// fingerprint so a frame built against a differently-configured server
// fails closed, and a trailing CRC-32 over everything before it.
//
// Batch request frame ("ODWB"):
//
//	u32  magic 0x4f445742
//	u8   version (1)
//	u8   reserved (must be 0)
//	u16  dim           — must equal the server's Core.Dim
//	u32  count         — number of readings; bounded by Config.MaxBatch
//	u64  fingerprint   — wireFingerprint: FNV-64a of the canonical config
//	                     JSON (learned from /stats)
//	count × { u16 sensorLen | sensor bytes | dim × f64 value }
//	u32  crc32-IEEE over all preceding bytes
//
// Batch response frame ("ODWR"):
//
//	u32  magic 0x4f445752
//	u8   version (1)
//	u8   flags         — bit0: at least one sub-batch was rejected
//	u16  reserved (0)
//	u32  count
//	u32  rejected
//	u32  retryAfterMS
//	count × { u8 flags (1 accepted | 2 outlier | 4 exact | 8 warmed) | u16 shard | u64 seq }
//	u32  crc32-IEEE over all preceding bytes
//
// The encoding is canonical: a frame that decodes successfully re-encodes
// to the identical bytes (reserved fields are enforced zero, values must
// be finite), which is the round-trip property FuzzDecodeBatch pins.
const (
	wireBatchMagic  = uint32(0x4f445742) // "ODWB"
	wireRespMagic   = uint32(0x4f445752) // "ODWR"
	wireStreamMagic = uint32(0x4f445753) // "ODWS"
	wireVersion     = byte(1)

	wireBatchHeaderLen  = 20
	wireRespHeaderLen   = 20
	wireResultLen       = 11
	wireStreamHeaderLen = 8

	// maxSensorLen bounds sensor-id bytes in a binary frame and in what
	// the JSON scanner takes; a longer id in a JSON body is encoding/json's
	// to decode, bounded by MaxBodyBytes alone.
	maxSensorLen = 255
)

// ContentTypeBinary selects the ODWP batch encoding on POST /ingest.
const ContentTypeBinary = "application/x-odds-batch"

// ContentTypeStream is the binary subscription stream encoding.
const ContentTypeStream = "application/x-odds-stream"

// Decode failures. Every one of them must map to a 4xx at the HTTP
// layer — a malformed frame can never reach a shard.
var (
	errFrameTruncated   = errors.New("serve: wire: truncated frame")
	errFrameMagic       = errors.New("serve: wire: bad magic")
	errFrameVersion     = errors.New("serve: wire: unsupported version")
	errFrameReserved    = errors.New("serve: wire: nonzero reserved field")
	errFrameCRC         = errors.New("serve: wire: checksum mismatch")
	errFrameDim         = errors.New("serve: wire: dimension mismatch")
	errFrameFingerprint = errors.New("serve: wire: configuration fingerprint mismatch")
	errFrameSensor      = errors.New("serve: wire: bad sensor id")
	errFrameValue       = errors.New("serve: wire: non-finite value")
	errFrameTrailing    = errors.New("serve: wire: trailing bytes")
	errBatchTooLarge    = errors.New("serve: wire: batch exceeds limit")
)

// wireFingerprint compresses the snapshot configuration fingerprint — the
// JSON of the shard count and the canonical config — into the u64 every
// binary frame carries: its FNV-64a hash. Clients learn it from /stats
// (StatsResponse.WireFingerprint); the server refuses frames built
// against a different configuration, exactly as snapshot restore refuses
// a mismatched file.
func wireFingerprint(shards int, cfg PipelineConfig) uint64 {
	h := fnv.New64a()
	h.Write(fingerprint(shards, cfg))
	return h.Sum64()
}

// openFrame checks the envelope every CRC-framed format here shares
// (ODWB, ODWR, ODSH, ODRP): a length floor of headerLen plus the trailer,
// the CRC-32 trailer itself, the magic, and the format's version byte. It returns
// the body — header included, trailer stripped — for the format's own
// decoder; the ODWP batch and response decoders keep fixed-offset reads
// over it because they are the zero-allocation ingest hot path.
func openFrame(data []byte, magic uint32, version byte, headerLen int) ([]byte, error) {
	body, err := binfmt.OpenCRC(data, headerLen)
	switch {
	case err == binfmt.ErrChecksum:
		return nil, errFrameCRC
	case err != nil:
		return nil, errFrameTruncated
	case binary.LittleEndian.Uint32(body) != magic:
		return nil, errFrameMagic
	case body[4] != version:
		return nil, fmt.Errorf("%w: %d", errFrameVersion, body[4])
	}
	return body, nil
}

// AppendBatch encodes readings as an ODWB frame appended to dst (the
// frame starts at len(dst); the CRC covers only the appended bytes).
// This is the client half: oddload and the benchmarks reuse dst across
// batches so steady-state encoding allocates nothing.
func AppendBatch(dst []byte, readings []Reading, dim int, fp uint64) []byte {
	start := len(dst)
	dst = binary.LittleEndian.AppendUint32(dst, wireBatchMagic)
	dst = append(dst, wireVersion, 0)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(dim))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(readings)))
	dst = binary.LittleEndian.AppendUint64(dst, fp)
	for i := range readings {
		rd := &readings[i]
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(rd.Sensor)))
		dst = append(dst, rd.Sensor...)
		for _, x := range rd.Value {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(x))
		}
	}
	return binfmt.SealCRC(dst, start)
}

// DecodeBatchInto decodes an ODWB frame into dst, reusing dst's backing
// array and each element's Value capacity, and interning sensor ids so
// the steady-state decode of a known sensor set performs zero
// allocations. It fails closed on any framing violation.
func DecodeBatchInto(data []byte, dst []Reading, dim, maxBatch int, fp uint64, names *Interner) ([]Reading, error) {
	body, err := openFrame(data, wireBatchMagic, wireVersion, wireBatchHeaderLen)
	if err != nil {
		return nil, err
	}
	if body[5] != 0 {
		return nil, errFrameReserved
	}
	if d := int(binary.LittleEndian.Uint16(body[6:])); d != dim {
		return nil, fmt.Errorf("%w: frame dim %d, server dim %d", errFrameDim, d, dim)
	}
	count := int(binary.LittleEndian.Uint32(body[8:]))
	if count > maxBatch {
		return nil, fmt.Errorf("%w: %d readings, max %d", errBatchTooLarge, count, maxBatch)
	}
	if got := binary.LittleEndian.Uint64(body[12:]); got != fp {
		return nil, errFrameFingerprint
	}

	// Grow dst preserving the Value capacity of recycled elements.
	if cap(dst) < count {
		nd := make([]Reading, count)
		copy(nd, dst[:cap(dst)])
		dst = nd
	} else {
		dst = dst[:count]
	}

	off := wireBatchHeaderLen
	for k := 0; k < count; k++ {
		if off+2 > len(body) {
			return nil, errFrameTruncated
		}
		sl := int(binary.LittleEndian.Uint16(body[off:]))
		off += 2
		if sl == 0 || sl > maxSensorLen {
			return nil, errFrameSensor
		}
		if off+sl+8*dim > len(body) {
			return nil, errFrameTruncated
		}
		dst[k].Sensor = names.intern(body[off : off+sl])
		off += sl
		v := dst[k].Value
		if cap(v) < dim {
			v = make([]float64, dim)
		} else {
			v = v[:dim]
		}
		for j := 0; j < dim; j++ {
			x := math.Float64frombits(binary.LittleEndian.Uint64(body[off:]))
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return nil, errFrameValue
			}
			v[j] = x
			off += 8
		}
		dst[k].Value = v
	}
	if off != len(body) {
		return nil, errFrameTrailing
	}
	return dst, nil
}

// JSON ingest mirrors the binary path: the canonical body — what
// json.Marshal of an IngestRequest produces, in either key order and with
// any JSON whitespace — is decoded by a strict scanner into pooled
// scratch, and the reply is appended byte-for-byte as json.Encoder would
// write it. Anything else the scanner declines to encoding/json, so every
// odd-but-valid body and every error text stay encoding/json's.

// DecodeIngestJSON decodes a JSON /ingest body into dst, reusing dst's
// backing array and each element's Value capacity and interning sensor
// ids, so the steady-state decode of a canonical body allocates nothing.
// Every returned element is overwritten whole: nothing a pooled dst held
// before survives into the batch. A body of more than maxBatch readings
// fails with errBatchTooLarge without being parsed to the end.
func DecodeIngestJSON(body []byte, dst []Reading, maxBatch int, names *Interner) ([]Reading, error) {
	s := jsonScan{b: body}
	if out, ok := s.readings(dst[:cap(dst)], maxBatch, names); ok {
		if len(out) > maxBatch {
			return nil, fmt.Errorf("%w: more than %d readings", errBatchTooLarge, maxBatch)
		}
		return out, nil
	}
	var req IngestRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, err
	}
	if len(req.Readings) > maxBatch {
		return nil, fmt.Errorf("%w: %d readings, max %d", errBatchTooLarge, len(req.Readings), maxBatch)
	}
	return append(dst[:0], req.Readings...), nil
}

// jsonScan is a cursor over a JSON /ingest body. Its methods report false
// wherever the body leaves the canonical grammar; they never report an
// error of their own.
type jsonScan struct {
	b []byte
	i int
}

// peek returns the byte at the cursor, 0 at the end of the body.
func (s *jsonScan) peek() byte {
	if s.i < len(s.b) {
		return s.b[s.i]
	}
	return 0
}

// ws skips JSON whitespace.
func (s *jsonScan) ws() {
	for c := s.peek(); c == ' ' || c == '\t' || c == '\r' || c == '\n'; c = s.peek() {
		s.i++
	}
}

// eat skips JSON whitespace and consumes lit if it is next.
func (s *jsonScan) eat(lit string) bool {
	s.ws()
	if len(s.b)-s.i < len(lit) || string(s.b[s.i:s.i+len(lit)]) != lit {
		return false
	}
	s.i += len(lit)
	return true
}

// readings scans {"readings":[{"sensor":S,"value":[N…]}…]} into dst (at
// full capacity). It stops, returning maxBatch+1 elements, at the first
// reading past the cap.
func (s *jsonScan) readings(dst []Reading, maxBatch int, names *Interner) ([]Reading, bool) {
	if !(s.eat(`{`) && s.eat(`"readings"`) && s.eat(`:`) && s.eat(`[`)) {
		return nil, false
	}
	for n := 0; ; {
		if !s.eat(`{`) {
			return nil, false
		}
		if n == len(dst) {
			dst = append(dst, Reading{})
			dst = dst[:cap(dst)]
		}
		if n == maxBatch {
			return dst[:n+1], true
		}
		rd, ok := &dst[n], false
		if s.eat(`"sensor"`) {
			ok = s.sensor(rd, names) && s.eat(`,`) && s.eat(`"value"`) && s.value(rd)
		} else {
			ok = s.eat(`"value"`) && s.value(rd) && s.eat(`,`) && s.eat(`"sensor"`) && s.sensor(rd, names)
		}
		if !ok || !s.eat(`}`) {
			return nil, false
		}
		n++
		if s.eat(`]`) {
			ok = s.eat(`}`)
			s.ws()
			return dst[:n], ok && s.i == len(s.b)
		}
		if !s.eat(`,`) {
			return nil, false
		}
	}
}

// sensor scans :"id" — escape-free ASCII, at most maxSensorLen bytes.
func (s *jsonScan) sensor(rd *Reading, names *Interner) bool {
	if !s.eat(`:`) || !s.eat(`"`) {
		return false
	}
	for start := s.i; s.i-start <= maxSensorLen; s.i++ {
		switch c := s.peek(); {
		case c == '"':
			rd.Sensor = names.intern(s.b[start:s.i])
			s.i++
			return true
		case c < 0x20 || c >= 0x80 || c == '\\':
			return false
		}
	}
	return false
}

// value scans :[N,…] — one or more strict JSON numbers, each converted
// as encoding/json converts it.
func (s *jsonScan) value(rd *Reading) bool {
	if !s.eat(`:`) || !s.eat(`[`) {
		return false
	}
	v := rd.Value[:0]
	for {
		s.ws()
		start := s.i
		if !s.number() {
			return false
		}
		// The conversion stays on the stack for literals up to 32 bytes.
		x, err := strconv.ParseFloat(string(s.b[start:s.i]), 64)
		if err != nil {
			return false
		}
		v = append(v, x)
		if s.eat(`]`) {
			rd.Value = v
			return true
		}
		if !s.eat(`,`) {
			return false
		}
	}
}

// number advances over -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?.
func (s *jsonScan) number() bool {
	if s.peek() == '-' {
		s.i++
	}
	if s.peek() == '0' {
		s.i++
	} else if !s.digits() {
		return false
	}
	if s.peek() == '.' {
		s.i++
		if !s.digits() {
			return false
		}
	}
	if c := s.peek(); c == 'e' || c == 'E' {
		s.i++
		if c := s.peek(); c == '+' || c == '-' {
			s.i++
		}
		return s.digits()
	}
	return true
}

// digits advances over [0-9]+.
func (s *jsonScan) digits() bool {
	start := s.i
	for c := s.peek(); c >= '0' && c <= '9'; c = s.peek() {
		s.i++
	}
	return s.i > start
}

// AppendIngestJSON appends an ingest reply as json.Encoder writes an
// IngestResponse, trailing newline included.
func AppendIngestJSON(dst []byte, results []ReadingResult, rejected int, retryMS int64) []byte {
	dst = append(dst, `{"results":[`...)
	for i := range results {
		r := &results[i]
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"shard":`...)
		dst = strconv.AppendInt(dst, int64(r.Shard), 10)
		dst = append(dst, `,"accepted":`...)
		dst = strconv.AppendBool(dst, r.Accepted)
		if r.Seq != 0 {
			dst = append(dst, `,"seq":`...)
			dst = strconv.AppendUint(dst, r.Seq, 10)
		}
		dst = appendVerdictJSON(dst, r.Outlier, r.Exact, r.Warmed)
	}
	dst = append(dst, `],"rejected":`...)
	dst = strconv.AppendInt(dst, int64(rejected), 10)
	if retryMS != 0 {
		dst = append(dst, `,"retry_after_ms":`...)
		dst = strconv.AppendInt(dst, retryMS, 10)
	}
	return append(dst, "}\n"...)
}

// appendVerdictJSON closes a result or query object with its three flags.
func appendVerdictJSON(dst []byte, outlier, exact, warmed bool) []byte {
	dst = append(dst, `,"outlier":`...)
	dst = strconv.AppendBool(dst, outlier)
	dst = append(dst, `,"exact":`...)
	dst = strconv.AppendBool(dst, exact)
	dst = append(dst, `,"warmed":`...)
	dst = strconv.AppendBool(dst, warmed)
	return append(dst, '}')
}

// appendQueryJSON appends a /query/outlier reply as json.Encoder writes it.
func appendQueryJSON(dst []byte, q QueryResponse) []byte {
	dst = append(dst, `{"shard":`...)
	dst = strconv.AppendInt(dst, int64(q.Shard), 10)
	dst = append(dst, `,"seq":`...)
	dst = strconv.AppendUint(dst, q.Seq, 10)
	return append(appendVerdictJSON(dst, q.Outlier, q.Exact, q.Warmed), '\n')
}

// appendProbJSON appends a /query/prob reply as json.Encoder writes it;
// p.Prob must be finite.
func appendProbJSON(dst []byte, p ProbResponse) []byte {
	dst = append(dst, `{"shard":`...)
	dst = strconv.AppendInt(dst, int64(p.Shard), 10)
	dst = append(dst, `,"prob":`...)
	return append(appendJSONFloat(dst, p.Prob), "}\n"...)
}

// appendJSONFloat appends a finite f in encoding/json's float64 format:
// the shortest digits that round-trip, exponent form below 1e-6 and from
// 1e21, a one-digit negative exponent written without its leading zero.
func appendJSONFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}

// Result flag bits in ODWR frames and verdict stream frames.
const (
	wireFlagAccepted = 1 << iota
	wireFlagOutlier
	wireFlagExact
	wireFlagWarmed
)

// AppendResults encodes an ingest reply as an ODWR frame appended to dst.
func AppendResults(dst []byte, results []ReadingResult, rejected int, retryMS int64) []byte {
	start := len(dst)
	dst = binary.LittleEndian.AppendUint32(dst, wireRespMagic)
	var flags byte
	if rejected > 0 {
		flags = 1
	}
	dst = append(dst, wireVersion, flags)
	dst = binary.LittleEndian.AppendUint16(dst, 0)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(results)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(rejected))
	if retryMS < 0 {
		retryMS = 0
	}
	if retryMS > math.MaxUint32 {
		retryMS = math.MaxUint32
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(retryMS))
	for i := range results {
		r := &results[i]
		var f byte
		if r.Accepted {
			f |= wireFlagAccepted
		}
		if r.Outlier {
			f |= wireFlagOutlier
		}
		if r.Exact {
			f |= wireFlagExact
		}
		if r.Warmed {
			f |= wireFlagWarmed
		}
		dst = append(dst, f)
		dst = binary.LittleEndian.AppendUint16(dst, uint16(r.Shard))
		dst = binary.LittleEndian.AppendUint64(dst, r.Seq)
	}
	return binfmt.SealCRC(dst, start)
}

// DecodeResultsInto decodes an ODWR frame into dst (reusing its backing
// array), returning the results, the rejected count, and the retry hint.
func DecodeResultsInto(data []byte, dst []ReadingResult) ([]ReadingResult, int, int64, error) {
	fail := func(err error) ([]ReadingResult, int, int64, error) { return nil, 0, 0, err }
	body, err := openFrame(data, wireRespMagic, wireVersion, wireRespHeaderLen)
	if err != nil {
		return fail(err)
	}
	if binary.LittleEndian.Uint16(body[6:]) != 0 {
		return fail(errFrameReserved)
	}
	count := int(binary.LittleEndian.Uint32(body[8:]))
	rejected := int(binary.LittleEndian.Uint32(body[12:]))
	retryMS := int64(binary.LittleEndian.Uint32(body[16:]))
	if (body[5]&1 == 0) != (rejected == 0) {
		return fail(errFrameReserved)
	}
	if len(body) != wireRespHeaderLen+count*wireResultLen {
		return fail(errFrameTruncated)
	}
	if cap(dst) < count {
		dst = make([]ReadingResult, count)
	} else {
		dst = dst[:count]
	}
	off := wireRespHeaderLen
	for k := 0; k < count; k++ {
		f := body[off]
		if f&^byte(wireFlagAccepted|wireFlagOutlier|wireFlagExact|wireFlagWarmed) != 0 {
			return fail(errFrameReserved)
		}
		dst[k] = ReadingResult{
			Shard:    int(binary.LittleEndian.Uint16(body[off+1:])),
			Accepted: f&wireFlagAccepted != 0,
			Seq:      binary.LittleEndian.Uint64(body[off+3:]),
			Outlier:  f&wireFlagOutlier != 0,
			Exact:    f&wireFlagExact != 0,
			Warmed:   f&wireFlagWarmed != 0,
		}
		off += wireResultLen
	}
	return dst, rejected, retryMS, nil
}

// Subscription stream framing ("ODWS"). A binary stream opens with one
// 8-byte header, then carries self-delimiting frames:
//
//	u32 frameLen — bytes that follow this field (payload + crc)
//	payload: u8 type | type-specific body
//	u32 crc32-IEEE over the payload
//
// Frame types: verdict (u8 flags | u16 shard | u64 seq | u16 sensorLen |
// sensor bytes) and gap (u64 dropped — the number of verdicts the
// subscriber's ring dropped oldest-first while the client lagged).
const (
	StreamFrameVerdict = byte(1)
	StreamFrameGap     = byte(2)
)

func AppendStreamHeader(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, wireStreamMagic)
	dst = append(dst, wireVersion, 0)
	return binary.LittleEndian.AppendUint16(dst, 0)
}

// appendFrame wraps payload-producing code with the length prefix and
// trailing CRC: fill appends the payload to dst and returns it.
func appendFrame(dst []byte, fill func([]byte) []byte) []byte {
	lenAt := len(dst)
	dst = binary.LittleEndian.AppendUint32(dst, 0) // patched below
	payloadAt := len(dst)
	dst = binfmt.SealCRC(fill(dst), payloadAt)
	binary.LittleEndian.PutUint32(dst[lenAt:], uint32(len(dst)-payloadAt))
	return dst
}

func AppendVerdictFrame(dst []byte, ev Event) []byte {
	return appendFrame(dst, func(b []byte) []byte {
		var f byte = wireFlagAccepted
		if ev.Outlier {
			f |= wireFlagOutlier
		}
		if ev.Exact {
			f |= wireFlagExact
		}
		if ev.Warmed {
			f |= wireFlagWarmed
		}
		b = append(b, StreamFrameVerdict, f)
		b = binary.LittleEndian.AppendUint16(b, uint16(ev.Shard))
		b = binary.LittleEndian.AppendUint64(b, ev.Seq)
		b = binary.LittleEndian.AppendUint16(b, uint16(len(ev.Sensor)))
		return append(b, ev.Sensor...)
	})
}

func AppendGapFrame(dst []byte, dropped uint64) []byte {
	return appendFrame(dst, func(b []byte) []byte {
		b = append(b, StreamFrameGap)
		return binary.LittleEndian.AppendUint64(b, dropped)
	})
}

// maxStreamFrame bounds one stream frame on the reading side; verdict
// frames are tiny, so anything larger is a corrupt length prefix.
const maxStreamFrame = 4096

// StreamReader is the client half of a binary subscription stream
// (oddload and the tests). Next blocks until a frame arrives, the stream
// ends (io.EOF), or framing is violated.
type StreamReader struct {
	r         io.Reader
	buf       []byte
	gotHeader bool
}

func NewStreamReader(r io.Reader) *StreamReader {
	return &StreamReader{r: r}
}

// Next returns the next frame: a verdict event, or a gap count when
// kind == StreamFrameGap.
func (sr *StreamReader) Next() (ev Event, gap uint64, kind byte, err error) {
	fail := func(err error) (Event, uint64, byte, error) { return Event{}, 0, 0, err }
	if !sr.gotHeader {
		var hdr [wireStreamHeaderLen]byte
		if _, err := io.ReadFull(sr.r, hdr[:]); err != nil {
			return fail(err)
		}
		if binary.LittleEndian.Uint32(hdr[:]) != wireStreamMagic {
			return fail(errFrameMagic)
		}
		if hdr[4] != wireVersion {
			return fail(fmt.Errorf("%w: %d", errFrameVersion, hdr[4]))
		}
		if hdr[5] != 0 || binary.LittleEndian.Uint16(hdr[6:]) != 0 {
			return fail(errFrameReserved)
		}
		sr.gotHeader = true
	}
	var lenBuf [4]byte
	if _, err := io.ReadFull(sr.r, lenBuf[:]); err != nil {
		return fail(err)
	}
	n := int(binary.LittleEndian.Uint32(lenBuf[:]))
	if n < 5 || n > maxStreamFrame {
		return fail(errFrameTruncated)
	}
	if cap(sr.buf) < n {
		sr.buf = make([]byte, n)
	}
	frame := sr.buf[:n]
	if _, err := io.ReadFull(sr.r, frame); err != nil {
		return fail(err)
	}
	payload, err := binfmt.OpenCRC(frame, 1)
	if err != nil {
		return fail(errFrameCRC)
	}
	switch payload[0] {
	case StreamFrameVerdict:
		if len(payload) < 14 {
			return fail(errFrameTruncated)
		}
		f := payload[1]
		sl := int(binary.LittleEndian.Uint16(payload[12:]))
		if len(payload) != 14+sl {
			return fail(errFrameTruncated)
		}
		ev = Event{
			Sensor:  string(payload[14:]),
			Shard:   int(binary.LittleEndian.Uint16(payload[2:])),
			Seq:     binary.LittleEndian.Uint64(payload[4:]),
			Outlier: f&wireFlagOutlier != 0,
			Exact:   f&wireFlagExact != 0,
			Warmed:  f&wireFlagWarmed != 0,
		}
		return ev, 0, StreamFrameVerdict, nil
	case StreamFrameGap:
		if len(payload) != 9 {
			return fail(errFrameTruncated)
		}
		return Event{}, binary.LittleEndian.Uint64(payload[1:]), StreamFrameGap, nil
	default:
		return fail(fmt.Errorf("serve: wire: unknown stream frame type %d", payload[0]))
	}
}

// Interner deduplicates sensor-id strings so the binary decode path does
// not allocate a fresh string per reading. Sensor fleets are finite; the
// map is bounded, and an overflowing fleet degrades to plain allocation
// rather than unbounded memory growth.
type Interner struct {
	mu sync.RWMutex
	m  map[string]string
}

// maxInterned bounds the Interner; beyond it, new names are allocated
// per frame (correct, just slower) instead of being remembered.
const maxInterned = 1 << 16

func (in *Interner) intern(b []byte) string {
	in.mu.RLock()
	s, ok := in.m[string(b)] // compiler elides the []byte→string copy on lookup
	in.mu.RUnlock()
	if ok {
		return s
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if s, ok = in.m[string(b)]; ok {
		return s
	}
	if in.m == nil {
		in.m = make(map[string]string)
	}
	if len(in.m) >= maxInterned {
		return string(b)
	}
	s = string(b)
	in.m[s] = s
	return s
}
