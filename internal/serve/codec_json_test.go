package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// sameReadings compares two decoded batches bit-for-bit (−0 ≠ 0), treating
// a nil and an empty slice alike.
func sameReadings(a, b []Reading) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Sensor != b[i].Sensor || len(a[i].Value) != len(b[i].Value) {
			return false
		}
		for j := range a[i].Value {
			if math.Float64bits(a[i].Value[j]) != math.Float64bits(b[i].Value[j]) {
				return false
			}
		}
	}
	return true
}

// dirtyReadings is a recycled dst as the pool hands it out: elements that
// still hold another request's sensor ids and values.
func dirtyReadings() []Reading {
	return []Reading{
		{Sensor: "stale-0", Value: []float64{9, 9, 9}},
		{Sensor: "stale-1", Value: []float64{7}},
		{Sensor: "stale-2"},
	}
}

// ingestJSONBodies are the fuzz seeds and the table of
// TestDecodeIngestJSONFastPath: fast says whether the scanner itself must
// take the body (true) or decline it to encoding/json (false).
var ingestJSONBodies = []struct {
	name string
	body string
	fast bool
}{
	{"canonical", `{"readings":[{"sensor":"a","value":[0.5]},{"sensor":"b","value":[1,-2.5e-3]}]}`, true},
	{"reordered keys", `{"readings":[{"value":[0.25],"sensor":"a"}]}`, true},
	{"whitespace", " {\n\t\"readings\" : [ { \"sensor\" : \"a\" , \"value\" : [ 1 , 2 ] } , {\"sensor\":\"b\",\"value\":[3,4]} ] }\r\n", true},
	{"negative zero", `{"readings":[{"sensor":"a","value":[-0]}]}`, true},
	{"exponents", `{"readings":[{"sensor":"a","value":[1E+2,1e-400,0.0,12345678901234567890123456789012345678]}]}`, true},
	{"empty id", `{"readings":[{"sensor":"","value":[1]}]}`, true},
	{"255-byte id", `{"readings":[{"sensor":"` + strings.Repeat("x", maxSensorLen) + `","value":[1]}]}`, true},
	{"256-byte id", `{"readings":[{"sensor":"` + strings.Repeat("x", maxSensorLen+1) + `","value":[1]}]}`, false},
	{"backslash-u escape", `{"readings":[{"sensor":"\u0061","value":[1]}]}`, false},
	{"backslash-quote escape", `{"readings":[{"sensor":"a\"b","value":[1]}]}`, false},
	{"escaped key", `{"readings":[{"\u0073ensor":"a","value":[1]}]}`, false},
	{"non-ascii id", `{"readings":[{"sensor":"é","value":[1]}]}`, false},
	{"key case", `{"Readings":[{"Sensor":"a","VALUE":[1]}]}`, false},
	{"null readings", `{"readings":null}`, false},
	{"null reading", `{"readings":[null]}`, false},
	{"null value", `{"readings":[{"sensor":"a","value":null}]}`, false},
	{"null sensor", `{"readings":[{"sensor":null,"value":[1]}]}`, false},
	{"duplicate sensor", `{"readings":[{"sensor":"a","sensor":"b","value":[1]}]}`, false},
	{"duplicate value", `{"readings":[{"sensor":"a","value":[1],"value":[2]}]}`, false},
	{"duplicate readings", `{"readings":[{"sensor":"a","value":[1]}],"readings":[]}`, false},
	{"unknown key", `{"readings":[{"sensor":"a","value":[1],"unit":"C"}]}`, false},
	{"unknown top-level key", `{"version":1,"readings":[{"sensor":"a","value":[1]}]}`, false},
	{"missing value", `{"readings":[{"sensor":"a"}]}`, false},
	{"missing sensor", `{"readings":[{"value":[1]}]}`, false},
	{"empty object", `{}`, false},
	{"empty readings", `{"readings":[]}`, false},
	{"empty value", `{"readings":[{"sensor":"a","value":[]}]}`, false},
	{"out of range", `{"readings":[{"sensor":"a","value":[1e999]}]}`, false},
	{"leading zero", `{"readings":[{"sensor":"a","value":[01]}]}`, false},
	{"bare fraction", `{"readings":[{"sensor":"a","value":[.5]}]}`, false},
	{"trailing point", `{"readings":[{"sensor":"a","value":[1.]}]}`, false},
	{"plus sign", `{"readings":[{"sensor":"a","value":[+1]}]}`, false},
	{"hex float", `{"readings":[{"sensor":"a","value":[0x1p-2]}]}`, false},
	{"infinity", `{"readings":[{"sensor":"a","value":[Inf]}]}`, false},
	{"number as string", `{"readings":[{"sensor":"a","value":["1"]}]}`, false},
	{"control byte in id", "{\"readings\":[{\"sensor\":\"a\tb\",\"value\":[1]}]}", false},
	{"trailing bytes", `{"readings":[{"sensor":"a","value":[1]}]} x`, false},
	{"second object", `{"readings":[{"sensor":"a","value":[1]}]}{}`, false},
	{"trailing comma", `{"readings":[{"sensor":"a","value":[1]},]}`, false},
	{"truncated", `{"readings":[{"sensor":"a","value":[1`, false},
	{"not json", `{not json`, false},
	{"empty body", ``, false},
}

// checkIngestJSON is the codec's contract on one body: the scanner either
// declines or returns exactly what json.Unmarshal into a zeroed request
// returns, whatever its dst held before, and DecodeIngestJSON as a whole
// answers what encoding/json answers — same readings, same error text.
func checkIngestJSON(t *testing.T, body []byte) (fast bool) {
	t.Helper()
	var want IngestRequest
	wantErr := json.Unmarshal(body, &want)

	var names Interner
	dst := dirtyReadings()
	s := jsonScan{b: body}
	got, fast := s.readings(dst[:cap(dst)], math.MaxInt, &names)
	if fast {
		if wantErr != nil {
			t.Fatalf("scanner took a body encoding/json refuses (%v): %q", wantErr, body)
		}
		if !sameReadings(got, want.Readings) {
			t.Fatalf("scanner decoded %+v, encoding/json %+v: %q", got, want.Readings, body)
		}
	}

	got, err := DecodeIngestJSON(body, dirtyReadings(), math.MaxInt, &names)
	switch {
	case (err == nil) != (wantErr == nil), err != nil && err.Error() != wantErr.Error():
		t.Fatalf("DecodeIngestJSON error %v, encoding/json %v: %q", err, wantErr, body)
	case err == nil && !sameReadings(got, want.Readings):
		t.Fatalf("DecodeIngestJSON decoded %+v, encoding/json %+v: %q", got, want.Readings, body)
	}
	return fast
}

// TestDecodeIngestJSONFastPath pins which bodies the scanner takes: every
// canonical one (or the fast path is vacuous) and nothing else (or an odd
// body stops being encoding/json's to judge).
func TestDecodeIngestJSONFastPath(t *testing.T) {
	for _, tc := range ingestJSONBodies {
		t.Run(tc.name, func(t *testing.T) {
			if fast := checkIngestJSON(t, []byte(tc.body)); fast != tc.fast {
				t.Fatalf("scanner took the body: %v, want %v", fast, tc.fast)
			}
		})
	}
	// What a client actually sends — json.Marshal of a request — is canonical.
	body, err := json.Marshal(IngestRequest{Readings: testBatch(3)})
	if err != nil {
		t.Fatal(err)
	}
	if !checkIngestJSON(t, body) {
		t.Fatalf("scanner declined json.Marshal's own output: %s", body)
	}
}

// TestDecodeIngestJSONStopsPastMaxBatch: an oversized batch is refused at
// reading maxBatch+1, on either path, without the scanner looking at what
// follows it.
func TestDecodeIngestJSONStopsPastMaxBatch(t *testing.T) {
	const reading = `{"sensor":"s","value":[1]}`
	var names Interner
	for _, tc := range []struct {
		name, body string
		wantErr    error
	}{
		{"at the cap", `{"readings":[` + reading + `,` + reading + `]}`, nil},
		{"one past the cap", `{"readings":[` + reading + `,` + reading + `,` + reading + `]}`, errBatchTooLarge},
		{"one past the cap, then garbage", `{"readings":[` + reading + `,` + reading + `,{!!!`, errBatchTooLarge},
		{"one past the cap, declined", `{"readings":[{"sensor":"\u0073","value":[1]},` + reading + `,` + reading + `]}`, errBatchTooLarge},
	} {
		got, err := DecodeIngestJSON([]byte(tc.body), nil, 2, &names)
		if !errors.Is(err, tc.wantErr) || (err == nil) != (len(got) == 2) {
			t.Errorf("%s: %d readings, error %v; want error %v", tc.name, len(got), err, tc.wantErr)
		}
	}
}

// FuzzIngestJSON: for any input the scanner either declines or agrees
// with encoding/json bit-for-bit, and never panics.
func FuzzIngestJSON(f *testing.F) {
	for _, tc := range ingestJSONBodies {
		f.Add([]byte(tc.body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkIngestJSON(t, body)
	})
}

// TestAppendIngestJSONMatchesEncodingJSON: the appended reply is the bytes
// json.Encoder writes for the same IngestResponse, omitted fields and
// trailing newline included.
func TestAppendIngestJSONMatchesEncodingJSON(t *testing.T) {
	src := rand.New(rand.NewSource(18))
	for round := 0; round < 200; round++ {
		results := make([]ReadingResult, src.Intn(5))
		for i := range results {
			results[i] = ReadingResult{
				Shard:    src.Intn(1 << 16),
				Accepted: src.Intn(2) == 0,
				Outlier:  src.Intn(2) == 0,
				Exact:    src.Intn(2) == 0,
				Warmed:   src.Intn(2) == 0,
			}
			if src.Intn(3) > 0 { // seq 0 is omitted
				results[i].Seq = src.Uint64() >> uint(src.Intn(64))
			}
		}
		resp := IngestResponse{Results: results, Rejected: src.Intn(3)}
		if src.Intn(2) == 0 { // retry_after_ms 0 is omitted
			resp.RetryAfterMS = src.Int63n(1 << 20)
		}
		want, err := json.Marshal(resp)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, '\n')
		if got := AppendIngestJSON(nil, resp.Results, resp.Rejected, resp.RetryAfterMS); !bytes.Equal(got, want) {
			t.Fatalf("appended %s, encoding/json %s", got, want)
		}
	}
}

// TestAppendJSONFloatMatchesEncodingJSON covers both format switches and
// the exponent clean-up, then the query replies built on the appenders.
func TestAppendJSONFloatMatchesEncodingJSON(t *testing.T) {
	floats := []float64{
		0, math.Copysign(0, -1), 1, -1, 42, 1 << 53, 0.1, 0.5, 1.0 / 3,
		1e-6, 9.99e-7, 1e-7, 1.5e-9, 1e-10, 1e20, 9.99e20, 1e21, 1.5e300,
		math.SmallestNonzeroFloat64, 2.2250738585072014e-308, math.MaxFloat64, -math.MaxFloat64,
	}
	src := rand.New(rand.NewSource(18))
	for i := 0; i < 500; i++ {
		floats = append(floats, math.Float64frombits(src.Uint64()), src.NormFloat64(), src.Float64())
	}
	for _, f := range floats {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			continue
		}
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONFloat(nil, f); !bytes.Equal(got, want) {
			t.Fatalf("%v: appended %s, encoding/json %s", f, got, want)
		}
		p := ProbResponse{Shard: src.Intn(8), Prob: f}
		want, _ = json.Marshal(p)
		if got := appendProbJSON(nil, p); !bytes.Equal(got, append(want, '\n')) {
			t.Fatalf("prob reply: appended %s, encoding/json %s", got, want)
		}
	}
	for i := 0; i < 64; i++ {
		q := QueryResponse{Shard: src.Intn(8), Seq: src.Uint64() >> uint(src.Intn(64)),
			Outlier: i&1 != 0, Exact: i&2 != 0, Warmed: i&4 != 0}
		want, _ := json.Marshal(q)
		if got := appendQueryJSON(nil, q); !bytes.Equal(got, append(want, '\n')) {
			t.Fatalf("query reply: appended %s, encoding/json %s", got, want)
		}
	}
}
