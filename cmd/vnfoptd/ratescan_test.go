package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"vnfopt/internal/engine"
	"vnfopt/internal/topology"
	"vnfopt/internal/workload"
)

// ratesRequest is the POST …/rates body as encoding/json sees it. The
// daemon decodes with the scanner in ratescan.go; the tests keep this
// shape to build bodies and as the oracle the scanner is held against.
type ratesRequest struct {
	Updates []engine.RateUpdate `json:"updates"`
	Step    bool                `json:"step"`
}

// jsonStrict is the oracle's decode: encoding/json, no unknown field,
// nothing after the value.
func jsonStrict(b []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("data after the value")
	}
	return nil
}

// jsonRatesLine is the oracle for one NDJSON line: an array if it opens
// with '[', one update otherwise.
func jsonRatesLine(b []byte) ([]engine.RateUpdate, error) {
	if t := bytes.TrimLeft(b, " \t\r\n"); len(t) > 0 && t[0] == '[' {
		var chunk []engine.RateUpdate
		err := jsonStrict(b, &chunk)
		return chunk, err
	}
	var u engine.RateUpdate
	err := jsonStrict(b, &u)
	return []engine.RateUpdate{u}, err
}

// sameUpdates compares flows and rate *bits* (so -0 ≠ 0).
func sameUpdates(a, b []engine.RateUpdate) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Flow != b[i].Flow || math.Float64bits(a[i].Rate) != math.Float64bits(b[i].Rate) {
			return false
		}
	}
	return true
}

// rateScanCases is one input per class of the grammar: what the scanner
// takes (and what it decodes to), and what it refuses (offset and reason).
// line says the input is an NDJSON line rather than a /rates body. Every
// refusal below except the syntax errors is a body HEAD answered 200 to.
var rateScanCases = []struct {
	name, in string
	line     bool
	updates  []engine.RateUpdate
	step     bool
	err      string // "" = accepted
}{
	{name: "benchmark key order", in: `{"step":true,"updates":[{"flow":0,"rate":52000.5},{"flow":1,"rate":3}]}`,
		updates: []engine.RateUpdate{{Flow: 0, Rate: 52000.5}, {Flow: 1, Rate: 3}}, step: true},
	{name: "struct key order, encoder newline", in: `{"updates":[{"flow":7,"rate":1.5}],"step":false}` + "\n",
		updates: []engine.RateUpdate{{Flow: 7, Rate: 1.5}}},
	{name: "white space everywhere", in: " \t\r\n{ \"updates\" : [ { \"rate\" : 1e-7 , \"flow\" : 12 } , {\"flow\":3,\"rate\":0} ] , \"step\" : true } \n",
		updates: []engine.RateUpdate{{Flow: 12, Rate: 1e-7}, {Flow: 3, Rate: 0}}, step: true},
	{name: "empty object", in: `{}`},
	{name: "empty array", in: `{"updates":[]}`, updates: []engine.RateUpdate{}},
	{name: "step only", in: `{"step":true}`, step: true},
	{name: "number forms", in: `{"updates":[{"flow":0,"rate":1.2345e+21},{"flow":1,"rate":-0},{"flow":2,"rate":0.5E3},{"flow":3,"rate":1e-999}]}`,
		updates: []engine.RateUpdate{{Flow: 0, Rate: 1.2345e+21}, {Flow: 1, Rate: math.Copysign(0, -1)}, {Flow: 2, Rate: 500}, {Flow: 3, Rate: 0}}},
	{name: "negative and huge flow reach ValidateRates", in: `{"updates":[{"flow":-3,"rate":1},{"flow":9223372036854775807,"rate":1}]}`,
		updates: []engine.RateUpdate{{Flow: -3, Rate: 1}, {Flow: math.MaxInt64, Rate: 1}}},
	{name: "line: one update", in: ` {"rate":2.5,"flow":4} `, line: true, updates: []engine.RateUpdate{{Flow: 4, Rate: 2.5}}},
	{name: "line: array chunk", in: `[{"flow":1,"rate":1},{"flow":2,"rate":2}]`, line: true,
		updates: []engine.RateUpdate{{Flow: 1, Rate: 1}, {Flow: 2, Rate: 2}}},
	{name: "line: empty array", in: `[]`, line: true},

	// The deliberate tightening.
	{name: "unknown member", in: `{"updates":[],"stepp":true}`, err: `offset 14: unknown key "stepp"`},
	{name: "unknown field", in: `{"updates":[{"flow":0,"rate":1,"burst":2}]}`, err: `offset 31: unknown key "burst"`},
	{name: "line: rates object", in: `{"updates":[{"flow":0,"rate":1}]}`, line: true, err: `offset 1: unknown key "updates"`},
	{name: "case-folded key", in: `{"Updates":[]}`, err: `offset 1: unknown key "Updates"`},
	{name: "escaped key", in: `{"updates":[{"` + "\\u0066" + `low":0,"rate":1}]}`, err: `offset 14: unexpected '\\', want a key of plain characters`},
	{name: "null updates", in: `{"updates":null}`, err: `offset 11: unexpected 'n', want '['`},
	{name: "null step", in: `{"step":null}`, err: `offset 8: unexpected 'n', want true or false`},
	{name: "null rate", in: `{"updates":[{"flow":0,"rate":null}]}`, err: `offset 29: unexpected 'n', want a digit`},
	{name: "null update", in: `{"updates":[null]}`, err: `offset 12: unexpected 'n', want '{'`},
	{name: "duplicate member", in: `{"step":true,"step":false}`, err: `offset 13: duplicate key "step"`},
	{name: "duplicate field", in: `{"updates":[{"flow":0,"flow":1,"rate":1}]}`, err: `offset 22: duplicate key "flow"`},
	{name: "missing flow", in: `{"updates":[{"rate":1}]}`, err: `offset 12: update without "flow"`},
	{name: "missing rate", in: `{"updates":[{"flow":1}]}`, err: `offset 12: update without "rate"`},
	{name: "line: empty update", in: `{}`, line: true, err: `offset 0: update without "flow"`},
	{name: "second value", in: `{"updates":[]}{"step":true}`, err: `offset 14: unexpected '{' after the value`},
	{name: "trailing garbage", in: `{"step":true} x`, err: `offset 14: unexpected 'x' after the value`},
	{name: "line: two updates on a line", in: `{"flow":0,"rate":1} {"flow":1,"rate":1}`, line: true, err: `offset 20: unexpected '{' after the value`},

	// Refused by encoding/json too.
	{name: "flow with a fraction", in: `{"updates":[{"flow":1.0,"rate":1}]}`, err: `offset 20: flow is not an integer`},
	{name: "flow with an exponent", in: `{"updates":[{"flow":1e2,"rate":1}]}`, err: `offset 20: flow is not an integer`},
	{name: "flow past int64", in: `{"updates":[{"flow":9223372036854775808,"rate":1}]}`, err: `offset 20: flow 9223372036854775808 out of range`},
	{name: "rate past float64", in: `{"updates":[{"flow":0,"rate":1e999}]}`, err: `offset 29: rate 1e999 out of range`},
	{name: "plus sign", in: `{"updates":[{"flow":0,"rate":+1}]}`, err: `offset 29: unexpected '+', want a digit`},
	{name: "bare fraction", in: `{"updates":[{"flow":0,"rate":.5}]}`, err: `offset 29: unexpected '.', want a digit`},
	{name: "bare point", in: `{"updates":[{"flow":0,"rate":1.}]}`, err: `offset 31: unexpected '}', want a digit after the decimal point`},
	{name: "leading zero", in: `{"updates":[{"flow":0,"rate":01}]}`, err: `offset 29: number with a leading zero`},
	{name: "hex float", in: `{"updates":[{"flow":0,"rate":0x1p3}]}`, err: `offset 30: unexpected 'x', want "," or '}'`},
	{name: "Inf", in: `{"updates":[{"flow":0,"rate":Inf}]}`, err: `offset 29: unexpected 'I', want a digit`},
	{name: "NaN", in: `{"updates":[{"flow":0,"rate":NaN}]}`, err: `offset 29: unexpected 'N', want a digit`},
	{name: "digit separator", in: `{"updates":[{"flow":0,"rate":1_0}]}`, err: `offset 30: unexpected '_', want "," or '}'`},
	{name: "empty exponent", in: `{"updates":[{"flow":0,"rate":1e}]}`, err: `offset 31: unexpected '}', want a digit in the exponent`},
	{name: "quoted rate", in: `{"updates":[{"flow":0,"rate":"1"}]}`, err: `offset 29: unexpected '"', want a digit`},
	{name: "trailing comma", in: `{"updates":[{"flow":0,"rate":1},]}`, err: `offset 32: unexpected ']', want '{'`},
	{name: "truncated", in: `{"updates":[{"flow":0,"rate":1}`, err: `offset 31: unexpected end of input, want "," or ']'`},
	{name: "empty body", in: ``, err: `offset 0: unexpected end of input, want '{'`},
	{name: "bare array as a body", in: `[{"flow":0,"rate":1}]`, err: `offset 0: unexpected '[', want '{'`},
	{name: "vertical tab is not white space", in: "{\v}", err: `offset 1: unexpected '\v', want a key`},

	// Only JSON white space makes an NDJSON line blank or pads it.
	{name: "line: leading vertical tab", in: "\v" + `{"flow":0,"rate":1}`, line: true, err: `offset 0: unexpected '\v', want '{'`},
	{name: "line: trailing form feed", in: `{"flow":0,"rate":1}` + "\f", line: true, err: `offset 19: unexpected '\f' after the value`},
	{name: "line: leading no-break space", in: "\u00a0" + `{"flow":0,"rate":1}`, line: true, err: `offset 0: unexpected '\xc2', want '{'`},
	{name: "line: vertical tab alone", in: "\v", line: true, err: `offset 0: unexpected '\v', want '{'`},

	// The conversion's boundaries: where rate leaves Clinger's exact path,
	// where Eisel–Lemire declines, and where ParseFloat takes over.
	{name: "line: mantissas of 19 and 20 digits", line: true,
		in:      `[{"flow":0,"rate":9999999999999999999},{"flow":1,"rate":99999999999999999999},{"flow":2,"rate":12345678901234567890},{"flow":3,"rate":0.00000000000000000000000001}]`,
		updates: []engine.RateUpdate{{Flow: 0, Rate: 9999999999999999999}, {Flow: 1, Rate: 99999999999999999999}, {Flow: 2, Rate: 12345678901234567890}, {Flow: 3, Rate: 1e-26}}},
	{name: "line: exponents", line: true,
		in:      `[{"flow":0,"rate":1e22},{"flow":1,"rate":1e-22},{"flow":2,"rate":3e23},{"flow":3,"rate":3e-23},{"flow":4,"rate":1e37},{"flow":5,"rate":1e38},{"flow":6,"rate":1e308},{"flow":7,"rate":1e-324},{"flow":8,"rate":1e-325}]`,
		updates: []engine.RateUpdate{{Flow: 0, Rate: 1e22}, {Flow: 1, Rate: 1e-22}, {Flow: 2, Rate: 3e23}, {Flow: 3, Rate: 3e-23}, {Flow: 4, Rate: 1e37}, {Flow: 5, Rate: 1e38}, {Flow: 6, Rate: 1e308}, {Flow: 7, Rate: 0}, {Flow: 8, Rate: 0}}},
	{name: "line: zeros and subnormals", line: true,
		in:      `[{"flow":0,"rate":-0},{"flow":1,"rate":0e400},{"flow":2,"rate":4.9e-324},{"flow":3,"rate":2.4703282292062328e-324}]`,
		updates: []engine.RateUpdate{{Flow: 0, Rate: math.Copysign(0, -1)}, {Flow: 1, Rate: 0}, {Flow: 2, Rate: 5e-324}, {Flow: 3, Rate: 5e-324}}},
	{name: "line: float64 limits", line: true,
		in:      `[{"flow":0,"rate":2.2250738585072011e-308},{"flow":1,"rate":1.7976931348623157e308},{"flow":2,"rate":1.7976931348623158e308}]`,
		updates: []engine.RateUpdate{{Flow: 0, Rate: 2.2250738585072011e-308}, {Flow: 1, Rate: math.MaxFloat64}, {Flow: 2, Rate: math.MaxFloat64}}},
	{name: "line: halfway and inexact", line: true, in: `[{"flow":0,"rate":9007199254740993},{"flow":1,"rate":1e23}]`,
		updates: []engine.RateUpdate{{Flow: 0, Rate: 9007199254740992}, {Flow: 1, Rate: 1e23}}},
	{name: "line: past float64 by rounding", in: `{"flow":0,"rate":1.7976931348623159e308}`, line: true, err: `offset 17: rate 1.7976931348623159e308 out of range`},
	{name: "line: exponent 309", in: `{"flow":0,"rate":1e309}`, line: true, err: `offset 17: rate 1e309 out of range`},

	// Updates that leave the encoding/json spelling midway are read again
	// by the general loop, offsets and all.
	{name: "line: space before the brace", in: `{"flow":1,"rate":1 }`, line: true, updates: []engine.RateUpdate{{Flow: 1, Rate: 1}}},
	{name: "line: flow with a leading zero", in: `{"flow":01,"rate":1}`, line: true, err: `offset 8: number with a leading zero`},
	{name: "line: rate past float64", in: `{"flow":1,"rate":1e999}`, line: true, err: `offset 17: rate 1e999 out of range`},
}

// TestRateScanTable pins the scanner's answer per class of input, and —
// for the accepted ones — that the oracle decodes the same value.
func TestRateScanTable(t *testing.T) {
	for _, tc := range rateScanCases {
		var (
			got  []engine.RateUpdate
			step bool
			err  error
		)
		if tc.line {
			got, err = scanRatesLine([]byte(tc.in), nil)
		} else {
			got, step, err = scanRatesBody([]byte(tc.in))
		}
		if tc.err != "" {
			var se *scanError
			if !errors.As(err, &se) || !strings.HasPrefix(err.Error(), tc.err) {
				t.Errorf("%s: err %v, want %q…", tc.name, err, tc.err)
			}
			continue
		}
		if err != nil || !sameUpdates(got, tc.updates) || step != tc.step {
			t.Errorf("%s: got %v step=%v err=%v, want %v step=%v", tc.name, got, step, err, tc.updates, tc.step)
			continue
		}
		checkAgainstOracle(t, []byte(tc.in), tc.line)
	}
}

// checkAgainstOracle is the differential property: whatever the scanner
// accepts, the strict encoding/json decode accepts too, with equal step,
// equal flows and bit-equal rates.
func checkAgainstOracle(t *testing.T, in []byte, line bool) {
	t.Helper()
	if line {
		got, err := scanRatesLine(in, nil)
		if err != nil {
			return
		}
		want, jerr := jsonRatesLine(in)
		if jerr != nil || !sameUpdates(got, want) {
			t.Fatalf("line %q: scanner %v, encoding/json %v (%v)", in, got, want, jerr)
		}
		return
	}
	got, step, err := scanRatesBody(in)
	if err != nil {
		return
	}
	var want ratesRequest
	if jerr := jsonStrict(in, &want); jerr != nil || step != want.Step || !sameUpdates(got, want.Updates) {
		t.Fatalf("body %q: scanner %v step=%v, encoding/json %+v (%v)", in, got, step, want, jerr)
	}
}

// raceEnabled is set under -race, where TestRateMatchesParseFloat, a
// sequential conversion check, runs a twentieth of its patterns.
var raceEnabled bool

// TestRateMatchesParseFloat holds rate's conversion to strconv.ParseFloat,
// bit for bit and accept for accept: a million seeded finite float64 bit
// patterns, each spelled as %g, as %e at a random precision of 0–24 —
// many digits past the 19 the fast paths take — and as %f.
func TestRateMatchesParseFloat(t *testing.T) {
	patterns := 1_000_000
	if raceEnabled {
		patterns /= 20
	}
	rng := rand.New(rand.NewSource(2101))
	var tok []byte
	for n := 0; n < patterns; {
		f := math.Float64frombits(rng.Uint64())
		if math.IsNaN(f) || math.IsInf(f, 0) {
			continue
		}
		n++
		for form := 0; form < 3; form++ {
			switch form {
			case 0:
				tok = strconv.AppendFloat(tok[:0], f, 'g', -1, 64)
			case 1:
				tok = strconv.AppendFloat(tok[:0], f, 'e', rng.Intn(25), 64)
			case 2:
				tok = strconv.AppendFloat(tok[:0], f, 'f', -1, 64)
			}
			s := rateScanner{b: tok}
			got, err := s.rate()
			want, werr := strconv.ParseFloat(string(tok), 64)
			if (err == nil) != (werr == nil) || err == nil && (s.i != len(tok) || math.Float64bits(got) != math.Float64bits(want)) {
				t.Fatalf("%s: rate %v (%v, stopped at %d), ParseFloat %v (%v)", tok, got, err, s.i, want, werr)
			}
		}
	}
}

// TestPow10Table checks the computed table against literals of Go's
// strconv/eisel_lemire.go, {low, high}.
func TestPow10Table(t *testing.T) {
	for _, tc := range []struct {
		e      int
		lo, hi uint64
	}{
		{-348, 0x1732C869CD60E453, 0xFA8FD5A0081C0288},
		{-1, 0xCCCCCCCCCCCCCCCC, 0xCCCCCCCCCCCCCCCC},
		{0, 0x0000000000000000, 0x8000000000000000},
		{22, 0x0000000000000000, 0x878678326EAC9000},
		{347, 0x4B7195F2D2D1A9FB, 0xD13EB46469447567},
	} {
		if got := pow10[tc.e-pow10Min]; got != [2]uint64{tc.lo, tc.hi} {
			t.Errorf("1e%d: %#x, want {%#x, %#x}", tc.e, got, tc.lo, tc.hi)
		}
	}
}

// pow10 is the table eiselLemire64 reads, as TestPow10Table checks it.
var pow10 = *detailedPow10()

// BenchmarkPow10Table is what the first rate that needs the table pays
// to build it.
func BenchmarkPow10Table(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pow10 = pow10Table()
	}
}

// FuzzRateScan runs every input through both entry points of the scanner
// against the oracle.
func FuzzRateScan(f *testing.F) {
	for _, tc := range rateScanCases {
		f.Add([]byte(tc.in))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		checkAgainstOracle(t, in, false)
		checkAgainstOracle(t, in, true)
	})
}

// TestRatesRouteStrict posts the table to a live scenario: an accepted
// body is 200 (or 422 where ValidateRates turns the decoded flow down), a
// refused one is 400 bad_request carrying the scanner's offset — on
// /rates for a body, on /rates:bulk (with its line number) for a line.
func TestRatesRouteStrict(t *testing.T) {
	ts := httptest.NewServer(newServer().handler())
	defer ts.Close()
	if code := do(t, ts, "POST", "/v1/scenarios", diffSpec("strict"), nil); code != http.StatusCreated {
		t.Fatalf("create: %d", code)
	}
	for _, tc := range rateScanCases {
		url, ctype, want := ts.URL+"/v1/scenarios/strict/rates", "application/json", "bad rates body: "+tc.err
		if tc.line {
			url, ctype, want = url+":bulk", "application/x-ndjson", "bulk body: line 1: "+tc.err
		}
		resp, err := ts.Client().Post(url, ctype, strings.NewReader(tc.in))
		if err != nil {
			t.Fatal(err)
		}
		var out struct {
			Accepted int      `json:"accepted"`
			Error    apiError `json:"error"`
		}
		err = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		switch {
		case tc.err != "":
			if resp.StatusCode != http.StatusBadRequest || out.Error.Code != codeBadRequest || !strings.HasPrefix(out.Error.Message, want) {
				t.Errorf("%s: %d %+v, want 400 %q…", tc.name, resp.StatusCode, out.Error, want)
			}
		case strings.Contains(tc.name, "ValidateRates"):
			if resp.StatusCode != http.StatusUnprocessableEntity {
				t.Errorf("%s: %d, want 422", tc.name, resp.StatusCode)
			}
		default:
			if resp.StatusCode != http.StatusOK || out.Accepted != len(tc.updates) {
				t.Errorf("%s: %d accepted %d (%+v), want 200 / %d", tc.name, resp.StatusCode, out.Accepted, out.Error, len(tc.updates))
			}
		}
	}
}

// TestBulkRatesObjectLineRefused: an NDJSON line holding the /rates
// object used to be ingested as {"flow":0,"rate":0}. It is 400 naming the
// line and the key, and — the request not being atomic — the batch
// flushed before it stays ingested.
func TestBulkRatesObjectLineRefused(t *testing.T) {
	ts := httptest.NewServer(newServer().handler())
	defer ts.Close()
	if code := do(t, ts, "POST", "/v1/scenarios", diffSpec("obj"), nil); code != http.StatusCreated {
		t.Fatalf("create: %d", code)
	}
	var body bytes.Buffer
	for i := 0; i < bulkBatchSize; i++ {
		fmt.Fprintf(&body, `{"flow":%d,"rate":%d}`+"\n", i%24, i+1)
	}
	body.WriteString(`{"updates":[{"flow":0,"rate":1}]}` + "\n")
	resp, err := ts.Client().Post(ts.URL+"/v1/scenarios/obj/rates:bulk", "application/x-ndjson", &body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out errorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf(`bulk body: line %d: offset 1: unknown key "updates"`, bulkBatchSize+1)
	if resp.StatusCode != http.StatusBadRequest || out.Error.Code != codeBadRequest || !strings.HasPrefix(out.Error.Message, want) {
		t.Fatalf("%d %+v, want 400 %q…", resp.StatusCode, out.Error, want)
	}
	var m struct {
		Metrics engine.Metrics `json:"metrics"`
	}
	do(t, ts, "GET", "/v1/scenarios/obj/metrics", nil, &m)
	if m.Metrics.UpdatesAccepted != bulkBatchSize {
		t.Fatalf("engine accepted %d updates, want the one flushed batch of %d", m.Metrics.UpdatesAccepted, bulkBatchSize)
	}
}

// TestTrailingDataRefused: every body route reads its whole body. Bytes
// after the JSON value used to be dropped unread (200); they are 400,
// while trailing white space — the newline every encoder appends — is not
// data.
func TestTrailingDataRefused(t *testing.T) {
	ts := httptest.NewServer(newServer().handler())
	defer ts.Close()
	if code := do(t, ts, "POST", "/v1/scenarios", diffSpec("tail"), nil); code != http.StatusCreated {
		t.Fatalf("create: %d", code)
	}
	for _, tc := range []struct {
		name, path, body string
		status           int
	}{
		{"create, second value", "/v1/scenarios", `{"id":"t1","flows":4}{"id":"t2"}`, http.StatusBadRequest},
		{"create, garbage", "/v1/scenarios", `{"id":"t1","flows":4} garbage`, http.StatusBadRequest},
		{"create, white space", "/v1/scenarios", `{"id":"t1","flows":4}` + " \t\r\n", http.StatusCreated},
		{"rates, second value", "/v1/scenarios/tail/rates", `{"updates":[]}{"step":true}`, http.StatusBadRequest},
		{"rates, white space", "/v1/scenarios/tail/rates", `{"updates":[{"flow":0,"rate":2}],"step":true}` + " \r\n\n", http.StatusOK},
		{"faults, garbage", "/v1/scenarios/tail/faults", `{"inject":[{"kind":"switch","u":10}]} garbage`, http.StatusBadRequest},
		{"faults, second value", "/v1/scenarios/tail/faults", `{"inject":[]}{"heal":[]}`, http.StatusBadRequest},
		{"faults, white space", "/v1/scenarios/tail/faults", `{"inject":[],"heal":[]}` + "\n \n", http.StatusOK},
	} {
		resp, err := ts.Client().Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var out errorEnvelope
		_ = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if resp.StatusCode != tc.status || (tc.status == http.StatusBadRequest && out.Error.Code != codeBadRequest) {
			t.Errorf("%s: %d %+v, want %d", tc.name, resp.StatusCode, out.Error, tc.status)
		}
	}
	// A refused create built nothing, a refused transition injected nothing.
	var list struct {
		Total int `json:"total"`
	}
	do(t, ts, "GET", "/v1/scenarios", nil, &list)
	var faults struct {
		Active []json.RawMessage `json:"active"`
	}
	do(t, ts, "GET", "/v1/scenarios/tail/faults", nil, &faults)
	if list.Total != 2 || len(faults.Active) != 0 {
		t.Fatalf("%d scenarios (want tail and t1), %d active faults (want 0)", list.Total, len(faults.Active))
	}
}

// TestRatesBodyLimit: the 8 MiB bound holds on the buffered read — a body
// past it is 400, whether or not Content-Length announced it.
func TestRatesBodyLimit(t *testing.T) {
	ts := httptest.NewServer(newServer().handler())
	defer ts.Close()
	if code := do(t, ts, "POST", "/v1/scenarios", diffSpec("big"), nil); code != http.StatusCreated {
		t.Fatalf("create: %d", code)
	}
	huge := append([]byte(`{"updates":[`), bytes.Repeat([]byte(" "), maxBodyBytes)...)
	huge = append(huge, `]}`...)
	for _, chunked := range []bool{false, true} {
		var body io.Reader = bytes.NewReader(huge)
		if chunked {
			body = io.MultiReader(body) // hides the length: no Content-Length
		}
		resp, err := ts.Client().Post(ts.URL+"/v1/scenarios/big/rates", "application/json", body)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("chunked=%v: %d, want 400", chunked, resp.StatusCode)
		}
	}
}

// TestDecodeSecondsExported: both ingest routes observe their decode time
// once per request.
func TestDecodeSecondsExported(t *testing.T) {
	ts := httptest.NewServer(newServer().handler())
	defer ts.Close()
	if code := do(t, ts, "POST", "/v1/scenarios", diffSpec("obs"), nil); code != http.StatusCreated {
		t.Fatalf("create: %d", code)
	}
	for i := 0; i < 3; i++ {
		if code := do(t, ts, "POST", "/v1/scenarios/obs/rates", ratesRequest{Updates: []engine.RateUpdate{{Flow: i, Rate: 2}}}, nil); code != http.StatusOK {
			t.Fatalf("rates: %d", code)
		}
	}
	if _, code := postBulk(t, ts, "obs", []byte(`{"flow":0,"rate":1}`+"\n"), false); code != http.StatusOK {
		t.Fatalf("bulk: %d", code)
	}
	prom := promSnapshot(t, ts)
	for series, want := range map[string]float64{
		`vnfoptd_decode_seconds_count{route="POST /v1/scenarios/{id}/rates"}`:      3,
		`vnfoptd_decode_seconds_count{route="POST /v1/scenarios/{id}/rates:bulk"}`: 1,
	} {
		if got, ok := prom[series]; !ok || got != want {
			t.Errorf("%s = %v (present %v), want %v", series, got, ok, want)
		}
	}
}

// decodeBenchInputs builds the three inputs BenchmarkDecodeRates times,
// the way bench/ builds them at seed 1: for /rates, json.Marshal of a map
// (keys sorted, so "step" comes first) — the 2000-flow rate vector of one
// hour of diurnal-react's schedule, and one update of fleet-ingest — and
// for NDJSON one marshalled update per line.
func decodeBenchInputs(tb testing.TB) (body2000, body1 []byte, lines [][]byte) {
	marshal := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			tb.Fatal(err)
		}
		return b
	}
	rng := rand.New(rand.NewSource(7919))
	topo := topology.MustFatTree(8, nil)
	w, err := workload.PairsClustered(topo, 2000, 8, workload.DefaultIntraRack, rng)
	if err != nil {
		tb.Fatal(err)
	}
	hours, err := workload.PaperBurst().Schedule(topo, w, rng)
	if err != nil {
		tb.Fatal(err)
	}
	vector := make([]engine.RateUpdate, len(hours[0]))
	for f, r := range hours[0] {
		vector[f] = engine.RateUpdate{Flow: f, Rate: r}
	}
	body2000 = marshal(map[string]any{"updates": vector, "step": true})

	update := func() engine.RateUpdate {
		return engine.RateUpdate{Flow: rng.Intn(64), Rate: workload.Rate(rng)}
	}
	body1 = marshal(map[string]any{"updates": []engine.RateUpdate{update()}, "step": false})
	lines = make([][]byte, 65536)
	for i := range lines {
		lines[i] = marshal(update())
	}
	return body2000, body1, lines
}

var decodeSink int

// BenchmarkDecodeRates is the kernel behind vnfoptd_decode_seconds: the
// 2000-update /rates body of diurnal-react, the one-update body of
// fleet-ingest, and a 65 536-line NDJSON chunk (per-line decode only, the
// lines already split), each through the scanner and through the
// encoding/json calls the scanner replaced.
func BenchmarkDecodeRates(b *testing.B) {
	body2000, body1, lines := decodeBenchInputs(b)
	for _, bc := range []struct {
		name string
		body []byte
	}{{"body2000", body2000}, {"body1", body1}} {
		b.Run(bc.name+"/scan", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(bc.body)))
			for i := 0; i < b.N; i++ {
				updates, _, err := scanRatesBody(bc.body)
				if err != nil {
					b.Fatal(err)
				}
				decodeSink += len(updates)
			}
		})
		b.Run(bc.name+"/json", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(bc.body)))
			for i := 0; i < b.N; i++ {
				var req ratesRequest
				if err := json.NewDecoder(bytes.NewReader(bc.body)).Decode(&req); err != nil {
					b.Fatal(err)
				}
				decodeSink += len(req.Updates)
			}
		})
	}
	var total int64
	for _, l := range lines {
		total += int64(len(l))
	}
	batch := make([]engine.RateUpdate, 0, len(lines))
	b.Run("ndjson65536/scan", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(total)
		for i := 0; i < b.N; i++ {
			batch = batch[:0]
			for _, l := range lines {
				var err error
				if batch, err = scanRatesLine(l, batch); err != nil {
					b.Fatal(err)
				}
			}
			decodeSink += len(batch)
		}
	})
	b.Run("ndjson65536/json", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(total)
		for i := 0; i < b.N; i++ {
			batch = batch[:0]
			for _, l := range lines {
				var u engine.RateUpdate
				if err := json.Unmarshal(l, &u); err != nil {
					b.Fatal(err)
				}
				batch = append(batch, u)
			}
			decodeSink += len(batch)
		}
	})
}

// TestDecodeBenchInputsAgree keeps the benchmark honest: both sides of
// each pair decode the same value from the inputs it times.
func TestDecodeBenchInputsAgree(t *testing.T) {
	body2000, body1, lines := decodeBenchInputs(t)
	checkAgainstOracle(t, body2000, false)
	checkAgainstOracle(t, body1, false)
	for _, l := range lines[:256] {
		checkAgainstOracle(t, l, true)
	}
	if got, _, err := scanRatesBody(body2000); err != nil || len(got) != 2000 {
		t.Fatalf("2000-update body (%d bytes): %d updates, %v", len(body2000), len(got), err)
	}
	t.Logf("bodies: %d and %d bytes", len(body2000), len(body1))
}
