package main

import (
	"fmt"
	"strconv"
	"unicode/utf8"

	"vnfopt/internal/engine"
)

// The wire decoder of a rate update: one hand-written scanner over the
// request bytes, shared by POST …/rates (scanRatesBody) and by every
// NDJSON line of POST …/rates:bulk (scanRatesLine), the way encodeRates /
// decodeRates are the one WAL codec. It takes a subset of JSON, chosen so
// that whatever it accepts decodes to the same Flow and the same Rate bits
// as encoding/json would (FuzzRateScan holds it to that), and nothing
// else is accepted: there is no fallback.
//
//	body   = "{" [ member *( "," member ) ] "}"
//	member = `"updates"` ":" array | `"step"` ":" ( "true" | "false" )
//	array  = "[" [ update *( "," update ) ] "]"
//	update = "{" field "," field "}"
//	field  = `"flow"` ":" int | `"rate"` ":" number
//	line   = update | array                       ; one NDJSON line
//	int    = [ "-" ] ( "0" | digit1-9 *digit )    ; as strconv.ParseInt(…, 10, 64)
//	number = int [ "." 1*digit ] [ ( "e" | "E" ) [ "+" | "-" ] 1*digit ]
//	                                              ; RFC 8259, as strconv.ParseFloat(…, 64)
//
// A number is converted in the pass that validates it. rate rounds the
// digits strconv's reader would collect with ParseFloat's own fast paths
// (atof.go), so its bits are ParseFloat's by construction. update tries
// the spelling json.Marshal emits first and re-reads anything else in the
// general loop, so what it accepts or refuses is the general loop's call.
//
// Members and fields come in either order, each at most once; both
// members are optional ({} is a legal empty batch), both fields are
// required. Space, tab, CR and LF may stand between any two tokens and
// around the whole value; any other byte after it is an error. A key is
// matched byte for byte (no case folding, no \u escapes), an unknown key
// is refused before its value is read, and null is not a value. A rate
// that overflows float64 (1e999) is refused as encoding/json refuses it;
// whether a flow or a rate is *valid* is engine.ValidateRates' business
// (422), not the scanner's.

// scanError is a refused body: what was wrong and at which byte.
type scanError struct {
	off int
	msg string
}

func (e *scanError) Error() string { return fmt.Sprintf("offset %d: %s", e.off, e.msg) }

func scanErrorf(off int, format string, args ...any) error {
	return &scanError{off: off, msg: fmt.Sprintf(format, args...)}
}

// minUpdateBytes is the shortest update with its separator,
// `{"flow":0,"rate":0},` — the bound on how many a body can hold.
const minUpdateBytes = 20

// scanRatesBody decodes a POST …/rates body. The updates are sized once,
// from the body length, so the slice is the decode's only allocation.
func scanRatesBody(b []byte) (updates []engine.RateUpdate, step bool, err error) {
	s := rateScanner{b: b}
	if err := s.open('{'); err != nil {
		return nil, false, err
	}
	var seenUpdates, seenStep bool
	for more := !s.close('}'); more; {
		key, at, err := s.key()
		if err != nil {
			return nil, false, err
		}
		switch string(key) {
		case "updates":
			if seenUpdates {
				return nil, false, scanErrorf(at, `duplicate key "updates"`)
			}
			seenUpdates = true
			updates, err = s.array(make([]engine.RateUpdate, 0, len(b)/minUpdateBytes))
		case "step":
			if seenStep {
				return nil, false, scanErrorf(at, `duplicate key "step"`)
			}
			seenStep = true
			step, err = s.boolean()
		default:
			err = scanErrorf(at, `unknown key %q (want "updates" or "step")`, key)
		}
		if err != nil {
			return nil, false, err
		}
		if more, err = s.next('}'); err != nil {
			return nil, false, err
		}
	}
	return updates, step, s.end()
}

// scanRatesLine decodes one NDJSON line — an update or an array of them —
// appending to dst.
func scanRatesLine(line []byte, dst []engine.RateUpdate) ([]engine.RateUpdate, error) {
	s := rateScanner{b: line}
	s.space()
	if s.i < len(s.b) && s.b[s.i] == '[' {
		var err error
		if dst, err = s.array(dst); err != nil {
			return dst, err
		}
	} else {
		u, err := s.update()
		if err != nil {
			return dst, err
		}
		dst = append(dst, u)
	}
	return dst, s.end()
}

// rateScanner is a cursor over the bytes being decoded.
type rateScanner struct {
	b []byte
	i int
}

// errHere reports what stands at the cursor where want was expected.
func (s *rateScanner) errHere(want string) error {
	if s.i >= len(s.b) {
		return scanErrorf(s.i, "unexpected end of input, want %s", want)
	}
	return scanErrorf(s.i, "unexpected %s, want %s", quoteByte(s.b[s.i]), want)
}

// quoteByte quotes c as a Go character, except that a byte past ASCII
// prints as '\xc2', not as the Latin-1 letter %q would make of it.
func quoteByte(c byte) string {
	if c >= utf8.RuneSelf {
		return fmt.Sprintf(`'\x%02x'`, c)
	}
	return strconv.QuoteRune(rune(c))
}

func (s *rateScanner) space() {
	b, i := s.b, s.i
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\r' || b[i] == '\n') {
		i++
	}
	s.i = i
}

// open consumes white space and the opening c of an object or array.
func (s *rateScanner) open(c byte) error {
	s.space()
	if s.i >= len(s.b) || s.b[s.i] != c {
		return s.errHere(strconv.QuoteRune(rune(c)))
	}
	s.i++
	return nil
}

// close consumes white space and, if it is next, the closing c: the
// empty-object / empty-array test right after open.
func (s *rateScanner) close(c byte) bool {
	s.space()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// next consumes what follows an element: "," (more follow) or the
// closing c.
func (s *rateScanner) next(c byte) (more bool, err error) {
	s.space()
	if s.i < len(s.b) {
		switch s.b[s.i] {
		case ',':
			s.i++
			return true, nil
		case c:
			s.i++
			return false, nil
		}
	}
	return false, s.errHere(`"," or ` + strconv.QuoteRune(rune(c)))
}

// end checks that only white space is left.
func (s *rateScanner) end() error {
	s.space()
	if s.i < len(s.b) {
		return scanErrorf(s.i, "unexpected %s after the value", quoteByte(s.b[s.i]))
	}
	return nil
}

// key consumes `"name" :` and returns the raw bytes between the quotes
// and where the key starts. An escape is not decoded, so an escaped
// spelling of a known key is an unknown key.
func (s *rateScanner) key() (name []byte, at int, err error) {
	s.space()
	at = s.i
	if s.i >= len(s.b) || s.b[s.i] != '"' {
		return nil, at, s.errHere("a key")
	}
	j := s.i + 1
	for j < len(s.b) && s.b[j] != '"' && s.b[j] != '\\' && s.b[j] >= ' ' {
		j++
	}
	if j >= len(s.b) || s.b[j] != '"' {
		s.i = j
		return nil, at, s.errHere(`a key of plain characters ending in '"'`)
	}
	raw := s.b[s.i+1 : j]
	s.i = j + 1
	s.space()
	if s.i >= len(s.b) || s.b[s.i] != ':' {
		return nil, at, s.errHere(`':'`)
	}
	s.i++
	s.space()
	return raw, at, nil
}

func (s *rateScanner) boolean() (bool, error) {
	rest := s.b[s.i:]
	switch {
	case len(rest) >= 4 && string(rest[:4]) == "true":
		s.i += 4
		return true, nil
	case len(rest) >= 5 && string(rest[:5]) == "false":
		s.i += 5
		return false, nil
	}
	return false, s.errHere("true or false")
}

// array consumes `[ update, … ]`, appending to dst.
func (s *rateScanner) array(dst []engine.RateUpdate) ([]engine.RateUpdate, error) {
	if err := s.open('['); err != nil {
		return dst, err
	}
	for more := !s.close(']'); more; {
		u, err := s.update()
		if err != nil {
			return dst, err
		}
		dst = append(dst, u)
		if more, err = s.next(']'); err != nil {
			return dst, err
		}
	}
	return dst, nil
}

// update consumes `{"flow": int, "rate": number}`, fields in either order.
func (s *rateScanner) update() (u engine.RateUpdate, err error) {
	if err := s.open('{'); err != nil {
		return u, err
	}
	start := s.i - 1
	if u, ok := s.marshalled(start); ok {
		return u, nil
	}
	s.i = start + 1
	var seenFlow, seenRate bool
	for more := !s.close('}'); more; {
		key, at, err := s.key()
		if err != nil {
			return u, err
		}
		switch string(key) {
		case "flow":
			if seenFlow {
				return u, scanErrorf(at, `duplicate key "flow"`)
			}
			seenFlow = true
			u.Flow, err = s.flow()
		case "rate":
			if seenRate {
				return u, scanErrorf(at, `duplicate key "rate"`)
			}
			seenRate = true
			u.Rate, err = s.rate()
		default:
			err = scanErrorf(at, `unknown key %q (an update is {"flow":…,"rate":…})`, key)
		}
		if err != nil {
			return u, err
		}
		if more, err = s.next('}'); err != nil {
			return u, err
		}
	}
	switch {
	case !seenFlow:
		return u, scanErrorf(start, `update without "flow"`)
	case !seenRate:
		return u, scanErrorf(start, `update without "rate"`)
	}
	return u, nil
}

// marshalled reads the update at start as json.Marshal spells it,
// `{"flow":N,"rate":X}`. On any other byte, or any error, it reports
// false and update's general loop re-reads the update from its '{', so
// every refusal, and its offset, comes from that one place.
func (s *rateScanner) marshalled(start int) (u engine.RateUpdate, ok bool) {
	b := s.b
	if len(b)-start < 8 || string(b[start:start+8]) != `{"flow":` {
		return u, false
	}
	s.i = start + 8
	flow, err := s.flow()
	if err != nil || len(b)-s.i < 8 || string(b[s.i:s.i+8]) != `,"rate":` {
		return u, false
	}
	s.i += 8
	rate, err := s.rate()
	if err != nil || s.i >= len(b) || b[s.i] != '}' {
		return u, false
	}
	s.i++
	return engine.RateUpdate{Flow: flow, Rate: rate}, true
}

// decimal is a number token as strconv's readFloat reads it: the first 19
// significant digits (nd of them), whether a non-zero one past them was
// dropped, and dp, the decimal point's place in digits from the first.
type decimal struct {
	neg       bool
	mant      uint64
	nd, dp    int
	truncated bool
}

// digits reads a run of decimal digits into d; the loop works on locals,
// since d sits behind a pointer.
func (d *decimal) digits(b []byte, i int) int {
	mant, nd := d.mant, d.nd
	for ; i < len(b) && b[i]-'0' <= 9; i++ {
		if nd < 19 {
			mant = mant*10 + uint64(b[i]-'0')
			nd++
		} else if b[i] != '0' {
			d.truncated = true
		}
	}
	d.mant, d.nd = mant, nd
	return i
}

// integer reads the int token of the grammar — an optional minus, then 0
// or a digit run that does not start with 0 — into d.
func (s *rateScanner) integer(d *decimal) error {
	b, i := s.b, s.i
	if d.neg = i < len(b) && b[i] == '-'; d.neg {
		i++
	}
	first := i
	if i < len(b) && b[i] == '0' {
		i++
	} else {
		i = d.digits(b, i)
		d.dp = i - first
	}
	s.i = i
	switch {
	case i == first:
		return s.errHere("a digit")
	case i < len(b) && b[i]-'0' <= 9:
		return scanErrorf(first, "number with a leading zero")
	}
	return nil
}

// flow converts the int token as it reads it, refusing what
// strconv.ParseInt(…, 10, 64) refuses, with the same message.
func (s *rateScanner) flow() (int, error) {
	start := s.i
	var d decimal
	if err := s.integer(&d); err != nil {
		return 0, err
	}
	b, i := s.b, s.i
	switch {
	case i < len(b) && (b[i] == '.' || b[i]|0x20 == 'e'):
		return 0, scanErrorf(start, "flow is not an integer")
	case d.dp > 19 || d.mant > 1<<63 || d.mant == 1<<63 && !d.neg:
		return 0, scanErrorf(start, "flow %s out of range", b[start:i])
	}
	if d.neg {
		d.mant = -d.mant
	}
	return int(int64(d.mant)), nil
}

// rate reads an RFC 8259 number token (ParseFloat alone also takes +1,
// .5, 1., 0x1p3, Inf, NaN and 1_0) into a decimal and rounds it with
// ParseFloat's fast paths; one past 19 digits, or that both decline, goes
// to strconv.ParseFloat itself.
func (s *rateScanner) rate() (float64, error) {
	start := s.i
	var d decimal
	if err := s.integer(&d); err != nil {
		return 0, err
	}
	b, i := s.b, s.i
	if i < len(b) && b[i] == '.' {
		i++
		frac := i
		for ; d.nd == 0 && i < len(b) && b[i] == '0'; i++ { // not significant
			d.dp--
		}
		if i = d.digits(b, i); i == frac {
			s.i = i
			return 0, s.errHere("a digit after the decimal point")
		}
	}
	if i < len(b) && b[i]|0x20 == 'e' {
		i++
		neg := i < len(b) && b[i] == '-'
		if i < len(b) && (b[i] == '+' || neg) {
			i++
		}
		e, digits := 0, i
		for ; i < len(b) && b[i]-'0' <= 9; i++ {
			if e < 10000 { // readFloat's bound: far past any float64
				e = e*10 + int(b[i]-'0')
			}
		}
		if i == digits {
			s.i = i
			return 0, s.errHere("a digit in the exponent")
		}
		if neg {
			e = -e
		}
		d.dp += e
	}
	s.i = i
	exp := d.dp - d.nd // for a zero mantissa, either path gives ±0
	if !d.truncated {
		if f, ok := atof64exact(d.mant, exp, d.neg); ok {
			return f, nil
		}
		if f, ok := eiselLemire64(d.mant, exp, d.neg); ok {
			return f, nil
		}
	}
	f, err := strconv.ParseFloat(string(b[start:i]), 64)
	if err != nil {
		return 0, scanErrorf(start, "rate %s out of range", b[start:i])
	}
	return f, nil
}
