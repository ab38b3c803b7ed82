package telemetry

import (
	"encoding/json"
	"math"
	"reflect"
	"strconv"
	"unicode/utf8"
)

// jbuf is the package's one output writer: a reused byte buffer every
// streaming exporter (NDJSON, Chrome trace, metrics CSV, rollup CSV)
// renders a record into before handing it to its io.Writer. It is the
// only place the package formats a number or quotes a string, so the
// streams agree on both and no exporter reflects, boxes or allocates
// per record.
//
// The contract is byte identity with the standard encoders the stream
// formats are defined by — str and float with encoding/json (Marshal's
// HTML-escaping form), fixed and g with fmt's %.Nf and %g — pinned by
// the stream goldens in internal/sched/testdata and fuzzed against
// encoding/json itself.
type jbuf struct {
	b []byte
	// err is the first value float or fixed could not render as JSON
	// (NaN, ±Inf), as the error encoding/json reports for it; reset
	// clears it.
	err error
}

func (j *jbuf) reset() *jbuf {
	j.b, j.err = j.b[:0], nil
	return j
}

// raw appends s verbatim: keys, punctuation, pre-rendered JSON.
func (j *jbuf) raw(s string) *jbuf {
	j.b = append(j.b, s...)
	return j
}

func (j *jbuf) bytes(p []byte) *jbuf {
	j.b = append(j.b, p...)
	return j
}

func (j *jbuf) int(i int64) *jbuf {
	j.b = strconv.AppendInt(j.b, i, 10)
	return j
}

func (j *jbuf) bool(v bool) *jbuf {
	j.b = strconv.AppendBool(j.b, v)
	return j
}

// str appends s as a quoted JSON string.
func (j *jbuf) str(s string) *jbuf {
	j.b = appendString(j.b, s)
	return j
}

// esc appends s JSON-escaped but unquoted.
func (j *jbuf) esc(s string) *jbuf {
	j.b = appendEscaped(j.b, s)
	return j
}

// float appends f as a JSON number; NaN and ±Inf append nothing and
// latch err.
func (j *jbuf) float(f float64) *jbuf {
	b, ok := appendFloat(j.b, f)
	if !ok {
		j.latch(f)
	}
	j.b = b
	return j
}

// latch records f as the value JSON cannot carry, unless err already
// holds an earlier one.
func (j *jbuf) latch(f float64) {
	if j.err == nil {
		j.err = &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
}

// floatMemo holds the last value memoFloat rendered and its text.
type floatMemo struct {
	bits uint64
	text []byte
}

// memoFloat is float, reusing m's text when f is the value m holds.
func (j *jbuf) memoFloat(m *floatMemo, f float64) *jbuf {
	bits := math.Float64bits(f)
	if len(m.text) > 0 && bits == m.bits {
		return j.bytes(m.text)
	}
	n := len(j.b)
	j.float(f)
	m.bits, m.text = bits, append(m.text[:0], j.b[n:]...)
	return j
}

// optStr, optFloat and optInt append key then the value unless the value
// is empty — encoding/json's omitempty, under which -0 is empty too. key
// is the pre-rendered `,"name":`.
func (j *jbuf) optStr(key, v string) {
	if v != "" {
		j.raw(key).str(v)
	}
}

func (j *jbuf) optFloat(key string, v float64) {
	if v != 0 {
		j.raw(key).float(v)
	}
}

func (j *jbuf) optInt(key string, v int) {
	if v != 0 {
		j.raw(key).int(int64(v))
	}
}

// fixed appends f with prec decimals (fmt's %.<prec>f). NaN and ±Inf
// latch err as float does but still append fmt's text, which the CSV
// writers print.
func (j *jbuf) fixed(f float64, prec int) *jbuf {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		j.latch(f)
	}
	j.b = strconv.AppendFloat(j.b, f, 'f', prec, 64)
	return j
}

// g appends f in its shortest round-tripping form (fmt's %g).
func (j *jbuf) g(f float64) *jbuf {
	j.b = strconv.AppendFloat(j.b, f, 'g', -1, 64)
	return j
}

// appendFloat appends f exactly as encoding/json encodes a float64 —
// ES6 number-to-string: shortest digits, exponent form below 1e-6 and
// from 1e21 with a one-digit negative exponent unpadded — and reports
// false, appending nothing, for the values JSON cannot carry.
func appendFloat(dst []byte, f float64) ([]byte, bool) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, false
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// e-09 → e-9, as encoding/json cleans it up.
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, true
}

const hexDigits = "0123456789abcdef"

// appendString appends s as a quoted JSON string literal exactly as
// encoding/json's Marshal does: `"` and `\` backslash-escaped, the five
// short control escapes, every other control byte and `<`, `>`, `&` as
// \u00XX, U+2028/U+2029 as \u202X, and each byte of invalid UTF-8 as
// the six bytes \ufffd.
func appendString(dst []byte, s string) []byte {
	return append(appendEscaped(append(dst, '"'), s), '"')
}

// appendEscaped is appendString without the quotes, for literals built
// from several parts. Escaping parts one by one equals escaping their
// concatenation as long as every joint has an ASCII byte on one side
// (no UTF-8 sequence spans it) — true of every label the sinks compose.
func appendEscaped(dst []byte, s string) []byte {
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '\\', '"':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(dst, s[start:]...)
}
