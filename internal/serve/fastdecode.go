package serve

import (
	"math"
	"math/bits"
	"strconv"
)

// fastDecodeRequest is the hot-path scanner for the canonical request wire
// form: one object with "shape", "data" and optionally "index" keys, plain
// strings, plain JSON numbers. It is deliberately narrower than JSON — any
// construct it does not recognise (escapes, duplicate or unknown keys,
// non-canonical numbers, trailing content) returns ok=false and the caller
// re-decodes with the reference encoding/json path. The invariant that keeps
// the two paths interchangeable: every body the scanner accepts is a body
// the reference decoder accepts with bit-identical values (every float is
// correctly rounded, as strconv.ParseFloat rounds it, and the grammar checks
// below admit only valid JSON number literals).
func fastDecodeRequest(body []byte, want [3]int) (*Request, bool) {
	p := reqParser{b: body}
	if !p.accept('{') {
		return nil, false
	}
	var q Request
	var sawShape, sawData, sawIndex bool
	if !p.accept('}') {
		for {
			key, ok := p.key()
			if !ok || !p.accept(':') {
				return nil, false
			}
			switch string(key) {
			case "shape":
				if sawShape {
					return nil, false
				}
				sawShape = true
				if q.Shape, ok = p.ints(); !ok {
					return nil, false
				}
			case "data":
				if sawData {
					return nil, false
				}
				sawData = true
				if q.Data, ok = p.floats(want[0] * want[1] * want[2]); !ok {
					return nil, false
				}
			case "index":
				if sawIndex {
					return nil, false
				}
				sawIndex = true
				tok, ok := p.number()
				// A uint64 literal: digits only, no leading zero (the JSON
				// grammar), no sign, fraction or exponent (the reference
				// decoder rejects those for integer targets).
				if !ok || !jsonInt(tok) || tok[0] == '-' {
					return nil, false
				}
				u, err := strconv.ParseUint(string(tok), 10, 64)
				if err != nil {
					return nil, false
				}
				q.Index = &u
			default:
				return nil, false
			}
			if p.accept(',') {
				continue
			}
			if p.accept('}') {
				break
			}
			return nil, false
		}
	}
	p.ws()
	if p.i != len(p.b) {
		return nil, false
	}
	return &q, true
}

type reqParser struct {
	b []byte
	i int
}

func (p *reqParser) ws() {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

// accept consumes c (after whitespace) if it is next.
func (p *reqParser) accept(c byte) bool {
	p.ws()
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// key scans a plain object key: a quoted string with no escapes or control
// bytes (canonical keys are ASCII identifiers).
func (p *reqParser) key() ([]byte, bool) {
	if !p.accept('"') {
		return nil, false
	}
	start := p.i
	for p.i < len(p.b) {
		c := p.b[p.i]
		if c == '"' {
			k := p.b[start:p.i]
			p.i++
			return k, true
		}
		if c == '\\' || c < 0x20 {
			return nil, false
		}
		p.i++
	}
	return nil, false
}

// number scans one number token (the characters a JSON number literal can
// contain); grammar validation is the caller's via jsonInt.
func (p *reqParser) number() ([]byte, bool) {
	p.ws()
	start := p.i
	for p.i < len(p.b) {
		c := p.b[p.i]
		if (c >= '0' && c <= '9') || c == '-' || c == '+' || c == '.' || c == 'e' || c == 'E' {
			p.i++
		} else {
			break
		}
	}
	if p.i == start {
		return nil, false
	}
	return p.b[start:p.i], true
}

func (p *reqParser) ints() ([]int, bool) {
	if !p.accept('[') {
		return nil, false
	}
	out := make([]int, 0, 3)
	if p.accept(']') {
		return out, true
	}
	for {
		tok, ok := p.number()
		if !ok || !jsonInt(tok) {
			return nil, false
		}
		v, err := strconv.Atoi(string(tok))
		if err != nil {
			return nil, false
		}
		out = append(out, v)
		if len(out) > 8 { // far beyond any valid shape; let the slow path report it
			return nil, false
		}
		if p.accept(',') {
			continue
		}
		if p.accept(']') {
			return out, true
		}
		return nil, false
	}
}

func (p *reqParser) floats(hint int) ([]float64, bool) {
	if !p.accept('[') {
		return nil, false
	}
	out := make([]float64, 0, hint)
	if p.accept(']') {
		return out, true
	}
	for {
		p.ws()
		v, ok := p.float()
		if !ok {
			return nil, false
		}
		out = append(out, v)
		if p.accept(',') {
			continue
		}
		if p.accept(']') {
			return out, true
		}
		return nil, false
	}
}

// float scans and converts one JSON number literal in a single pass:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?. It collects up to 19
// significant digits into m and the fraction length k, so the value is
// m/10^k, and converts exactly:
//
//   - m < 2^53 and k <= 22 (Clinger's fast path): m and 10^k are both exact
//     float64s, so the one IEEE division rounds the quotient correctly.
//   - otherwise k <= 19, so 10^k fits a uint64: one 128/64-bit division gives
//     a 64-bit quotient and a remainder, which round to 53 bits, ties to
//     even, with the remainder as the sticky bit.
//   - anything else — an exponent part, more than 19 significant digits, or
//     a k neither case covers — goes to strconv.ParseFloat on the literal.
//
// A literal directly followed by a byte that could continue a number token
// (a digit after a leading 0, a second sign, '.' or exponent) is not
// accepted: the caller falls back to the reference decoder, which rejects
// or decodes it.
func (p *reqParser) float() (float64, bool) {
	b := p.b
	start, i := p.i, p.i
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	var m uint64
	nd, k := 0, 0 // significant digits seen, fraction length
	digit := func(c byte) {
		if c != '0' || nd > 0 {
			if nd < 19 {
				m = m*10 + uint64(c-'0')
			}
			nd++
		}
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && b[i] >= '1' && b[i] <= '9':
		for ; i < len(b) && b[i] >= '0' && b[i] <= '9'; i++ {
			digit(b[i])
		}
	default:
		return 0, false
	}
	if i < len(b) && b[i] == '.' {
		i++
		j := i
		for ; i < len(b) && b[i] >= '0' && b[i] <= '9'; i++ {
			digit(b[i])
		}
		if k = i - j; k == 0 {
			return 0, false
		}
	}
	exp := i < len(b) && (b[i] == 'e' || b[i] == 'E')
	if exp {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := i
		for i < len(b) && b[i] >= '0' && b[i] <= '9' {
			i++
		}
		if i == j {
			return 0, false
		}
	}
	if i < len(b) {
		switch c := b[i]; {
		case c >= '0' && c <= '9', c == '+', c == '-', c == '.', c == 'e', c == 'E':
			return 0, false
		}
	}
	p.i = i
	if !exp && nd <= 19 && (m < 1<<53 && k <= 22 || k <= 19) {
		var v float64
		if m < 1<<53 {
			v = float64(m) / pow10f[k]
		} else {
			v = divPow10(m, k)
		}
		if neg {
			v = -v
		}
		return v, true
	}
	v, err := strconv.ParseFloat(string(b[start:i]), 64)
	return v, err == nil // out of range (1e400); the slow path rejects it too
}

// pow10f holds the powers of ten a float64 represents exactly.
var pow10f = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// pow10u holds the powers of ten a uint64 holds.
var pow10u = [...]uint64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19,
}

// divPow10 returns m/10^k correctly rounded (ties to even) for m >= 2^53 and
// k <= 19. It shifts m left by s so that q = floor(m·2^s/10^k) lies in
// [2^63, 2^64) — the 128-bit numerator then stays below 2^64·10^k, which is
// what bits.Div64 needs — and rounds q's low 11 bits away. The result is at
// least 2^53/10^19 ≈ 9e-4, far from the subnormal range, so the final
// math.Ldexp is exact.
func divPow10(m uint64, k int) float64 {
	d := pow10u[k]
	// m/d lies in [2^e, 2^(e+1)) with e = lm-ld or lm-ld-1; compare the
	// left-aligned operands to tell which.
	lm, ld := bits.Len64(m), bits.Len64(d)
	s := 63 - (lm - ld)
	if m<<(64-lm) < d<<(64-ld) {
		s++
	}
	var hi, lo uint64
	if s >= 64 {
		hi = m << (s - 64)
	} else {
		hi, lo = m>>(64-s), m<<s
	}
	q, r := bits.Div64(hi, lo, d)
	mant, low := q>>11, q&(1<<11-1)
	if low > 1<<10 || (low == 1<<10 && (r != 0 || mant&1 == 1)) {
		mant++ // may carry to 2^53, which float64 still holds exactly
	}
	return math.Ldexp(float64(mant), 11-s)
}

// jsonInt reports whether tok is a valid JSON integer literal:
// -?(0|[1-9][0-9]*).
func jsonInt(tok []byte) bool {
	i := 0
	if i < len(tok) && tok[i] == '-' {
		i++
	}
	if i >= len(tok) {
		return false
	}
	switch {
	case tok[i] == '0':
		i++
	case tok[i] >= '1' && tok[i] <= '9':
		for i < len(tok) && tok[i] >= '0' && tok[i] <= '9' {
			i++
		}
	default:
		return false
	}
	return i == len(tok)
}
