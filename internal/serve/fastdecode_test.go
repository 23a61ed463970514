package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
)

// parseOne runs the one-pass number parser over a whole token.
func parseOne(tok string) (float64, bool) {
	p := reqParser{b: []byte(tok)}
	v, ok := p.float()
	return v, ok && p.i == len(tok)
}

// checkFloat fails unless tok parses to exactly strconv.ParseFloat's bits.
func checkFloat(t *testing.T, tok string) {
	t.Helper()
	want, err := strconv.ParseFloat(tok, 64)
	if err != nil {
		t.Fatalf("strconv rejects %q: %v", tok, err)
	}
	got, ok := parseOne(tok)
	if !ok {
		t.Fatalf("parser rejects %q", tok)
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%q: parsed %v (%#x), strconv %v (%#x)", tok, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// TestFloatMatchesStrconv: every literal the one-pass parser converts
// itself — the Clinger and the 128/64-division cases — and every one it
// hands to strconv lands on strconv.ParseFloat's exact bits.
func TestFloatMatchesStrconv(t *testing.T) {
	for _, tok := range []string{
		"0", "-0", "0.0", "-0.0", "1", "-1", "0.5", "1.0",
		"0.000123", "0.0000000000000000000001", "100", "1.50",
		// Division path: a tie (2^53+1 is halfway between two doubles), the
		// same tie through a scale of 10, and round-ups that carry into 2^53.
		"9007199254740993", "9007199254740993.0", "9007199254740995",
		"18014398509481983", "0.99999999999999999", "0.9999999999999999999",
		// Mantissa 10^19-1, scale k = 19 and k = 20, 20 significant digits.
		"9999999999999999999", "0.1234567890123456789", "0.12345678901234567890",
		"0.00000000000000000001", "12345678901234567890", "-1234567890.123456789",
		// The /255 pixels on either side of 2^53 as a mantissa.
		"0.5019607843137255", "0.9019607843137255", "0.00392156862745098",
		// Exponent parts and out-of-fast-range scales go to strconv.
		"1e5", "1E-5", "-2.5e+3", "0e0", "1e-400", "1.7976931348623157e308",
		"0.0000000000000000000000123",
	} {
		checkFloat(t, tok)
	}

	rng := rand.New(rand.NewSource(1))
	const n = 1 << 20
	for i := 0; i < n; i++ {
		var v float64
		switch i % 4 {
		case 0:
			v = rng.Float64()
		case 1:
			v = float64(rng.Intn(256)) / 255
		case 2:
			v = rng.Float64() * math.Pow10(rng.Intn(13)-6)
		default:
			v = math.Float64frombits(rng.Uint64()>>12 | 0x3ff<<52) // [1, 2)
		}
		if rng.Intn(4) == 0 {
			v = -v
		}
		prec := -1
		if i%3 == 0 {
			prec = rng.Intn(22)
		}
		checkFloat(t, strconv.FormatFloat(v, 'f', prec, 64))
	}

	// Shortest-form tokens sit next to a double, so they rarely reach the
	// round-half-even and sticky-bit branches of the division path. Random
	// mantissas of up to 19 digits spread evenly between doubles, and odd
	// 54-bit integers times 2^e/10^j lie exactly halfway between two.
	pow5 := [...]uint64{1, 5, 25, 125, 625}
	for i := 0; i < 1<<18; i++ {
		m := 1<<53 + rng.Uint64()%(1e19-1<<53)
		checkFloat(t, decimal(m, rng.Intn(20)))
		if i%2 == 0 {
			odd := 1<<53 | rng.Uint64()%(1<<53) | 1
			checkFloat(t, decimal(odd<<rng.Intn(10), 0))
			continue
		}
		j := 1 + rng.Intn(4)
		limit := min(1<<54, 1e19/pow5[j]) // keeps odd·5^j below 10^19
		odd := (1<<53 + rng.Uint64()%(limit-1<<53)) | 1
		checkFloat(t, decimal(odd*pow5[j], j))
	}
}

// decimal renders m/10^k as a plain JSON number literal.
func decimal(m uint64, k int) string {
	s := strconv.FormatUint(m, 10)
	if k == 0 {
		return s
	}
	if len(s) <= k {
		s = strings.Repeat("0", k-len(s)+1) + s
	}
	return s[:len(s)-k] + "." + s[len(s)-k:]
}

// TestFloatRejectsNonNumbers: literals the JSON grammar rejects, or that run
// on into another number character, are never accepted by the parser.
func TestFloatRejectsNonNumbers(t *testing.T) {
	for _, tok := range []string{
		"", "-", "+1", ".5", "1.", "01", "-01", "1e", "1e+", "1.5.2", "1e5e5",
		"1-", "1+", "0x10", "1.0e", "--1", "1E5.0", "Infinity", "NaN",
	} {
		if _, ok := parseOne(tok); ok {
			t.Errorf("parser accepts %q", tok)
		}
	}
}

// cifarBody is a json.Marshaled request for one 3×32×32 image of /255
// pixels, the shape and value form a CIFAR-style client sends.
func cifarBody(tb testing.TB) ([]byte, [3]int) {
	shape := [3]int{3, 32, 32}
	rng := rand.New(rand.NewSource(7))
	data := make([]float64, shape[0]*shape[1]*shape[2])
	for i := range data {
		data[i] = float64(rng.Intn(256)) / 255
	}
	idx := uint64(3)
	raw, err := json.Marshal(Request{Shape: shape[:], Data: data, Index: &idx})
	if err != nil {
		tb.Fatal(err)
	}
	return raw, shape
}

// TestReadDecodeAllocs: with a warm pool, reading a body, decoding it and
// releasing the buffer allocates only the decoded request: its struct,
// shape, data and index.
func TestReadDecodeAllocs(t *testing.T) {
	raw, shape := cifarBody(t)
	rd := bytes.NewReader(raw)
	r := httptest.NewRequest("POST", "/detect", io.NopCloser(rd))
	r.ContentLength = int64(len(raw))
	w := httptest.NewRecorder()
	run := func() {
		rd.Reset(raw)
		body, err := ReadBody(w, r)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeRequest(body.Bytes(), shape); err != nil {
			t.Fatal(err)
		}
		body.Release()
	}
	run() // warm the pool
	if a := testing.AllocsPerRun(100, run); a > 8 {
		t.Fatalf("read + decode + release allocates %.1f times, want <= 8", a)
	}
}

// BenchmarkDecodeRequest decodes one json.Marshaled 3×32×32 request body.
func BenchmarkDecodeRequest(b *testing.B) {
	raw, shape := cifarBody(b)
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeRequest(raw, shape); err != nil {
			b.Fatal(err)
		}
	}
}
