package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"strings"
	"testing"

	"advhunter/internal/core"
	"advhunter/internal/tensor"
)

// TestTruthCacheByteIdenticalResponses is the serve-layer memoisation
// differential, on the exact tier and on the twin (auto with a negative
// margin, so the twin decides every query): the same request sequence —
// including repeated queries of one image under fresh indices, and an input
// crafted to share the first image's core.Fingerprint — must produce
// byte-identical response bodies with memoisation on and off, while the
// enabled server actually serves repeats (and only repeats) from the cache.
func TestTruthCacheByteIdenticalResponses(t *testing.T) {
	f := getFixture(t)
	images := []*tensor.Tensor{f.clean[0].X, f.clean[1].X, f.clean[2].X, f.clean[3].X, fnvCollision(t, f.clean[0].X)}
	for _, tc := range []struct{ tier, series string }{
		{TierExact, "advhunter_truth_cache"},
		{TierTwin, "advhunter_twin_truth_cache"},
	} {
		t.Run(tc.tier, func(t *testing.T) {
			config := func(c Config) Config {
				if tc.tier == TierExact {
					return c
				}
				return f.twinOnlyConfig(c)
			}
			_, tsOn := newServer(t, f, config(Config{Workers: 2})) // default: cache enabled (512)
			_, tsOff := newServer(t, f, config(Config{Workers: 2, TruthCacheSize: -1}))

			// Indices revisit images: repeats must hit the cache yet keep
			// their own per-index noise stream. The last query collides with
			// image 0's fingerprint and must be measured as what it is.
			order := []int{0, 1, 2, 0, 1, 0, 3, 2, 4}
			for i, si := range order {
				req := NewRequest(images[si], uint64(i))
				respOn, bodyOn := post(t, tsOn.URL, req)
				respOff, bodyOff := post(t, tsOff.URL, req)
				if respOn.StatusCode != http.StatusOK || respOff.StatusCode != http.StatusOK {
					t.Fatalf("step %d: status cached=%d uncached=%d", i, respOn.StatusCode, respOff.StatusCode)
				}
				if !bytes.Equal(bodyOn, bodyOff) {
					t.Fatalf("step %d (image %d): cached response diverged\ncached:   %s\nuncached: %s",
						i, si, bodyOn, bodyOff)
				}
			}

			// The enabled server must have hit the cache on the four repeats
			// only, and export the truth-cache series; the disabled server
			// must export none.
			mOn := string(scrape(t, tsOn.URL))
			for _, want := range []string{"_hits_total 4", "_misses_total 5", "_entries 5"} {
				if !strings.Contains(mOn, tc.series+want) {
					t.Fatalf("cached server should report %s%s:\n%s", tc.series, want, grepLines(mOn, "truth_cache"))
				}
			}
			if mOff := string(scrape(t, tsOff.URL)); strings.Contains(mOff, "truth_cache") {
				t.Fatal("disabled server must export no truth-cache series")
			}
		})
	}
}

// fnvCollision crafts a visibly different input with x's core.Fingerprint,
// the way a client could: flip a low mantissa bit of one pixel, then solve
// the last FNV-1a step (h ^ w)·p = target for the last pixel's bits w, and
// retry with another pixel until w decodes into [0, 1]. The result survives
// the JSON wire format unchanged.
func fnvCollision(t *testing.T, x *tensor.Tensor) *tensor.Tensor {
	t.Helper()
	const prime = 1099511628211
	inv := uint64(prime) // p·inv ≡ 1 mod 2⁶⁴; each Newton step doubles the correct bits
	for i := 0; i < 5; i++ {
		inv *= 2 - prime*inv
	}
	target := core.Fingerprint(x)
	shape := x.Shape()
	for j := 0; j < x.Len()-1; j++ {
		y := x.Clone()
		d := y.Data()
		d[j] = math.Float64frombits(math.Float64bits(d[j]) ^ 1)
		h := uint64(14695981039346656037)
		h = (h ^ uint64(y.Rank())) * prime
		for _, n := range shape {
			h = (h ^ uint64(n)) * prime
		}
		for _, v := range d[:len(d)-1] {
			h = (h ^ math.Float64bits(v)) * prime
		}
		w := math.Float64frombits(h ^ target*inv)
		if !(w >= 0 && w <= 1) {
			continue
		}
		d[len(d)-1] = w
		body, err := json.Marshal(NewRequest(y, 0))
		if err != nil {
			t.Fatal(err)
		}
		q, err := DecodeRequest(body, [3]int{shape[0], shape[1], shape[2]})
		if err != nil {
			t.Fatal(err)
		}
		if core.Fingerprint(q.Tensor()) != target {
			t.Fatal("crafted input does not collide after the JSON round trip")
		}
		return y
	}
	t.Fatal("no colliding input found")
	return nil
}

// grepLines extracts the lines of s containing substr, for failure messages.
func grepLines(s, substr string) string {
	var out []string
	for _, ln := range strings.Split(s, "\n") {
		if strings.Contains(ln, substr) {
			out = append(out, ln)
		}
	}
	return strings.Join(out, "\n")
}
