package core

import (
	"math"
	"testing"

	"advhunter/internal/engine"
	"advhunter/internal/tensor"
)

func TestFingerprintSensitivity(t *testing.T) {
	a := tensor.FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	if Fingerprint(a) != Fingerprint(a.Clone()) {
		t.Fatal("equal tensors must share a fingerprint")
	}
	b := a.Clone()
	b.Data()[3] = 4.0000001
	if Fingerprint(a) == Fingerprint(b) {
		t.Fatal("a one-ulp-ish data change must change the fingerprint")
	}
	if Fingerprint(a) == Fingerprint(a.Reshape(4, 1)) {
		t.Fatal("same data under a different shape must change the fingerprint")
	}
	z := tensor.FromSlice([]float64{0}, 1)
	nz := tensor.FromSlice([]float64{math.Copysign(0, -1)}, 1)
	if Fingerprint(z) == Fingerprint(nz) {
		t.Fatal("fingerprint must distinguish -0 from +0 like the engine's bit patterns would")
	}
}

// TestTruthCacheKey: the cache key separates exactly what Fingerprint
// separates, allocates nothing, and is keyed per cache, so no fixed input
// pair collides in every process.
func TestTruthCacheKey(t *testing.T) {
	c := NewTruthCache(4)
	a := tensor.FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	if c.Key(a) != c.Key(a.Clone()) {
		t.Fatal("equal tensors must share a key")
	}
	b := a.Clone()
	b.Data()[3] = math.Nextafter(4, 5)
	if c.Key(a) == c.Key(b) {
		t.Fatal("a one-ulp data change must change the key")
	}
	if c.Key(a) == c.Key(a.Reshape(4, 1)) {
		t.Fatal("same data under a different shape must change the key")
	}
	z := tensor.FromSlice([]float64{0}, 1)
	nz := tensor.FromSlice([]float64{math.Copysign(0, -1)}, 1)
	if c.Key(z) == c.Key(nz) {
		t.Fatal("key must distinguish -0 from +0")
	}
	if c.Key(a) == NewTruthCache(4).Key(a) {
		t.Fatal("two caches must key the same input differently")
	}
	big := tensor.New(3, 32, 32)
	if allocs := testing.AllocsPerRun(10, func() { c.Key(big) }); allocs != 0 {
		t.Fatalf("Key allocs/run = %v, want 0", allocs)
	}
}

func TestTruthCacheLRU(t *testing.T) {
	c := NewTruthCache(2)
	c.Put(1, Truth{Pred: 1})
	c.Put(2, Truth{Pred: 2})
	if _, ok := c.Get(1); !ok { // refresh 1 → 2 becomes LRU
		t.Fatal("entry 1 missing")
	}
	c.Put(3, Truth{Pred: 3}) // evicts 2
	if _, ok := c.Get(2); ok {
		t.Fatal("entry 2 should have been evicted as LRU")
	}
	if got, ok := c.Get(1); !ok || got.Pred != 1 {
		t.Fatal("entry 1 should have survived via recency refresh")
	}
	if got, ok := c.Get(3); !ok || got.Pred != 3 {
		t.Fatal("entry 3 should be resident")
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	st := c.Stats()
	if st.Hits != 3 || st.Misses != 1 {
		t.Fatalf("stats %+v, want 3 hits / 1 miss", st)
	}
}

func TestTruthCacheNilIsDisabled(t *testing.T) {
	var c *TruthCache // also what NewTruthCache(0) returns
	if NewTruthCache(0) != nil || NewTruthCache(-5) != nil {
		t.Fatal("non-positive capacity must disable the cache")
	}
	c.Put(1, Truth{})
	if _, ok := c.Get(1); ok {
		t.Fatal("nil cache must always miss")
	}
	if c.Len() != 0 || c.Stats() != (TruthCacheStats{}) {
		t.Fatal("nil cache must report empty state")
	}
}

// TestMeasureAtCachedMatchesUncached is the memoisation soundness test: on
// miss, on hit, and through a nil cache, MeasureAtCached must return exactly
// what MeasureAt returns for the same (index, input) — the noise is keyed by
// index, never by cache state.
func TestMeasureAtCachedMatchesUncached(t *testing.T) {
	samples, m := detFixture()
	ref := NewMeasurer(engine.NewDefault(m.Clone()), 42)
	cached := NewMeasurer(engine.NewDefault(m.Clone()), 42)
	cache := NewTruthCache(8)
	// Indices deliberately revisit inputs: 0,1,0,2,1,0 with fresh indices.
	order := []int{0, 1, 0, 2, 1, 0}
	hits := 0
	for i, si := range order {
		want := ref.MeasureAt(uint64(i), samples[si].X)
		got, hit := cached.MeasureAtCached(cache, uint64(i), samples[si].X)
		if hit {
			hits++
		}
		if got != want {
			t.Fatalf("step %d (sample %d, hit=%v): cached measurement diverged", i, si, hit)
		}
	}
	if hits != 3 {
		t.Fatalf("hits = %d, want 3 (every revisit)", hits)
	}
	if st := cache.Stats(); st.Hits != 3 || st.Misses != 3 {
		t.Fatalf("cache stats %+v", st)
	}
	// nil cache degrades to MeasureAt.
	want := ref.MeasureAt(99, samples[0].X)
	got, hit := cached.MeasureAtCached(nil, 99, samples[0].X)
	if hit || got != want {
		t.Fatal("nil-cache MeasureAtCached must equal MeasureAt")
	}
}

// TestMeasureAtSteadyStateAllocs gates the measurement path's allocation
// behaviour: after warm-up, MeasureAt must not allocate (the Measurement is
// returned by value; noise sampling reuses the measurer's scratch stream).
func TestMeasureAtSteadyStateAllocs(t *testing.T) {
	samples, m := detFixture()
	meas := NewMeasurer(engine.NewDefault(m.Clone()), 42)
	x := samples[0].X
	var sink Measurement
	probe := func() { sink = meas.MeasureAt(7, x) }
	probe()
	probe()
	if allocs := testing.AllocsPerRun(10, probe); allocs != 0 {
		t.Fatalf("MeasureAt allocs/run = %v, want 0", allocs)
	}
	_ = sink
}
