package hpc

import (
	"math"
	"testing"

	"advhunter/internal/rng"
	"advhunter/internal/uarch/branch"
	"advhunter/internal/uarch/cache"
)

func TestEventStringParseRoundTrip(t *testing.T) {
	for _, e := range AllEvents() {
		got, err := ParseEvent(e.String())
		if err != nil || got != e {
			t.Fatalf("round trip failed for %v: %v %v", e, got, err)
		}
	}
	if _, err := ParseEvent("tlb-misses"); err == nil {
		t.Fatal("expected error for unknown event")
	}
}

func TestEventGroups(t *testing.T) {
	if len(CoreEvents()) != 5 {
		t.Fatal("core events")
	}
	if len(CacheAblationEvents()) != 4 {
		t.Fatal("ablation events")
	}
	if len(AllEvents()) != int(NumEvents) {
		t.Fatal("all events")
	}
}

func TestCollectMapping(t *testing.T) {
	cfg := cache.DefaultHierarchyConfig()
	cfg.DTLB = cache.TLBConfig{} // disable translation so counts stay exact
	h := cache.NewHierarchy(cfg)
	bp := branch.NewCounted(branch.NewGShare(10, 8))
	// Generate known activity: two distinct cold lines + one hit.
	h.Load(0x1000, false)
	h.Load(0x1000, false)
	h.Load(0x2000, false)
	h.Store(0x3000, false)
	h.Fetch(0x400000)
	bp.Feed(1, true)
	bp.Feed(1, true)
	bp.Feed(1, false)

	c := Collect(1234, h, bp)
	if c.Get(Instructions) != 1234 {
		t.Fatal("instructions")
	}
	if c.Get(Branches) != 3 {
		t.Fatal("branches")
	}
	if c.Get(BranchMisses) == 0 || c.Get(BranchMisses) > 3 {
		t.Fatalf("branch misses %v", c.Get(BranchMisses))
	}
	if c.Get(L1DLoadMisses) != 2 {
		t.Fatalf("l1d load misses %v", c.Get(L1DLoadMisses))
	}
	if c.Get(L1ILoadMisses) != 1 {
		t.Fatalf("l1i misses %v", c.Get(L1ILoadMisses))
	}
	// Cold hierarchy: every L2 miss reaches the LLC and misses it.
	if c.Get(CacheReferences) != 4 || c.Get(CacheMisses) != 4 {
		t.Fatalf("LLC refs/misses %v/%v", c.Get(CacheReferences), c.Get(CacheMisses))
	}
	if c.Get(LLCLoadMisses)+c.Get(LLCStoreMisses) != c.Get(CacheMisses) {
		t.Fatal("LLC miss split inconsistent")
	}
}

func TestSamplerDeterministic(t *testing.T) {
	truth := Counts{1e6, 2e5, 1e4, 5e3, 800, 2e3, 100, 600, 200, 50}
	a := NewSamplerFrom(DefaultNoise(), rng.New(42)).Sample(truth)
	b := NewSamplerFrom(DefaultNoise(), rng.New(42)).Sample(truth)
	if a != b {
		t.Fatal("equal-seed samplers diverged")
	}
	c := NewSamplerFrom(DefaultNoise(), rng.New(43)).Sample(truth)
	if a == c {
		t.Fatal("different seeds produced identical noise")
	}
}

func TestSampleNonNegativeAndUnbiasedish(t *testing.T) {
	truth := Counts{1e6, 2e5, 1e4, 5e3, 800, 2e3, 100, 600, 200, 50}
	s := NewSamplerFrom(DefaultNoise(), rng.New(7))
	var acc Counts
	const n = 3000
	for i := 0; i < n; i++ {
		one := s.Sample(truth)
		for e := range acc {
			if one[e] < 0 {
				t.Fatal("negative counter reading")
			}
			acc[e] += one[e]
		}
	}
	for e := Event(0); e < NumEvents; e++ {
		mean := acc[e] / n
		// Background contamination only adds counts: mean must sit at or
		// slightly above truth, never far below.
		if mean < truth[e]*0.99 {
			t.Fatalf("%v mean %.1f below truth %.1f", e, mean, truth[e])
		}
		if mean > truth[e]*1.6+50 {
			t.Fatalf("%v mean %.1f wildly above truth %.1f", e, mean, truth[e])
		}
	}
}

func TestRepeatsReduceVariance(t *testing.T) {
	truth := Counts{}
	truth[CacheMisses] = 1000
	varOf := func(repeats int) float64 {
		s := NewSamplerFrom(DefaultNoise(), rng.New(11))
		var vals []float64
		for i := 0; i < 400; i++ {
			vals = append(vals, s.MeasureMean(truth, repeats)[CacheMisses])
		}
		var mean float64
		for _, v := range vals {
			mean += v
		}
		mean /= float64(len(vals))
		var variance float64
		for _, v := range vals {
			variance += (v - mean) * (v - mean)
		}
		return variance / float64(len(vals))
	}
	v1, v10 := varOf(1), varOf(10)
	if v10 >= v1 {
		t.Fatalf("R=10 variance %.2f not below R=1 variance %.2f", v10, v1)
	}
	if v10 > v1/3 {
		t.Fatalf("averaging barely helped: %.2f vs %.2f", v10, v1)
	}
}

func TestNoiseDisturbsQuietEventsLess(t *testing.T) {
	// The relative disturbance of LLC misses must be smaller than that of
	// instructions: this is what makes cache events usable at all.
	truth := Counts{}
	truth[Instructions] = 1e6
	truth[CacheMisses] = 1e6 // same magnitude to compare floors fairly
	s := NewSamplerFrom(DefaultNoise(), rng.New(13))
	var devI, devM float64
	const n = 2000
	for i := 0; i < n; i++ {
		one := s.Sample(truth)
		devI += math.Abs(one[Instructions] - truth[Instructions])
		devM += math.Abs(one[CacheMisses] - truth[CacheMisses])
	}
	if devM >= devI {
		t.Fatalf("cache-miss readings noisier than instructions: %.0f vs %.0f", devM, devI)
	}
}

func TestMeasureMeanPanicsOnZeroRepeats(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewSamplerFrom(DefaultNoise(), rng.New(1)).MeasureMean(Counts{}, 0)
}

func TestEventTextMarshalling(t *testing.T) {
	b, err := CacheMisses.MarshalText()
	if err != nil || string(b) != "cache-misses" {
		t.Fatalf("marshal: %q %v", b, err)
	}
	var e Event
	if err := e.UnmarshalText([]byte("LLC-load-misses")); err != nil || e != LLCLoadMisses {
		t.Fatalf("unmarshal: %v %v", e, err)
	}
	if err := e.UnmarshalText([]byte("bogus")); err == nil {
		t.Fatal("expected error")
	}
}
