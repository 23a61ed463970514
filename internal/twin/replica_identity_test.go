package twin

import (
	"math"
	"testing"

	"advhunter/internal/core"
	"advhunter/internal/engine"
	"advhunter/internal/uarch/hpc"
)

// TestPredictOverwritesAndClamps pins the table lookup over a sequence of
// sparsity rows written into ONE reused Counts: every row's prediction equals
// a fresh lookup, bit for bit, so Predict's zeroing leaves nothing behind, and
// out-of-range sparsities clamp to [0, 1].
func TestPredictOverwritesAndClamps(t *testing.T) {
	samples, model := fixture(t)
	tab := mustProfile(t, engine.NewDefault(model), samples, 8, 0)
	leaves := len(tab.Layers)
	row := func(f func(j int) float64) []float64 {
		sp := make([]float64, leaves)
		for j := range sp {
			sp[j] = f(j)
		}
		return sp
	}
	rows := [][]float64{
		row(func(int) float64 { return 0 }),
		row(func(j int) float64 { return float64(j%10) / 10 }),
		row(func(int) float64 { return 1.5 }),   // clamps to 1
		row(func(int) float64 { return -0.25 }), // clamps to 0
	}
	var reused hpc.Counts
	for i, sp := range rows {
		tab.Predict(sp, &reused)
		var want hpc.Counts
		tab.Predict(sp, &want)
		for ev := hpc.Event(0); ev < hpc.NumEvents; ev++ {
			if math.Float64bits(reused[ev]) != math.Float64bits(want[ev]) {
				t.Fatalf("row %d event %v: reused %v, fresh %v", i, ev, reused[ev], want[ev])
			}
		}
	}
	var one, zero, over, under hpc.Counts
	tab.Predict(row(func(int) float64 { return 1 }), &one)
	tab.Predict(rows[0], &zero)
	tab.Predict(rows[2], &over)
	tab.Predict(rows[3], &under)
	if over != one || under != zero {
		t.Fatal("out-of-range sparsities must clamp to [0, 1]")
	}
}

// TestTwinReplicasSharingCacheMeasureLikeSequential is the twin form of
// core's replica contract: runs of varying length, alternating between two
// replicas that share ONE twin cache, match a sequential MeasureAtCached loop
// measurement for measurement — hit flags, revisits, warm caches, nil cache.
func TestTwinReplicasSharingCacheMeasureLikeSequential(t *testing.T) {
	samples, model := fixture(t)
	tab := mustProfile(t, engine.NewDefault(model), samples, 8, 0)
	ref := mustTwin(t, model, tab)
	base := mustTwin(t, model, tab)
	reps := []*core.Measurer{base, base.Clone()}
	refCache := core.NewTruthCache(16)
	shared := core.NewTruthCache(16)

	// Revisit-heavy first run, then interleaved lengths over the warm cache.
	orders := [][]int{
		{0, 1, 0, 2, 1, 0, 3, 2},
		{4},
		{0, 4, 3},
		{2, 1, 4, 0, 3, 2, 1, 0},
	}
	next := uint64(0)
	for b, order := range orders {
		rep := reps[b%len(reps)]
		for _, si := range order {
			x := samples[si%len(samples)].X
			want, wantH := ref.MeasureAtCached(refCache, next, x)
			got, gotH := rep.MeasureAtCached(shared, next, x)
			if got != want {
				t.Fatalf("run of %d, index %d: replica twin measurement diverged:\nreplica:    %+v\nsequential: %+v",
					len(order), next, got, want)
			}
			if gotH != wantH {
				t.Fatalf("run of %d, index %d: replica hit %v, sequential %v", len(order), next, gotH, wantH)
			}
			next++
		}
	}
	if rl, bl := refCache.Len(), shared.Len(); rl != bl {
		t.Fatalf("twin cache residency diverged: replicas %d entries, sequential %d", bl, rl)
	}

	// nil cache: no memoisation, identical readings.
	for _, si := range []int{0, 1, 0} {
		want, _ := ref.MeasureAtCached(nil, next, samples[si].X)
		got, hit := reps[1].MeasureAtCached(nil, next, samples[si].X)
		if hit {
			t.Fatalf("index %d: nil-cache twin measurement reported a hit", next)
		}
		if got != want {
			t.Fatalf("index %d: nil-cache twin measurement diverged", next)
		}
		next++
	}
}
