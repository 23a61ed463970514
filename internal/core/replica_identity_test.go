package core

import (
	"testing"

	"advhunter/internal/engine"
	"advhunter/internal/tensor"
)

// A server decides each query on whichever measurer replica is free, and
// every replica consults the tier's one shared truth cache. These tests pin
// that neither choice shows in the results: a stream spread across replicas
// returns exactly what one measurer returns walking the stream in order —
// measurement by measurement, hit flag by hit flag.

// TestReplicaMeasuresLikeSequential runs a revisit-heavy stream, the same
// stream over the warm cache, and a nil-cache stream on a cloned replica,
// each against a sequential MeasureAtCached loop on a separately built
// measurer.
func TestReplicaMeasuresLikeSequential(t *testing.T) {
	samples, m := detFixture()
	ref := NewMeasurer(engine.NewDefault(m.Clone()), 42)
	rep := NewMeasurer(engine.NewDefault(m.Clone()), 42).Clone()

	// Revisit-heavy stream: sample order 0,1,0,2,1,0,3,2 under fresh indices.
	order := []int{0, 1, 0, 2, 1, 0, 3, 2}
	idxs := make([]uint64, len(order))
	xs := make([]*tensor.Tensor, len(order))
	for i, si := range order {
		idxs[i] = uint64(i)
		xs[i] = samples[si].X
	}
	refCache := NewTruthCache(8)
	repCache := NewTruthCache(8)
	check := func(label string, refC, repC *TruthCache) {
		t.Helper()
		for i := range xs {
			want, wantH := ref.MeasureAtCached(refC, idxs[i], xs[i])
			got, gotH := rep.MeasureAtCached(repC, idxs[i], xs[i])
			if got != want {
				t.Fatalf("%s step %d (sample %d): replica measurement diverged:\nreplica:    %+v\nsequential: %+v",
					label, i, order[i], got, want)
			}
			if gotH != wantH {
				t.Fatalf("%s step %d: replica hit %v, sequential %v", label, i, gotH, wantH)
			}
		}
	}
	check("cold", refCache, repCache)
	if rl, bl := refCache.Len(), repCache.Len(); rl != bl {
		t.Fatalf("cache residency diverged: replica %d entries, sequential %d", bl, rl)
	}

	// Second pass over a warm cache: every entry hits and still matches.
	for i := range idxs {
		idxs[i] += 100
	}
	check("warm", refCache, repCache)

	// nil cache disables memoisation: results still match, nothing hits.
	for i := range idxs {
		idxs[i] += 100
	}
	check("nil", nil, nil)
}

// TestReplicasSharingCacheMeasureLikeSequential splits one stream into runs
// of varying length, alternating between two replicas that share ONE cache
// (as a server's replicas do), and compares it with the sequential path.
func TestReplicasSharingCacheMeasureLikeSequential(t *testing.T) {
	samples, m := detFixture()
	ref := NewMeasurer(engine.NewDefault(m.Clone()), 42)
	base := NewMeasurer(engine.NewDefault(m.Clone()), 42)
	reps := []*Measurer{base, base.Clone()}
	refCache := NewTruthCache(16)
	shared := NewTruthCache(16)

	next := uint64(0)
	for b, n := range []int{3, 1, 8, 3, 5} {
		rep := reps[b%len(reps)]
		for i := 0; i < n; i++ {
			x := samples[int(next)%len(samples)].X
			want, wantH := ref.MeasureAtCached(refCache, next, x)
			got, gotH := rep.MeasureAtCached(shared, next, x)
			if got != want || gotH != wantH {
				t.Fatalf("run of %d, index %d: replica (%+v, %v), sequential (%+v, %v)",
					n, next, got, gotH, want, wantH)
			}
			next++
		}
	}
}
