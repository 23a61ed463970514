package detect

import (
	"math"
	"path/filepath"
	"sync"
	"testing"

	"advhunter/internal/core"
	"advhunter/internal/rng"
)

// A serving pool shares one fitted detector across every replica, and each
// replica scores its batch one query at a time. These tests pin what that
// relies on: a verdict depends on its query alone — not on the batch around
// it, the goroutine scoring it, or whether the detector came from disk.

// batchSizes are the batch widths the identity tests sweep: the width-1
// degenerate case, odd widths, and widths past the serving default.
var batchSizes = []int{1, 3, 8, 17}

// batchQueries builds a query mix that exercises every scorer branch:
// modelled classes at benign and anomalous levels, in-batch repeats of the
// same level, and out-of-range / negative predictions.
func batchQueries(classes, n int, seed uint64) []core.Measurement {
	r := rng.New(seed)
	qs := make([]core.Measurement, 0, n)
	for i := 0; i < n; i++ {
		c := i % classes
		switch {
		case i%7 == 5:
			q := synthMeasurement(r, c, 1000+200*float64(c))
			q.Pred = classes + 3 // out of range: unmodelled everywhere
			qs = append(qs, q)
		case i%7 == 6:
			q := synthMeasurement(r, c, 1000+200*float64(c))
			q.Pred = -1
			qs = append(qs, q)
		case i%3 == 0:
			qs = append(qs, synthMeasurement(r, c, 5000)) // anomalous level
		default:
			qs = append(qs, synthMeasurement(r, c, 1000+200*float64(c)))
		}
	}
	return qs
}

// requireVerdictIdentity compares two verdicts field by field, bitwise on
// the scores.
func requireVerdictIdentity(t *testing.T, kind string, i int, got, want Verdict) {
	t.Helper()
	if got.PredictedClass != want.PredictedClass || got.Modelled != want.Modelled || got.Fused != want.Fused {
		t.Fatalf("%s: query %d: verdict %+v, want %+v", kind, i, got, want)
	}
	if len(got.Scores) != len(want.Scores) {
		t.Fatalf("%s: query %d: %d scores, want %d", kind, i, len(got.Scores), len(want.Scores))
	}
	for si := range want.Scores {
		if math.Float64bits(got.Scores[si]) != math.Float64bits(want.Scores[si]) {
			t.Fatalf("%s: query %d channel %d: score %v (bits %x), want %v (bits %x)",
				kind, i, si, got.Scores[si], math.Float64bits(got.Scores[si]),
				want.Scores[si], math.Float64bits(want.Scores[si]))
		}
		if got.Flags[si] != want.Flags[si] {
			t.Fatalf("%s: query %d channel %d: flag %v, want %v", kind, i, si, got.Flags[si], want.Flags[si])
		}
	}
}

// TestScorerConcurrentMatchesSerial pins the Scorer sharing contract: for every
// registered backend, one scorer scoring a batch from several goroutines at
// once returns exactly what it returns scoring the batch serially, bit for
// bit, across batch widths and the full query mix. Under -race this also
// checks that Score never writes scorer state.
func TestScorerConcurrentMatchesSerial(t *testing.T) {
	const classes = 3
	tpl := synthTemplate(classes, 60, 21)
	for _, kind := range Kinds() {
		d := mustFit(t, kind, tpl, DefaultConfig())
		for _, n := range batchSizes {
			qs := batchQueries(classes, n, uint64(100*n+len(kind)))
			for _, s := range d.scorers {
				out := make([]float64, n)
				oks := make([]bool, n)
				var wg sync.WaitGroup
				for g := 0; g < 4; g++ {
					wg.Add(1)
					go func(g int) {
						defer wg.Done()
						for i := g; i < n; i += 4 {
							out[i], oks[i] = s.Score(qs[i])
						}
					}(g)
				}
				wg.Wait()
				for i, q := range qs {
					want, wok := s.Score(q)
					if oks[i] != wok || math.Float64bits(out[i]) != math.Float64bits(want) {
						t.Fatalf("%s/%s: n=%d query %d: concurrent (%v, %v), serial (%v, %v)",
							kind, s.Channel(), n, i, out[i], oks[i], want, wok)
					}
				}
			}
		}
	}
}

// TestDetectMatchesQueryAlone pins the Detector contract over a batch: each
// query's verdict equals the verdict of that query detected alone, in
// reverse batch order, and the verdicts carry independently mutable
// Scores/Flags state.
func TestDetectMatchesQueryAlone(t *testing.T) {
	const classes = 3
	tpl := synthTemplate(classes, 60, 33)
	for _, kind := range Kinds() {
		d := mustFit(t, kind, tpl, DefaultConfig())
		for _, n := range batchSizes {
			qs := batchQueries(classes, n, uint64(200*n+len(kind)))
			vs := make([]Verdict, n)
			for i, q := range qs {
				vs[i] = d.Detect(q)
			}
			for i := n - 1; i >= 0; i-- {
				requireVerdictIdentity(t, kind, i, vs[i], d.Detect(qs[i]))
			}
			// Verdicts are response state: mutating one must not alias another.
			if n >= 2 && len(vs[0].Scores) > 0 {
				before := vs[1].Scores[0]
				vs[0].Scores[0] = math.Inf(1)
				if vs[1].Scores[0] != before {
					t.Fatalf("%s: verdict scores alias across batch entries", kind)
				}
			}
		}
	}
}

// TestPersistedDetectorMatchesFresh covers the load path: a detector that went
// through Save → TryLoad must return, over the full query mix, verdicts
// bit-identical to the freshly fitted one.
func TestPersistedDetectorMatchesFresh(t *testing.T) {
	const classes = 3
	tpl := synthTemplate(classes, 60, 47)
	for _, kind := range []string{"gmm", "gauss", "fusion"} {
		d := mustFit(t, kind, tpl, DefaultConfig())
		path := filepath.Join(t.TempDir(), kind+".gob")
		if err := Save(path, d); err != nil {
			t.Fatalf("Save(%q): %v", kind, err)
		}
		loaded, ok := TryLoad(path)
		if !ok {
			t.Fatalf("TryLoad(%q) missed a fresh artifact", kind)
		}
		for i, q := range batchQueries(classes, 17, 61) {
			requireVerdictIdentity(t, kind+"/persisted", i, loaded.Detect(q), d.Detect(q))
		}
	}
}
