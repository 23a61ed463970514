package twin

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"advhunter/internal/core"
	"advhunter/internal/data"
	"advhunter/internal/engine"
	"advhunter/internal/models"
	"advhunter/internal/uarch/hpc"
)

// The fixture skips training: an untrained model exercises the full profile
// → predict path, and the twin's accuracy against the trained exact path is
// validated end to end by the twin-accuracy experiment.
var (
	twinOnce    sync.Once
	twinSamples []data.Sample
	twinModel   *models.Model
)

func fixture(t testing.TB) ([]data.Sample, *models.Model) {
	t.Helper()
	twinOnce.Do(func() {
		ds := data.MustSynth("fashionmnist", 909, 5, 0)
		twinSamples = ds.Train
		twinModel = models.MustBuild("simplecnn", ds.C, ds.H, ds.W, ds.Classes, 4)
	})
	return twinSamples, twinModel
}

func mustProfile(t testing.TB, e *engine.Engine, samples []data.Sample, knots, workers int) *Table {
	t.Helper()
	tab, err := Profile(e, Probes(samples, 1, 0.1, 11), knots, workers)
	if err != nil {
		t.Fatalf("Profile: %v", err)
	}
	return tab
}

// TestProfileDeterministicAcrossWorkers: the accumulation runs serially in
// probe order, so the table must be bit-identical for any worker count.
func TestProfileDeterministicAcrossWorkers(t *testing.T) {
	samples, model := fixture(t)
	want := mustProfile(t, engine.NewDefault(model), samples, 8, 1)
	for _, workers := range []int{2, 4, 8} {
		got := mustProfile(t, engine.NewDefault(model), samples, 8, workers)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: table differs from serial profile", workers)
		}
	}
}

// TestRoundTripBitStable: profile → Save → TryLoad → Predict must reproduce
// the in-memory table's predictions bit for bit (gob encodes float64
// exactly).
func TestRoundTripBitStable(t *testing.T) {
	samples, model := fixture(t)
	eng := engine.NewDefault(model)
	tab := mustProfile(t, eng, samples, 8, 0)
	path := filepath.Join(t.TempDir(), "twin", "table.gob")
	if err := tab.Save(path); err != nil {
		t.Fatalf("Save: %v", err)
	}
	loaded, ok := TryLoad(path, ModelHash(model), MachineHash(eng.Config()))
	if !ok {
		t.Fatal("TryLoad missed a table that was just saved for the same configuration")
	}
	if !reflect.DeepEqual(loaded, tab) {
		t.Fatal("loaded table differs from the profiled one")
	}
	sp := make([]float64, eng.NumLeaves())
	for i, s := range samples[:5] {
		eng.ForwardStats(s.X, sp)
		var want, got hpc.Counts
		tab.Predict(sp, &want)
		loaded.Predict(sp, &got)
		if want != got {
			t.Fatalf("sample %d: prediction drifted across the round trip: %v vs %v", i, got, want)
		}
	}
}

// TestTryLoadMissNotError: every broken-artifact mode — missing file,
// corrupt bytes, truncation, foreign schema, stale model hash, stale
// machine hash — must read as a miss, never a panic or a false hit.
func TestTryLoadMissNotError(t *testing.T) {
	samples, model := fixture(t)
	eng := engine.NewDefault(model)
	tab := mustProfile(t, eng, samples, 8, 0)
	dir := t.TempDir()
	path := filepath.Join(dir, "table.gob")
	if err := tab.Save(path); err != nil {
		t.Fatalf("Save: %v", err)
	}
	mh, ch := ModelHash(model), MachineHash(eng.Config())

	if _, ok := TryLoad(filepath.Join(dir, "absent.gob"), mh, ch); ok {
		t.Error("missing file loaded")
	}
	if _, ok := TryLoad(path, mh+1, ch); ok {
		t.Error("stale model hash loaded")
	}
	if _, ok := TryLoad(path, mh, ch+1); ok {
		t.Error("stale machine hash loaded")
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	trunc := filepath.Join(dir, "trunc.gob")
	if err := os.WriteFile(trunc, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := TryLoad(trunc, mh, ch); ok {
		t.Error("truncated file loaded")
	}
	corrupt := filepath.Join(dir, "corrupt.gob")
	if err := os.WriteFile(corrupt, []byte("not a gob envelope"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := TryLoad(corrupt, mh, ch); ok {
		t.Error("corrupt file loaded")
	}
}

// TestHashesDiscriminate: retrained weights and changed machine geometry
// must change the respective hashes.
func TestHashesDiscriminate(t *testing.T) {
	_, model := fixture(t)
	other := models.MustBuild("simplecnn", 1, 28, 28, 10, 99)
	if ModelHash(model) == ModelHash(other) {
		t.Error("differently seeded models share a model hash")
	}
	cfg := engine.DefaultMachineConfig()
	cfg2 := cfg
	cfg2.QuantLevels++
	if MachineHash(cfg) == MachineHash(cfg2) {
		t.Error("different quantization levels share a machine hash")
	}
	cfg3 := cfg
	cfg3.Hierarchy.LLC.SizeB *= 2
	if MachineHash(cfg) == MachineHash(cfg3) {
		t.Error("different LLC sizes share a machine hash")
	}
}

// mustTwin builds the twin measurer shadowing a fresh exact measurer of
// model (paper defaults, noise seed 42).
func mustTwin(t testing.TB, model *models.Model, tab *Table) *core.Measurer {
	t.Helper()
	tm, err := FromMeasurer(core.NewMeasurer(engine.NewDefault(model), 42), tab)
	if err != nil {
		t.Fatalf("FromMeasurer: %v", err)
	}
	return tm
}

// TestMeasureAtMatchesProtocol: the twin reading must differ from the exact
// reading only through the truth counts — prediction, confidence and the
// per-index noise stream are shared. Verified by handing the twin's own
// truth to the exact measurer through its truth cache: the exact measurer
// then reads exactly what the twin reads.
func TestMeasureAtMatchesProtocol(t *testing.T) {
	samples, model := fixture(t)
	tab := mustProfile(t, engine.NewDefault(model), samples, 8, 0)
	exact := core.NewMeasurer(engine.NewDefault(model), 42)
	tm, err := FromMeasurer(exact, tab)
	if err != nil {
		t.Fatalf("FromMeasurer: %v", err)
	}
	for i, s := range samples[:6] {
		got := tm.MeasureAt(uint64(i), s.X)
		cache := core.NewTruthCache(1)
		cache.Put(cache.Key(s.X), tm.Clone().Truth(s.X))
		want, hit := exact.MeasureAtCached(cache, uint64(i), s.X)
		if !hit || got != want {
			t.Fatalf("sample %d: twin measurement %+v, protocol says %+v (hit %v)", i, got, want, hit)
		}
		// Prediction and confidence must be bit-identical to the exact path.
		pred, conf, _ := exact.Engine.InferConf(s.X)
		if got.Pred != pred || got.Conf != conf {
			t.Fatalf("sample %d: twin (pred %d, conf %v) differs from exact (pred %d, conf %v)",
				i, got.Pred, got.Conf, pred, conf)
		}
	}
}

// TestFromMeasurerRejectsMismatchedTable: a table profiled for another
// model shape must not become a measurer.
func TestFromMeasurerRejectsMismatchedTable(t *testing.T) {
	samples, model := fixture(t)
	tab := mustProfile(t, engine.NewDefault(model), samples, 8, 0)
	short := *tab
	short.Layers = tab.Layers[:len(tab.Layers)-1]
	if _, err := FromMeasurer(core.NewMeasurer(engine.NewDefault(model), 42), &short); err == nil {
		t.Fatal("FromMeasurer accepted a table with fewer layers than the model has leaves")
	}
}

// TestMeasureAtCachedMatchesUncached mirrors core's cache-soundness test for
// the twin measurer.
func TestMeasureAtCachedMatchesUncached(t *testing.T) {
	samples, model := fixture(t)
	tm := mustTwin(t, model, mustProfile(t, engine.NewDefault(model), samples, 8, 0))
	cache := core.NewTruthCache(8)
	for round := 0; round < 2; round++ {
		for i, s := range samples[:6] {
			want := tm.Clone().MeasureAt(uint64(i), s.X)
			got, hit := tm.MeasureAtCached(cache, uint64(i), s.X)
			if got != want {
				t.Fatalf("round %d sample %d: cached %+v, uncached %+v", round, i, got, want)
			}
			if hit != (round > 0) {
				t.Fatalf("round %d sample %d: hit = %v", round, i, hit)
			}
		}
	}
}

// TestMeasureSetDeterministicAcrossWorkers mirrors core's tentpole
// regression for the twin fan-out.
func TestMeasureSetDeterministicAcrossWorkers(t *testing.T) {
	samples, model := fixture(t)
	tab := mustProfile(t, engine.NewDefault(model), samples, 8, 0)
	measureWith := func(workers int) []core.Measurement {
		tm := mustTwin(t, model, tab)
		tm.Workers = workers
		return core.MeasureSet(tm, samples)
	}
	want := measureWith(1)
	for _, workers := range []int{2, 4, 8} {
		if got := measureWith(workers); !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: measurements differ from serial", workers)
		}
	}
}

// TestMeasureAtZeroAlloc gates the serve-time promise: the twin lookup path
// — forward stats, table predict, noise draw — must not allocate once warm.
func TestMeasureAtZeroAlloc(t *testing.T) {
	samples, model := fixture(t)
	tm := mustTwin(t, model, mustProfile(t, engine.NewDefault(model), samples, 8, 0))
	x := samples[0].X
	for i := 0; i < 3; i++ {
		tm.MeasureAt(uint64(i), x)
	}
	if n := testing.AllocsPerRun(10, func() { tm.MeasureAt(7, x) }); n != 0 {
		t.Fatalf("MeasureAt allocs/op = %v, want 0", n)
	}
}

// TestPredictTracksExactCounts is the in-package accuracy smoke test: on the
// probe distribution itself, per-event relative error of the memory-traffic
// channels should sit well under the noise the detector already tolerates.
// (The trained-model, adversarial-workload validation is the twin-accuracy
// experiment.)
func TestPredictTracksExactCounts(t *testing.T) {
	samples, model := fixture(t)
	eng := engine.NewDefault(model)
	tab := mustProfile(t, eng, samples, DefaultKnots, 0)
	sp := make([]float64, eng.NumLeaves())
	for _, ev := range []hpc.Event{hpc.Instructions, hpc.Branches, hpc.CacheReferences, hpc.CacheMisses} {
		mean, worst := 0.0, 0.0
		for _, s := range samples {
			_, truth := eng.Infer(s.X)
			eng.ForwardStats(s.X, sp)
			var pred hpc.Counts
			tab.Predict(sp, &pred)
			rel := math.Abs(pred[ev]-truth[ev]) / math.Max(truth[ev], 1)
			mean += rel
			if rel > worst {
				worst = rel
			}
		}
		mean /= float64(len(samples))
		t.Logf("%v: mean relative error %.4f, worst %.4f", ev, mean, worst)
		if mean > 0.03 {
			t.Errorf("%v: mean relative error %.4f over the probe pool, want <= 0.03", ev, mean)
		}
		if worst > 0.15 {
			t.Errorf("%v: worst relative error %.4f over the probe pool, want <= 0.15", ev, worst)
		}
	}
}
