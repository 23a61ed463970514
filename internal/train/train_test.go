package train

import (
	"path/filepath"
	"strings"
	"testing"

	"advhunter/internal/data"
	"advhunter/internal/models"
	"advhunter/internal/tensor"
)

// tinyRun trains a small model briefly and returns the result.
func tinyRun(t *testing.T, epochs int, seed uint64) (*models.Model, *data.Dataset, Result) {
	t.Helper()
	ds := data.MustSynth("fashionmnist", 5, 12, 4)
	m := models.MustBuild("efficientnet", ds.C, ds.H, ds.W, ds.Classes, seed)
	cfg := DefaultConfig()
	cfg.Epochs = epochs
	cfg.Seed = seed
	return m, ds, SGD(m, ds, cfg)
}

func TestSGDReducesLossAndLearns(t *testing.T) {
	_, _, res := tinyRun(t, 4, 1)
	if res.FinalLoss > 1.5 {
		t.Fatalf("loss after 4 epochs: %v", res.FinalLoss)
	}
	if res.TestAccuracy < 0.5 {
		t.Fatalf("test accuracy after 4 epochs: %v", res.TestAccuracy)
	}
}

func TestSGDDeterministic(t *testing.T) {
	m1, _, _ := tinyRun(t, 1, 7)
	m2, _, _ := tinyRun(t, 1, 7)
	p1, p2 := m1.Net.Params(), m2.Net.Params()
	for i := range p1 {
		if !tensor.Equal(p1[i].Value, p2[i].Value, 0) {
			t.Fatalf("parameter %s differs between identical runs", p1[i].Name)
		}
	}
}

func TestEarlyStop(t *testing.T) {
	ds := data.MustSynth("fashionmnist", 6, 15, 5)
	m := models.MustBuild("efficientnet", ds.C, ds.H, ds.W, ds.Classes, 2)
	cfg := DefaultConfig()
	cfg.Epochs = 50
	cfg.TargetAccuracy = 0.5 // trivially reachable
	res := SGD(m, ds, cfg)
	if res.Epochs == 50 {
		t.Fatal("early stop never triggered")
	}
}

func TestEvaluateBounds(t *testing.T) {
	ds := data.MustSynth("cifar10", 7, 2, 1)
	m := models.MustBuild("simplecnn", ds.C, ds.H, ds.W, ds.Classes, 3)
	acc := Evaluate(m, ds.Test)
	if acc < 0 || acc > 1 {
		t.Fatalf("accuracy %v out of range", acc)
	}
	if Evaluate(m, nil) != 0 {
		t.Fatal("empty evaluation")
	}
}

func TestLogOutput(t *testing.T) {
	ds := data.MustSynth("fashionmnist", 8, 4, 2)
	m := models.MustBuild("simplecnn", ds.C, ds.H, ds.W, ds.Classes, 4)
	var sb strings.Builder
	cfg := DefaultConfig()
	cfg.Epochs = 1
	cfg.Log = &sb
	SGD(m, ds, cfg)
	if !strings.Contains(sb.String(), "epoch") {
		t.Fatalf("log output missing: %q", sb.String())
	}
}

func TestCachedTrainsOnceThenLoads(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.gob")
	ds := data.MustSynth("fashionmnist", 9, 8, 4)
	cfg := DefaultConfig()
	cfg.Epochs = 2

	built := 0
	dataset := func() *data.Dataset { built++; return ds }

	m1 := models.MustBuild("efficientnet", ds.C, ds.H, ds.W, ds.Classes, 5)
	_, trained, err := Cached(m1, dataset, cfg, path)
	if err != nil || !trained {
		t.Fatalf("first call: trained=%v err=%v", trained, err)
	}
	m2 := models.MustBuild("efficientnet", ds.C, ds.H, ds.W, ds.Classes, 99)
	_, trained, err = Cached(m2, dataset, cfg, path)
	if err != nil || trained {
		t.Fatalf("second call: trained=%v err=%v", trained, err)
	}
	if built != 1 {
		t.Fatalf("dataset built %d times, want once (loading a checkpoint needs none)", built)
	}
	x, _ := data.Stack(ds.Test[:2])
	if !tensor.Equal(m1.Logits(x.Clone()), m2.Logits(x.Clone()), 1e-12) {
		t.Fatal("cached model differs from trained model")
	}
}

func TestCachedRejectsIncompatibleCheckpoint(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.gob")
	ds := data.MustSynth("fashionmnist", 10, 6, 2)
	cfg := DefaultConfig()
	cfg.Epochs = 1
	dataset := func() *data.Dataset { return ds }
	m := models.MustBuild("simplecnn", ds.C, ds.H, ds.W, ds.Classes, 5)
	if _, _, err := Cached(m, dataset, cfg, path); err != nil {
		t.Fatal(err)
	}
	other := models.MustBuild("efficientnet", ds.C, ds.H, ds.W, ds.Classes, 5)
	if _, _, err := Cached(other, dataset, cfg, path); err == nil {
		t.Fatal("expected error loading a checkpoint of another architecture")
	}
}

func TestSGDPanicsOnBadConfig(t *testing.T) {
	ds := data.MustSynth("fashionmnist", 11, 2, 1)
	m := models.MustBuild("simplecnn", ds.C, ds.H, ds.W, ds.Classes, 5)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	SGD(m, ds, Config{Epochs: 0, BatchSize: 8})
}
