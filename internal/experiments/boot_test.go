package experiments

import (
	"path/filepath"
	"sync"
	"testing"

	"advhunter/internal/detect"
)

// TestBootBuildsOnlyWhatServingReads checks that a serving boot on the
// committed cache — LoadEnv plus the default detector — generates no image
// and evaluates no accuracy: the model loads from its checkpoint and the
// detector fits from cached validation measurements.
func TestBootBuildsOnlyWhatServingReads(t *testing.T) {
	env, err := LoadEnv("S2", Options{CacheDir: filepath.Join("..", "..", "artifacts", "cache")})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := env.DetectorKind("gmm", detect.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	// A sync.Once that still runs a function has never run one.
	for _, lazy := range []struct {
		what string
		once *sync.Once
	}{
		{"train/test split", &env.lazy.dsOnce},
		{"validation pool", &env.lazy.valOnce},
		{"test accuracy", &env.lazy.accOnce},
	} {
		built := true
		lazy.once.Do(func() { built = false })
		if built {
			t.Errorf("the boot built the %s", lazy.what)
		}
	}
}

// TestCleanAccuracyOnFirstUse pins the clean accuracy that `advhunter
// train` and table1 report for each table1 scenario (100.00 % for all
// three), evaluated on first use after a checkpoint load.
func TestCleanAccuracyOnFirstUse(t *testing.T) {
	for _, id := range []string{"S1", "S2", "S3"} {
		env, err := LoadEnv(id, Options{CacheDir: filepath.Join("..", "..", "artifacts", "cache")})
		if err != nil {
			t.Fatal(err)
		}
		if got := env.CleanAcc(); got != 1 {
			t.Errorf("%s: clean accuracy %v, want 1", id, got)
		}
	}
}
