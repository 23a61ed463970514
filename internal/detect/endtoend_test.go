package detect

import (
	"sync"
	"testing"

	"advhunter/internal/attack"
	"advhunter/internal/core"
	"advhunter/internal/data"
	"advhunter/internal/engine"
	"advhunter/internal/models"
	"advhunter/internal/train"
	"advhunter/internal/uarch/hpc"
)

// e2e holds the shared end-to-end fixture: a trained classifier, its
// instrumented engine, a fitted detector and measured clean/adversarial
// sets.
type e2e struct {
	ds    *data.Dataset
	meas  *core.Measurer
	tpl   *core.Template
	det   *Fitted
	clean []core.Measurement // clean test images predicted as the target class
	adv   []core.Measurement // successful targeted AEs (predicted target class)
}

var (
	e2eOnce sync.Once
	e2eFix  *e2e
)

const e2eTarget = 6 // 'shirt'

func getE2E(t *testing.T) *e2e {
	t.Helper()
	e2eOnce.Do(func() {
		ds := data.MustSynth("fashionmnist", 77, 40, 20)
		m := models.MustBuild("simplecnn", ds.C, ds.H, ds.W, ds.Classes, 9)
		cfg := train.DefaultConfig()
		cfg.Epochs = 30
		cfg.LearningRate = 0.02
		cfg.TargetAccuracy = 0.999
		res := train.SGD(m, ds, cfg)
		if res.TestAccuracy < 0.85 {
			return
		}
		meas := core.NewMeasurer(engine.NewDefault(m), 1234)

		// Offline phase: template from the training split (defender's
		// clean validation set), M = 40 per class.
		tpl := core.BuildTemplate(meas, ds.Train, ds.Classes, hpc.CoreEvents())
		det, err := Fit("gmm", tpl, DefaultConfig())
		if err != nil {
			return
		}

		// Clean negatives: test images of the target class.
		var cleanSamples []data.Sample
		for _, s := range ds.Test {
			if s.Label == e2eTarget {
				cleanSamples = append(cleanSamples, s)
			}
		}
		// Positives: targeted FGSM AEs from other classes, successful only.
		atk := attack.NewTargetedFGSM(0.5, e2eTarget)
		var sources []data.Sample
		for _, s := range ds.Test {
			if s.Label != e2eTarget && len(sources) < 60 {
				sources = append(sources, s)
			}
		}
		crafted := attack.Craft(m, atk, sources)
		advSamples := attack.Successful(atk, crafted)
		if len(advSamples) < 20 {
			return
		}
		e2eFix = &e2e{
			ds:    ds,
			meas:  meas,
			tpl:   tpl,
			det:   det,
			clean: core.MeasureSet(meas, cleanSamples),
			adv:   core.MeasureSet(meas, advSamples),
		}
	})
	if e2eFix == nil {
		t.Fatal("end-to-end fixture failed to build (training or attack collapsed)")
	}
	return e2eFix
}

// TestEndToEndCacheMissesDetect is the repository's headline assertion: on
// the full pipeline, the cache-misses event separates clean inputs from
// adversarial ones (the paper reports F1 ≈ 0.99 for this configuration).
func TestEndToEndCacheMissesDetect(t *testing.T) {
	f := getE2E(t)
	conf := EvaluateEvent(f.det, hpc.CacheMisses, f.clean, f.adv, 0)
	t.Logf("cache-misses: %v acc=%.3f F1=%.3f (clean=%d adv=%d)",
		conf, conf.Accuracy(), conf.F1(), len(f.clean), len(f.adv))
	if conf.F1() < 0.9 {
		t.Fatalf("cache-misses F1 = %.3f, expected strong separation", conf.F1())
	}
}

// TestEndToEndWeakEvents verifies the paper's negative result: instruction
// and branch counts carry (almost) no signal.
func TestEndToEndWeakEvents(t *testing.T) {
	f := getE2E(t)
	for _, e := range []hpc.Event{hpc.Instructions, hpc.Branches} {
		conf := EvaluateEvent(f.det, e, f.clean, f.adv, 0)
		t.Logf("%v: acc=%.3f F1=%.3f", e, conf.Accuracy(), conf.F1())
		if conf.Recall() > 0.5 {
			t.Fatalf("%v detected %.0f%% of AEs; it should be uninformative",
				e, 100*conf.Recall())
		}
	}
}

// TestEndToEndOrdering: cache-misses must dominate the weak events, the
// paper's central comparative claim (Table 2's last row).
func TestEndToEndOrdering(t *testing.T) {
	f := getE2E(t)
	cm := EvaluateEvent(f.det, hpc.CacheMisses, f.clean, f.adv, 0).F1()
	instr := EvaluateEvent(f.det, hpc.Instructions, f.clean, f.adv, 0).F1()
	br := EvaluateEvent(f.det, hpc.Branches, f.clean, f.adv, 0).F1()
	if cm <= instr || cm <= br {
		t.Fatalf("event ordering violated: cache-misses %.3f vs instructions %.3f, branches %.3f", cm, instr, br)
	}
}

// TestEndToEndPipelineScan exercises the deployed shape: measure, then detect.
func TestEndToEndPipelineScan(t *testing.T) {
	f := getE2E(t)
	res := f.det.Detect(f.meas.Measure(f.ds.Test[0].X))
	if len(res.Scores) != len(hpc.CoreEvents()) {
		t.Fatalf("scan returned %d scores", len(res.Scores))
	}
}

// TestEndToEndFalsePositiveRate: clean inputs of *all* classes should rarely
// trip the cache-misses rule (the 3σ rule bounds false positives).
func TestEndToEndFalsePositiveRate(t *testing.T) {
	f := getE2E(t)
	flags := 0
	all := core.MeasureSet(f.meas, f.ds.Test[:80])
	for _, m := range all {
		if f.det.Detect(m).FlaggedBy(hpc.CacheMisses) {
			flags++
		}
	}
	if rate := float64(flags) / float64(len(all)); rate > 0.15 {
		t.Fatalf("clean false-positive rate %.2f too high", rate)
	}
}

// TestEndToEndAlternativeBackends: the new density backends must hold up on
// the real pipeline too, not just on synthetic columns — each reaches the
// same qualitative separation on cache-misses through the unified API.
func TestEndToEndAlternativeBackends(t *testing.T) {
	if testing.Short() {
		t.Skip("fits every backend on the full fixture; skipped in -short mode")
	}
	f := getE2E(t)
	for _, kind := range []string{"gauss", "kde", "knn"} {
		det, err := Fit(kind, f.tpl, DefaultConfig())
		if err != nil {
			t.Fatalf("Fit(%q): %v", kind, err)
		}
		conf := EvaluateEvent(det, hpc.CacheMisses, f.clean, f.adv, 0)
		t.Logf("%s cache-misses: acc=%.3f F1=%.3f", kind, conf.Accuracy(), conf.F1())
		if conf.F1() < 0.8 {
			t.Fatalf("%s: cache-misses F1 = %.3f on the end-to-end fixture", kind, conf.F1())
		}
	}
}
