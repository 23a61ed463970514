// Package experiments reproduces every table and figure of the paper's
// evaluation (Section 6) plus the ablations listed in DESIGN.md. Each
// experiment is a function that assembles its workload from a Scenario
// environment, runs the AdvHunter pipeline, and renders the same rows or
// series the paper reports.
//
// Everything expensive — model training, adversarial-example crafting, and
// instrumented measurement — is cached on disk under the options' cache
// directory, keyed by scenario and workload, so iterating on an experiment
// re-uses prior work. All workloads are deterministic, which is what makes
// the cache sound.
package experiments

import (
	"fmt"
	"io"
	"path/filepath"
	"sync"

	"advhunter/internal/attack"
	"advhunter/internal/core"
	"advhunter/internal/data"
	"advhunter/internal/detect"
	"advhunter/internal/engine"
	"advhunter/internal/models"
	"advhunter/internal/rng"
	"advhunter/internal/tensor"
	"advhunter/internal/train"
	"advhunter/internal/uarch/hpc"
)

// Scenario describes one evaluation setting of Table 1 (plus the Figure-1
// case study).
type Scenario struct {
	ID      string
	Dataset string
	Arch    string
	// TargetClass is the class targeted attacks steer toward (the paper's
	// 'shirt' / 'frog' / 'speed limit (30km/h)' choices).
	TargetClass int
	// TemplateM is the per-category validation size used by default
	// (Figure 6 reports where the F1 saturates; these match).
	TemplateM int
	// Sizing of the synthetic splits.
	TrainPerClass, TestPerClass, ValPerClass int
	// Training hyperparameters.
	LearningRate   float64
	Epochs         int
	TargetAccuracy float64
	Seed           uint64
}

// Scenarios lists the paper's three evaluation settings and the Figure-1
// case-study network.
var Scenarios = map[string]Scenario{
	"S1": {
		ID: "S1", Dataset: "fashionmnist", Arch: "efficientnet",
		TargetClass:   6, // shirt
		TemplateM:     30,
		TrainPerClass: 40, TestPerClass: 20, ValPerClass: 90,
		LearningRate: 0.05, Epochs: 12, TargetAccuracy: 0.9999, Seed: 101,
	},
	"S2": {
		ID: "S2", Dataset: "cifar10", Arch: "resnet18",
		TargetClass:   6, // frog
		TemplateM:     40,
		TrainPerClass: 40, TestPerClass: 20, ValPerClass: 90,
		LearningRate: 0.05, Epochs: 12, TargetAccuracy: 0.9999, Seed: 102,
	},
	"S3": {
		ID: "S3", Dataset: "gtsrb", Arch: "densenet",
		TargetClass:   1, // speed limit (30km/h)
		TemplateM:     60,
		TrainPerClass: 30, TestPerClass: 8, ValPerClass: 80,
		LearningRate: 0.05, Epochs: 10, TargetAccuracy: 0.9999, Seed: 103,
	},
	// CS is the Figure-1 case study: the 4-conv/2-FC CNN on CIFAR-10.
	"CS": {
		ID: "CS", Dataset: "cifar10", Arch: "simplecnn",
		TargetClass:   2, // bird
		TemplateM:     40,
		TrainPerClass: 40, TestPerClass: 20, ValPerClass: 90,
		LearningRate: 0.02, Epochs: 25, TargetAccuracy: 0.9999, Seed: 104,
	},
}

// Options configure an experiment run.
type Options struct {
	// CacheDir holds trained models and measurement caches. Empty disables
	// caching (everything is recomputed).
	CacheDir string
	// Quick shrinks workloads (fewer attack sources, fewer resamples) for
	// use in tests; published numbers use Quick=false.
	Quick bool
	// Workers bounds the concurrency of measurement, attack crafting,
	// evaluation, and variant sweeps: <= 0 selects runtime.GOMAXPROCS(0),
	// 1 forces serial execution. Results are identical for any value.
	Workers int
	// Log receives progress lines; nil silences them.
	Log io.Writer
}

// logf writes a progress line if a log sink is configured.
func (o Options) logf(format string, args ...any) {
	if o.Log != nil {
		fmt.Fprintf(o.Log, format+"\n", args...)
	}
}

// Env is a materialised scenario: a converged model and the instrumented
// measurer. The train/test split, the validation images and the clean test
// accuracy are built on first use (Data, ValidationPool, CleanAcc), so a
// boot that serves from cached measurements generates no image at all.
//
// An Env may also be a variant of its scenario (see variant): the same
// model, images and crafted adversarial examples, measured by another
// Measurer under measurement cache keys suffixed with "-"+tag.
type Env struct {
	Scn   Scenario
	Opts  Options
	Model *models.Model
	Meas  *core.Measurer

	// tag suffixes the measurement cache keys; "" on the scenario's own
	// measurement stack.
	tag  string
	lazy *lazyData
}

// lazyData is what an Env builds on first use. A scenario and its variants
// share one, so each is built at most once.
type lazyData struct {
	dsOnce  sync.Once
	ds      *data.Dataset
	accOnce sync.Once
	acc     float64
	valOnce sync.Once
	valPool []data.Sample
}

// cachePath returns a path under the scenario's schema-versioned cache
// directory, or "" when caching is disabled.
func (e *Env) cachePath(name string) string {
	if e.Opts.CacheDir == "" {
		return ""
	}
	return filepath.Join(e.Opts.CacheDir, cacheVersionDir, e.Scn.ID, name)
}

// testScenarioID, when non-empty, redirects every LoadEnv call to the named
// scenario. The registry smoke test sets it so each registered experiment —
// most hard-code S1/S2/S3 — exercises its full pipeline on the miniature
// TEST scenario instead of training the real models.
var testScenarioID string

// LoadEnv builds (or restores from cache) the scenario environment.
func LoadEnv(id string, opts Options) (*Env, error) {
	if testScenarioID != "" {
		if _, ok := Scenarios[id]; ok {
			id = testScenarioID
		}
	}
	scn, ok := Scenarios[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown scenario %q", id)
	}
	shape, err := data.Describe(scn.Dataset)
	if err != nil {
		return nil, err
	}
	m, err := models.Build(scn.Arch, shape.C, shape.H, shape.W, shape.Classes, scn.Seed)
	if err != nil {
		return nil, err
	}
	env := &Env{Scn: scn, Opts: opts, Model: m, lazy: &lazyData{}}

	cfg := train.DefaultConfig()
	cfg.Epochs = scn.Epochs
	cfg.LearningRate = scn.LearningRate
	cfg.TargetAccuracy = scn.TargetAccuracy
	cfg.Seed = scn.Seed

	res, trained := train.Result{}, true
	if ckpt := env.cachePath("model.gob"); ckpt != "" {
		if res, trained, err = train.Cached(m, env.Data, cfg, ckpt); err != nil {
			return nil, fmt.Errorf("experiments: training %s: %w", id, err)
		}
	} else {
		res = train.SGD(m, env.Data(), cfg)
	}
	if trained {
		opts.logf("[%s] trained %s/%s to %.2f%% test accuracy (%d epochs)",
			id, scn.Dataset, scn.Arch, 100*res.TestAccuracy, res.Epochs)
		env.lazy.accOnce.Do(func() { env.lazy.acc = res.TestAccuracy })
	} else {
		opts.logf("[%s] loaded cached model", id)
	}

	env.Meas = core.NewMeasurer(engine.NewDefault(m), scn.Seed^0xbeef)
	env.Meas.Workers = opts.Workers
	return env, nil
}

// Classes is the scenario's category count.
func (e *Env) Classes() int { return e.Model.Meta.Classes }

// Data returns the scenario's train/test split, generated on first use.
func (e *Env) Data() *data.Dataset {
	l := e.lazy
	l.dsOnce.Do(func() {
		l.ds = data.MustSynth(e.Scn.Dataset, e.Scn.Seed, e.Scn.TrainPerClass, e.Scn.TestPerClass)
	})
	return l.ds
}

// CleanAcc returns the model's accuracy on the clean test split: the figure
// training reported, or, for a model loaded from its checkpoint, an
// evaluation run on first use.
func (e *Env) CleanAcc() float64 {
	l := e.lazy
	l.accOnce.Do(func() { l.acc = train.Evaluate(e.Model, e.Data().Test) })
	return l.acc
}

// ValidationPool returns the defender's clean validation images —
// ValPerClass per category, generated independently of train and test.
// Safe to call from concurrent variant sweeps (initialised once).
func (e *Env) ValidationPool() []data.Sample {
	l := e.lazy
	l.valOnce.Do(func() {
		pool := data.MustSynth(e.Scn.Dataset, e.Scn.Seed^0x5a5a, e.Scn.ValPerClass, 0)
		l.valPool = pool.Train
	})
	return l.valPool
}

// measureCached measures the n samples that samples() returns with e.Meas,
// caching under key (suffixed with a variant's tag). A cache hit of n rows
// never calls samples, so the images are only built to be measured.
func (e *Env) measureCached(key string, n int, samples func() []data.Sample) ([]core.Measurement, error) {
	if e.tag != "" {
		key += "-" + e.tag
	}
	path := e.cachePath("meas-" + key + ".gob")
	if path != "" {
		var cached []core.Measurement
		if err := loadGob(path, &cached); err == nil && len(cached) == n {
			return cached, nil
		}
	}
	e.Opts.logf("[%s] measuring %d images (%s)…", e.Scn.ID, n, key)
	ms := core.MeasureSet(e.Meas, samples())
	if path != "" {
		if err := saveGob(path, ms); err != nil {
			return nil, err
		}
	}
	return ms, nil
}

// given wraps samples already in hand for measureCached.
func given(ss []data.Sample) func() []data.Sample {
	return func() []data.Sample { return ss }
}

// validationSize is the validation pool's length: ValPerClass images of
// every category.
func (e *Env) validationSize() int { return e.Scn.ValPerClass * e.Classes() }

// testSize is the test split's length: TestPerClass images of every
// category.
func (e *Env) testSize() int { return e.Scn.TestPerClass * e.Classes() }

// testSplit returns the clean test images.
func (e *Env) testSplit() []data.Sample { return e.Data().Test }

// ValidationMeasurements measures the full validation pool (cached).
func (e *Env) ValidationMeasurements() ([]core.Measurement, error) {
	return e.measureCached("validation", e.validationSize(), e.ValidationPool)
}

// TestMeasurements measures the full clean test split (cached).
func (e *Env) TestMeasurements() ([]core.Measurement, error) {
	return e.measureCached("test-clean", e.testSize(), e.testSplit)
}

// TemplateFromMeasurements assembles the offline template from the first m
// measurements bucketed under each predicted category.
func TemplateFromMeasurements(ms []core.Measurement, classes, m int, events []hpc.Event) *core.Template {
	t := core.NewTemplate(classes, events)
	taken := make([]int, classes)
	for _, meas := range ms {
		if meas.Pred < 0 || meas.Pred >= classes || taken[meas.Pred] >= m {
			continue
		}
		t.Add(meas)
		taken[meas.Pred]++
	}
	return t
}

// Detector fits the default AdvHunter detector (the paper's per-event GMM
// backend) over all events with the scenario's template size.
func (e *Env) Detector() (*detect.Fitted, error) {
	return e.DetectorKind("gmm", detect.DefaultConfig())
}

// DetectorKind fits any registered detector backend over all events with the
// scenario's template size — the entry point of the backend-comparison
// experiment.
func (e *Env) DetectorKind(kind string, cfg detect.Config) (*detect.Fitted, error) {
	ms, err := e.ValidationMeasurements()
	if err != nil {
		return nil, err
	}
	tpl := TemplateFromMeasurements(ms, e.Classes(), e.Scn.TemplateM, hpc.AllEvents())
	return detect.Fit(kind, tpl, cfg)
}

// AttackSpec names a crafted adversarial workload.
type AttackSpec struct {
	// Kind is "fgsm", "pgd" or "deepfool".
	Kind string
	// Eps is the attack strength (ignored by deepfool).
	Eps float64
	// Targeted selects the targeted variant (toward the scenario target).
	Targeted bool
}

// Key renders a stable cache key.
func (a AttackSpec) Key() string {
	v := "u"
	if a.Targeted {
		v = "t"
	}
	return fmt.Sprintf("%s-%s-%g", a.Kind, v, a.Eps)
}

// String renders the paper-style description.
func (a AttackSpec) String() string {
	v := "untargeted"
	if a.Targeted {
		v = "targeted"
	}
	if a.Kind == "deepfool" {
		return fmt.Sprintf("DeepFool (%s)", v)
	}
	return fmt.Sprintf("%s %s ε=%g", kindName(a.Kind), v, a.Eps)
}

func kindName(k string) string {
	switch k {
	case "fgsm":
		return "FGSM"
	case "pgd":
		return "PGD"
	case "mim":
		return "MIM"
	case "deepfool":
		return "DeepFool"
	case "noise":
		return "random noise"
	}
	return k
}

// build constructs the attack object.
func (a AttackSpec) build(target int, seed uint64) (attack.Attack, error) {
	switch a.Kind {
	case "fgsm":
		if a.Targeted {
			return attack.NewTargetedFGSM(a.Eps, target), nil
		}
		return attack.NewFGSM(a.Eps), nil
	case "pgd":
		if a.Targeted {
			return attack.NewTargetedPGD(a.Eps, target, rng.New(seed)), nil
		}
		return attack.NewPGD(a.Eps, rng.New(seed)), nil
	case "mim":
		if a.Targeted {
			return attack.NewTargetedMIM(a.Eps, target), nil
		}
		return attack.NewMIM(a.Eps), nil
	case "deepfool":
		if a.Targeted {
			return attack.NewTargetedDeepFool(target), nil
		}
		return attack.NewDeepFool(), nil
	case "noise":
		// Control, not an attack: bounded random perturbation.
		return attack.NewRandomNoise(a.Eps, rng.New(seed)), nil
	default:
		return nil, fmt.Errorf("experiments: unknown attack kind %q", a.Kind)
	}
}

// AttackResult is a crafted-and-measured adversarial workload. Only
// successful adversarial examples (those achieving the attack goal) are
// measured — they are the inputs AdvHunter must flag.
type AttackResult struct {
	Spec AttackSpec
	// SuccessRate and ModelAccuracy summarise the attack itself (the
	// "effectiveness" series of Figure 4).
	SuccessRate   float64
	ModelAccuracy float64
	// Meas holds one measurement per successful adversarial example;
	// TrueLabel carries the source category.
	Meas []core.Measurement
}

// attackSources selects the attack's source images from the test split:
// correctly-classified images, excluding the target class for targeted
// attacks, capped at n and balanced across source categories (round-robin)
// so per-category evaluations like Table 2 see every class.
func (e *Env) attackSources(targeted bool, n int) []data.Sample {
	buckets := data.ByClass(e.Data().Test, e.Classes())
	var out []data.Sample
	for depth := 0; len(out) < n; depth++ {
		found := false
		for c := 0; c < e.Classes() && len(out) < n; c++ {
			if targeted && c == e.Scn.TargetClass {
				continue
			}
			if depth >= len(buckets[c]) {
				continue
			}
			s := buckets[c][depth]
			found = true
			if e.Model.Predict(s.X) != s.Label {
				continue
			}
			out = append(out, s)
		}
		if !found {
			break // every bucket exhausted
		}
	}
	return out
}

// sampleDTO is the gob-serialisable form of a data.Sample.
type sampleDTO struct {
	Data  []float64
	Shape []int
	Label int
}

func toDTOs(ss []data.Sample) []sampleDTO {
	out := make([]sampleDTO, len(ss))
	for i, s := range ss {
		out[i] = sampleDTO{Data: append([]float64(nil), s.X.Data()...), Shape: s.X.Shape(), Label: s.Label}
	}
	return out
}

func fromDTOs(ds []sampleDTO) []data.Sample {
	out := make([]data.Sample, len(ds))
	for i, d := range ds {
		out[i] = data.Sample{X: tensor.FromSlice(d.Data, d.Shape...), Label: d.Label}
	}
	return out
}

// craftedSet is the cached form of one attack's crafted workload.
type craftedSet struct {
	Spec          AttackSpec
	SuccessRate   float64
	ModelAccuracy float64
	Successful    []sampleDTO
}

// samples returns the crafted images as samples.
func (c *craftedSet) samples() []data.Sample { return fromDTOs(c.Successful) }

// Craft crafts (or loads) the successful adversarial examples for one attack
// spec. The images themselves are cached so machine-variant ablations can
// re-measure them without re-running the attacker: the file is not tagged, so
// a scenario and its variants share it.
func (e *Env) Craft(spec AttackSpec, nSources int) (*craftedSet, error) {
	path := e.cachePath(fmt.Sprintf("aes-%s-n%d.gob", spec.Key(), nSources))
	if path != "" {
		var cached craftedSet
		if err := loadGob(path, &cached); err == nil && cached.Spec == spec {
			return &cached, nil
		}
	}
	atk, err := spec.build(e.Scn.TargetClass, e.Scn.Seed^0x77)
	if err != nil {
		return nil, err
	}
	sources := e.attackSources(spec.Targeted, nSources)
	if len(sources) == 0 {
		return nil, fmt.Errorf("experiments: no attack sources for %s", spec.Key())
	}
	e.Opts.logf("[%s] crafting %s on %d sources…", e.Scn.ID, spec, len(sources))
	crafted := attack.CraftParallel(e.Model, atk, sources, e.Opts.Workers)
	set := &craftedSet{
		Spec:          spec,
		SuccessRate:   crafted.SuccessRate,
		ModelAccuracy: crafted.ModelAccuracy,
		Successful:    toDTOs(attack.Successful(atk, crafted)),
	}
	if path != "" {
		if err := saveGob(path, set); err != nil {
			return nil, err
		}
	}
	return set, nil
}

// Attack crafts (or loads) the workload for one attack spec and measures the
// successful adversarial examples with e.Meas.
func (e *Env) Attack(spec AttackSpec, nSources int) (*AttackResult, error) {
	set, err := e.Craft(spec, nSources)
	if err != nil {
		return nil, err
	}
	meas, err := e.measureCrafted(set, nSources)
	if err != nil {
		return nil, err
	}
	return &AttackResult{
		Spec:          spec,
		SuccessRate:   set.SuccessRate,
		ModelAccuracy: set.ModelAccuracy,
		Meas:          meas,
	}, nil
}

// measureCrafted measures a crafted set's successful examples with e.Meas,
// cached under the key of the attack that crafted them from nSources images.
func (e *Env) measureCrafted(set *craftedSet, nSources int) ([]core.Measurement, error) {
	return e.measureCached(fmt.Sprintf("ae-%s-n%d", set.Spec.Key(), nSources), len(set.Successful), set.samples)
}

// CleanMeasurements returns the negatives of an attack's evaluation protocol
// among the clean test measurements (see negatives).
func (e *Env) CleanMeasurements(targeted bool) ([]core.Measurement, error) {
	all, err := e.TestMeasurements()
	if err != nil {
		return nil, err
	}
	return e.negatives(all, targeted), nil
}

// negatives filters clean test measurements down to an attack's negatives:
// for a targeted attack, images of the target class predicted as it; for an
// untargeted one, every correctly classified image.
func (e *Env) negatives(all []core.Measurement, targeted bool) []core.Measurement {
	var out []core.Measurement
	for _, m := range all {
		if m.Pred == m.TrueLabel && (!targeted || m.Pred == e.Scn.TargetClass) {
			out = append(out, m)
		}
	}
	return out
}
