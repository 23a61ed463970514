package experiments

import (
	"fmt"

	"advhunter/internal/core"
	"advhunter/internal/detect"
	"advhunter/internal/engine"
	"advhunter/internal/metrics"
	"advhunter/internal/parallel"
	"advhunter/internal/rng"
	"advhunter/internal/uarch/hpc"
)

// Variant is an alternative measurement stack (machine model and/or noise
// protocol) used by the ablation experiments. Tag must uniquely identify the
// configuration — it keys the on-disk measurement caches.
type Variant struct {
	Tag     string
	Machine engine.MachineConfig
	Noise   hpc.NoiseModel
	R       int
}

// DefaultVariant mirrors the main experiments' stack.
func DefaultVariant() Variant {
	return Variant{
		Tag:     "default",
		Machine: engine.DefaultMachineConfig(),
		Noise:   hpc.DefaultNoise(),
		R:       10,
	}
}

// measurer builds the variant's measurement stack for the environment's
// model.
func (e *Env) variantMeasurer(v Variant) *core.Measurer {
	return &core.Measurer{
		Engine:  engine.New(e.Model.Clone(), v.Machine),
		Noise:   v.Noise,
		Seed:    e.Scn.Seed ^ 0xbeef,
		R:       v.R,
		Workers: e.Opts.Workers,
	}
}

// VariantEvaluation measures validation pool, clean test set and the given
// attack's AEs on the variant stack, fits a detector, and returns the
// confusion for the requested event. All measurement passes are cached under
// the variant tag.
func (e *Env) VariantEvaluation(v Variant, spec AttackSpec, nSources int, event hpc.Event) (metrics.Confusion, error) {
	meas := e.variantMeasurer(v)
	valMeas, err := e.measureCached(meas, "validation-"+v.Tag, e.validationSize(), e.ValidationPool)
	if err != nil {
		return metrics.Confusion{}, err
	}
	tpl := TemplateFromMeasurements(valMeas, e.Classes(), e.Scn.TemplateM, hpc.AllEvents())
	det, err := detect.Fit("gmm", tpl, detect.DefaultConfig())
	if err != nil {
		return metrics.Confusion{}, err
	}
	testMeas, err := e.measureCached(meas, "test-clean-"+v.Tag, e.testSize(), e.testSplit)
	if err != nil {
		return metrics.Confusion{}, err
	}
	var clean []core.Measurement
	for _, m := range testMeas {
		if spec.Targeted {
			if m.Pred == e.Scn.TargetClass && m.TrueLabel == e.Scn.TargetClass {
				clean = append(clean, m)
			}
		} else if m.Pred == m.TrueLabel {
			clean = append(clean, m)
		}
	}
	set, err := e.Craft(spec, nSources)
	if err != nil {
		return metrics.Confusion{}, err
	}
	aeMeas, err := e.measureCached(meas, fmt.Sprintf("ae-%s-n%d-%s", spec.Key(), nSources, v.Tag), len(set.Successful), set.samples)
	if err != nil {
		return metrics.Confusion{}, err
	}
	return detect.EvaluateEvent(det, event, clean, aeMeas, e.Opts.Workers), nil
}

// TruthMeasurements returns noise-free per-image counter snapshots for the
// named sample set ("validation", "test", or an attack key), used by the
// noise-protocol ablation to re-sample measurement noise without re-running
// the simulator.
func (e *Env) TruthMeasurements(which string, spec AttackSpec, nSources int) ([]core.Measurement, error) {
	truthMeas := &core.Measurer{
		Engine:  engine.NewDefault(e.Model.Clone()),
		Noise:   hpc.NoiseModel{},
		Seed:    0,
		R:       1,
		Workers: e.Opts.Workers,
	}
	switch which {
	case "validation":
		return e.measureCached(truthMeas, "validation-truth", e.validationSize(), e.ValidationPool)
	case "test":
		return e.measureCached(truthMeas, "test-clean-truth", e.testSize(), e.testSplit)
	case "attack":
		set, err := e.Craft(spec, nSources)
		if err != nil {
			return nil, err
		}
		return e.measureCached(truthMeas, fmt.Sprintf("ae-%s-n%d-truth", spec.Key(), nSources), len(set.Successful), set.samples)
	default:
		panic("experiments: unknown truth set " + which)
	}
}

// resampleNoise applies a measurement protocol (noise model + repeat count)
// to truth measurements, producing what a defender running that protocol
// would record. Noise is re-keyed per sample (rng.New(seed).Split(i)), so the
// resampled set is a pure function of (truth, noise, repeats, seed) for any
// worker count.
func resampleNoise(truth []core.Measurement, noise hpc.NoiseModel, repeats int, seed uint64, workers int) []core.Measurement {
	return parallel.Map(workers, truth, func(i int, m core.Measurement) core.Measurement {
		s := hpc.NewSamplerFrom(noise, rng.New(seed).Split(uint64(i)))
		return core.Measurement{Pred: m.Pred, TrueLabel: m.TrueLabel, Counts: s.MeasureMean(m.Counts, repeats), Conf: m.Conf}
	})
}

// engineCoRunner builds a co-runner config (helper for the ablation grids).
func engineCoRunner(everyN, burst int) engine.CoRunnerConfig {
	return engine.CoRunnerConfig{EveryN: everyN, Burst: burst, FootprintB: 1 << 20, Seed: 7}
}
