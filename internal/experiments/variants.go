package experiments

import (
	"advhunter/internal/core"
	"advhunter/internal/engine"
	"advhunter/internal/parallel"
	"advhunter/internal/rng"
	"advhunter/internal/uarch/hpc"
)

// variant returns e measured by meas instead: the same model, lazily built
// images and crafted adversarial examples, with every measurement cache key
// suffixed by "-"+tag. The tag must identify meas's configuration uniquely.
func (e *Env) variant(tag string, meas *core.Measurer) *Env {
	v := *e
	v.Meas, v.tag = meas, tag
	return &v
}

// machine returns the variant that measures on the default machine after
// edit, with the scenario's noise model, noise seed and repetition count.
func (e *Env) machine(tag string, edit func(*engine.MachineConfig)) *Env {
	cfg := engine.DefaultMachineConfig()
	edit(&cfg)
	m := core.NewMeasurer(engine.New(e.Model.Clone(), cfg), e.Scn.Seed^0xbeef)
	m.Workers = e.Opts.Workers
	return e.variant(tag, m)
}

// truth returns the variant that records noise-free counter snapshots on the
// default machine (one repetition, no noise), from which the noise-protocol
// ablation resamples measurement noise without re-running the simulator.
func (e *Env) truth() *Env {
	return e.variant("truth", &core.Measurer{
		Engine:  engine.NewDefault(e.Model.Clone()),
		R:       1,
		Workers: e.Opts.Workers,
	})
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
