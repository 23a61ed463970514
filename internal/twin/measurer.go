package twin

import (
	"fmt"

	"advhunter/internal/core"
	"advhunter/internal/data"
	"advhunter/internal/engine"
	"advhunter/internal/parallel"
	"advhunter/internal/tensor"
	"advhunter/internal/uarch/hpc"
)

// Measurer is the twin measurement backend: the same shape as core.Measurer
// — MeasureAt(i, x) yields one Measurement whose noise stream is keyed by
// the sample index — but the truth counts come from table lookup over a
// machine-free forward pass instead of cache simulation. Prediction and
// confidence are bit-identical to the exact path (the forward numerics are
// shared); only the counts are approximate.
//
// Like core.Measurer, the measuring methods are single-goroutine; Clone
// builds independent replicas for concurrent serving.
type Measurer struct {
	Engine *engine.Engine
	Table  *Table
	// Noise, Seed and R follow the exact measurer's protocol so that a twin
	// reading for (i, x) differs from the exact reading only through the
	// predicted truth counts, never through the noise draw.
	Noise hpc.NoiseModel
	Seed  uint64
	R     int

	sp []float64
	ns core.NoiseStream
}

// NewMeasurer builds a twin backend around an engine (used only for its
// machine-free forward pass) and a profiled table for the same model.
func NewMeasurer(e *engine.Engine, t *Table, noise hpc.NoiseModel, seed uint64, r int) (*Measurer, error) {
	if err := t.validate(); err != nil {
		return nil, err
	}
	if n := e.NumLeaves(); n != len(t.Layers) {
		return nil, fmt.Errorf("twin: table has %d layers, model has %d leaves", len(t.Layers), n)
	}
	return &Measurer{
		Engine: e,
		Table:  t,
		Noise:  noise,
		Seed:   seed,
		R:      r,
		sp:     make([]float64, len(t.Layers)),
	}, nil
}

// FromMeasurer derives the twin backend shadowing an exact measurer: a
// fresh engine replica plus the identical noise protocol (model, seed,
// repetition count).
func FromMeasurer(m *core.Measurer, t *Table) (*Measurer, error) {
	return NewMeasurer(m.Engine.Clone(), t, m.Noise, m.Seed, m.R)
}

// Clone returns an independent replica: private engine and scratch, shared
// (read-only) table.
func (m *Measurer) Clone() *Measurer {
	return &Measurer{
		Engine: m.Engine.Clone(),
		Table:  m.Table,
		Noise:  m.Noise,
		Seed:   m.Seed,
		R:      m.R,
		sp:     make([]float64, len(m.sp)),
	}
}

// Truth computes the twin's noise-free inference outcome: exact prediction
// and confidence from the machine-free forward pass, predicted counts from
// the table. Steady-state calls allocate nothing.
func (m *Measurer) Truth(x *tensor.Tensor) core.Truth {
	pred, conf := m.Engine.ForwardStats(x, m.sp)
	t := core.Truth{Pred: pred, Conf: conf}
	m.Table.Predict(m.sp, &t.Counts)
	return t
}

// MeasureAt measures one image under the noise stream of sample index i,
// following core.Measurer's protocol with twin truth counts.
func (m *Measurer) MeasureAt(i uint64, x *tensor.Tensor) core.Measurement {
	t := m.Truth(x)
	return core.Measurement{
		Pred:      t.Pred,
		TrueLabel: -1,
		Counts:    m.ns.SamplerAt(m.Noise, m.Seed, i).MeasureMean(t.Counts, m.R),
		Conf:      t.Conf,
	}
}

// MeasureAtCached is MeasureAt with twin-truth memoisation, mirroring
// core.Measurer.MeasureAtCached: bit-identical results on hit and miss, with
// the hit skipping even the machine-free forward pass. The cache must be
// dedicated to twin truths — twin and exact counts for the same input
// differ, so the caches must never be shared across tiers.
func (m *Measurer) MeasureAtCached(cache *core.TruthCache, i uint64, x *tensor.Tensor) (core.Measurement, bool) {
	if cache == nil {
		return m.MeasureAt(i, x), false
	}
	fp := core.Fingerprint(x)
	t, hit := cache.Get(fp)
	if !hit {
		t = m.Truth(x)
		cache.Put(fp, t)
	}
	return core.Measurement{
		Pred:      t.Pred,
		TrueLabel: -1,
		Counts:    m.ns.SamplerAt(m.Noise, m.Seed, i).MeasureMean(t.Counts, m.R),
		Conf:      t.Conf,
	}, hit
}

// MeasureSet measures a slice of samples with per-index noise keying,
// mirroring core.MeasureSet: results are bit-identical for any worker count
// (<= 0 selects GOMAXPROCS), and TrueLabel carries the sample's label.
func MeasureSet(m *Measurer, samples []data.Sample, workers int) []core.Measurement {
	workers = parallel.Workers(workers, len(samples))
	reps := make([]*Measurer, workers)
	reps[0] = m
	for w := 1; w < workers; w++ {
		reps[w] = m.Clone()
	}
	return parallel.MapWorkers(workers, samples, func(worker, i int, s data.Sample) core.Measurement {
		mm := reps[worker].MeasureAt(uint64(i), s.X)
		mm.TrueLabel = s.Label
		return mm
	})
}
