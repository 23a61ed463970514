// Package core implements AdvHunter's measurement protocol: run one
// inference on the instrumented engine, read the HPC bank R times under
// measurement noise, and keep the per-event mean (Section 5.2). The offline
// template 𝒟 — per predicted category, the measurements of the validation
// images predicted as it — also lives here.
//
// Scoring and thresholding (the detector proper) live in internal/detect,
// which consumes the Measurement and Template types defined here through a
// pluggable Scorer/Detector abstraction.
package core

import (
	"advhunter/internal/data"
	"advhunter/internal/engine"
	"advhunter/internal/rng"
	"advhunter/internal/tensor"
	"advhunter/internal/uarch/hpc"
)

// CountModel is a source of true counts that stands in for the simulated
// machine: it predicts one inference's noise-free HPC reading from the
// per-leaf input sparsities of a machine-free forward pass
// (Engine.ForwardStats). Predict overwrites every event of out. Replicas
// share one model (Clone copies it), so Predict must be safe for concurrent
// calls. *twin.Table implements it.
type CountModel interface {
	Predict(sp []float64, out *hpc.Counts)
}

// Measurer performs the paper's measurement protocol: run one inference on
// the instrumented engine, read the HPC bank R times under measurement
// noise, and keep the per-event mean. Twin only changes where the true
// counts come from; the protocol around them is the same.
//
// Noise is re-keyed per sample: measurement i draws from the stream
// rng.New(Seed).Split(i), so its counts are a pure function of
// (model, input, Seed, i) — independent of measurement order and of which
// worker performs it. That is what lets MeasureSet fan out over measurer
// replicas and still return bit-identical results for any worker count.
type Measurer struct {
	Engine *engine.Engine
	// Twin, when set, supplies the true counts from the engine's
	// machine-free forward pass instead of the simulated machine (the
	// analytical twin, see twin.FromMeasurer). Prediction and confidence
	// are the same either way.
	Twin CountModel
	// Noise is the measurement-disturbance model applied to true counts.
	Noise hpc.NoiseModel
	// Seed keys the per-sample noise streams.
	Seed uint64
	// R is the repetition count (the paper uses R = 10).
	R int
	// Workers bounds MeasureSet's concurrency: <= 0 selects
	// runtime.GOMAXPROCS(0), 1 forces the serial path. Sequential Measure
	// calls are unaffected.
	Workers int

	// next indexes sequential Measure calls so that a scan sequence is as
	// deterministic as a batch measurement. Not synchronised: a Measurer's
	// sequential API is single-goroutine, like the engine it owns.
	next uint64

	// sp and counts are Truth's scratch under a Twin: the leaf sparsities
	// and the predicted counts. counts is a field rather than a local so
	// that passing its address through the CountModel interface does not
	// move it to the heap.
	sp     []float64
	counts hpc.Counts

	// scratch is the reusable noise rng+sampler, so steady-state measurement
	// does not allocate per sample. Like the engine, a Measurer's measuring
	// methods are single-goroutine; replicas own their scratch.
	scratch noiseScratch
}

// NewMeasurer builds a measurer with the paper's defaults (R=10, default
// noise model).
func NewMeasurer(e *engine.Engine, noiseSeed uint64) *Measurer {
	return &Measurer{
		Engine: e,
		Noise:  hpc.DefaultNoise(),
		Seed:   noiseSeed,
		R:      10,
	}
}

// Clone returns an independent measurer replica for concurrent serving: the
// engine is cloned (shared weights, private μarch state) and the count
// model, noise model, seed and repetition count are copied, so MeasureAt(i,
// x) on a replica returns exactly what the original would return for the
// same (i, x). The sequential-call counter starts fresh; replica users must
// key measurements explicitly through MeasureAt.
func (m *Measurer) Clone() *Measurer {
	return &Measurer{
		Engine:  m.Engine.Clone(),
		Twin:    m.Twin,
		Noise:   m.Noise,
		Seed:    m.Seed,
		R:       m.R,
		Workers: m.Workers,
	}
}

// noiseScratch is a reusable noise rng+sampler pair, embedded in each
// Measurer for its single-goroutine measuring methods.
type noiseScratch struct {
	rand    rng.Rand
	sampler *hpc.Sampler
}

// at rewinds the scratch sampler to sample index i's noise stream: a pure
// function of (model, seed, i). The reseed sequence replicates
// rng.New(seed).Split(i) in place — Split draws one word from the parent
// stream and xors it with the label spread across the golden-ratio constant —
// so the stream is identical to the allocating construction.
func (ns *noiseScratch) at(model hpc.NoiseModel, seed, i uint64) *hpc.Sampler {
	ns.rand.Reseed(seed)
	ns.rand.Reseed(ns.rand.Uint64() ^ (i * 0x9e3779b97f4a7c15))
	if ns.sampler == nil {
		ns.sampler = hpc.NewSamplerFrom(model, &ns.rand)
	}
	ns.sampler.Model = model
	return ns.sampler
}

// Truth computes x's noise-free inference outcome: the engine's simulated
// inference, or under a Twin the machine-free forward pass plus the count
// model's prediction. Steady-state calls allocate nothing.
func (m *Measurer) Truth(x *tensor.Tensor) Truth {
	if m.Twin == nil {
		pred, conf, counts := m.Engine.InferConf(x)
		return Truth{Pred: pred, Conf: conf, Counts: counts}
	}
	if m.sp == nil {
		m.sp = make([]float64, m.Engine.NumLeaves())
	}
	pred, conf := m.Engine.ForwardStats(x, m.sp)
	m.Twin.Predict(m.sp, &m.counts)
	return Truth{Pred: pred, Conf: conf, Counts: m.counts}
}

// MeasureAt measures one image under the noise stream of sample index i.
// TrueLabel is -1: the measurer has no ground truth for an unknown input.
func (m *Measurer) MeasureAt(i uint64, x *tensor.Tensor) Measurement {
	meas, _ := m.MeasureAtCached(nil, i, x)
	return meas
}

// MeasureAtCached is MeasureAt with truth-count memoisation: the noise-free
// inference outcome is looked up in (or inserted into) cache by
// cache.Key(x), and the R noisy readings are then drawn from sample index i's
// stream. Because the noise is keyed by i — never by the truth's provenance —
// the returned Measurement is bit-identical on hit and miss paths. The second
// return reports whether the truth came from the cache. A nil cache never
// hits and stores nothing. A cache holds one measurer's kind of truth: exact
// and twin counts for the same input differ, so the two never share one.
func (m *Measurer) MeasureAtCached(cache *TruthCache, i uint64, x *tensor.Tensor) (Measurement, bool) {
	key := cache.Key(x)
	t, hit := cache.Get(key)
	if !hit {
		t = m.Truth(x)
		cache.Put(key, t)
	}
	meas := Measurement{
		Pred:      t.Pred,
		TrueLabel: -1,
		Counts:    m.scratch.at(m.Noise, m.Seed, i).MeasureMean(t.Counts, m.R),
		Conf:      t.Conf,
	}
	return meas, hit
}

// Measure returns the measurement for one image, assigning sample indices
// in call order.
func (m *Measurer) Measure(x *tensor.Tensor) Measurement {
	i := m.next
	m.next++
	return m.MeasureAt(i, x)
}

// Template is the offline dataset 𝒟: per predicted category, the
// measurements of the validation images predicted as it. Events lists the
// events a per-event detector fits one channel each for.
type Template struct {
	Events  []hpc.Event
	Classes int
	// Rows[c] holds, in input order, the measured validation images whose
	// (hard-label) prediction was c.
	Rows [][]Measurement
}

// NewTemplate allocates an empty template.
func NewTemplate(classes int, events []hpc.Event) *Template {
	return &Template{
		Events:  events,
		Classes: classes,
		Rows:    make([][]Measurement, classes),
	}
}

// Add appends one measured image to the category it was predicted as.
func (t *Template) Add(m Measurement) {
	t.Rows[m.Pred] = append(t.Rows[m.Pred], m)
}

// Column extracts 𝒟_c^e, the per-image means of event e in category c.
func (t *Template) Column(c int, e hpc.Event) []float64 {
	col := make([]float64, len(t.Rows[c]))
	for i, m := range t.Rows[c] {
		col[i] = m.Counts.Get(e)
	}
	return col
}

// BuildTemplate measures every validation image and buckets it under its
// *predicted* category — the only label a hard-label defender observes.
// Measurement fans out over m.Workers; template rows keep input order.
func BuildTemplate(m *Measurer, validation []data.Sample, classes int, events []hpc.Event) *Template {
	t := NewTemplate(classes, events)
	for _, mm := range MeasureSet(m, validation) {
		t.Add(mm)
	}
	return t
}
