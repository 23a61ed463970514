package serve

import (
	"context"
	"time"

	"advhunter/internal/core"
	"advhunter/internal/detect"
	"advhunter/internal/obs"
	"advhunter/internal/tensor"
)

// Measurer is the one capability the measurement stage needs from a backend:
// a truth-cached, index-keyed measurement. Both *core.Measurer (the exact
// simulator) and *twin.Measurer (the analytical tables) satisfy it, which is
// what lets one MeasurePool type serve either tier.
type Measurer interface {
	// MeasureAtCached measures x under noise index i, consulting c (which may
	// be nil) for the noise-free truth counts. The bool reports a cache hit.
	MeasureAtCached(c *core.TruthCache, i uint64, x *tensor.Tensor) (core.Measurement, bool)
}

// MeasurePool is the measurement stage of the pipeline: a pool of backend
// replicas (one per worker slot, aligned with the parallel scheduler's worker
// indices), the tier's truth-count memoisation cache, and the detector that
// scores the readings. Score is a pure function of (worker-independent state,
// idx, x): every replica is a clone of the same backend and the noise stream
// is keyed by idx, so worker assignment never changes a verdict.
type MeasurePool struct {
	Workers []Measurer
	Truth   *core.TruthCache // nil disables memoisation
	Det     detect.Detector

	// SpanMeasure/SpanScore name the tracing spans ("measure"/"score" for the
	// exact pool, "twin-measure"/"twin-score" for the twin pool).
	SpanMeasure string
	SpanScore   string

	// Hits/Misses count truth-cache outcomes; only read when Truth is set.
	Hits, Misses *obs.Counter
	// Seconds, when non-nil, records the measure-and-score latency.
	Seconds *obs.Histogram
}

// Score measures (idx, x) on the given pool worker and scores the reading,
// recording the configured spans, cache counters, and latency histogram.
func (p *MeasurePool) Score(ctx context.Context, worker int, idx uint64, x *tensor.Tensor) detect.Verdict {
	start := time.Now()
	ctx, sp := obs.StartSpan(ctx, p.SpanMeasure)
	meas, hit := p.Workers[worker].MeasureAtCached(p.Truth, idx, x)
	sp.End()
	obs.TraceFrom(ctx).SetCacheHit(hit)
	if p.Truth != nil {
		if hit {
			p.Hits.Inc()
		} else {
			p.Misses.Inc()
		}
	}
	_, sp = obs.StartSpan(ctx, p.SpanScore)
	v := p.Det.Detect(meas)
	sp.End()
	if p.Seconds != nil {
		p.Seconds.Observe(time.Since(start).Seconds())
	}
	return v
}
