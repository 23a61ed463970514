package serve

import (
	"context"
	"time"

	"advhunter/internal/core"
	"advhunter/internal/detect"
	"advhunter/internal/obs"
	"advhunter/internal/tensor"
)

// pool is one tier's measurement stage: a measurer replica per server
// replica, the tier's truth-count cache, and the detector that scores the
// readings. score is a pure function of (idx, x): every replica is a clone
// of the same measurer and the noise stream is keyed by idx, so which
// replica measures a query never changes its verdict.
type pool struct {
	meas  []*core.Measurer
	truth *core.TruthCache // nil disables memoisation
	det   detect.Detector

	// spanMeasure/spanScore name the tracing spans ("measure"/"score" for
	// the exact tier, "twin-measure"/"twin-score" for the twin).
	spanMeasure, spanScore string
	// hits/misses count truth-cache outcomes; only read when truth is set.
	hits, misses *obs.Counter
	// seconds, when non-nil, records the measure-and-score latency.
	seconds *obs.Histogram
}

// replicate returns one measurer per server replica: m itself for replica 0
// and clones for the rest.
func replicate(m *core.Measurer, replicas int) []*core.Measurer {
	meas := make([]*core.Measurer, replicas)
	meas[0] = m
	for w := 1; w < replicas; w++ {
		meas[w] = m.Clone()
	}
	return meas
}

// score measures (idx, x) on the given replica and scores the reading,
// recording the pool's spans, cache counters, and latency histogram.
func (p *pool) score(ctx context.Context, replica int, idx uint64, x *tensor.Tensor) detect.Verdict {
	start := time.Now()
	ctx, sp := obs.StartSpan(ctx, p.spanMeasure)
	meas, hit := p.meas[replica].MeasureAtCached(p.truth, idx, x)
	sp.End()
	obs.TraceFrom(ctx).SetCacheHit(hit)
	if p.truth != nil {
		if hit {
			p.hits.Inc()
		} else {
			p.misses.Inc()
		}
	}
	_, sp = obs.StartSpan(ctx, p.spanScore)
	v := p.det.Detect(meas)
	sp.End()
	if p.seconds != nil {
		p.seconds.Observe(time.Since(start).Seconds())
	}
	return v
}
