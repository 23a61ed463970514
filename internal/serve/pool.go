package serve

import (
	"time"

	"advhunter/internal/core"
	"advhunter/internal/detect"
	"advhunter/internal/obs"
	"advhunter/internal/tensor"
	"advhunter/internal/uarch/hpc"
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

	// stageMeasure/stageScore name the pipeline stages ("measure"/"score"
	// for the exact tier, "twin-measure"/"twin-score" for the twin).
	stageMeasure, stageScore string
	// hits/misses count truth-cache outcomes; only read when truth is set.
	hits, misses *obs.Counter
	// events, when non-nil, receives each reading's per-event mean counts
	// (indexed by hpc.Event); only the exact tier sets it.
	events []*obs.Gauge
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
// recording the pool's two stages, cache counters and event gauges.
func (p *pool) score(st stages, replica int, idx uint64, x *tensor.Tensor) detect.Verdict {
	start := time.Now()
	meas, hit := p.meas[replica].MeasureAtCached(p.truth, idx, x)
	st.stage(p.stageMeasure, start)
	st.tr.SetCacheHit(hit)
	if p.truth != nil {
		if hit {
			p.hits.Inc()
		} else {
			p.misses.Inc()
		}
	}
	for e, g := range p.events {
		g.Set(meas.Counts.Get(hpc.Event(e)))
	}
	start = time.Now()
	v := p.det.Detect(meas)
	st.stage(p.stageScore, start)
	return v
}
