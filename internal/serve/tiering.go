package serve

import (
	"context"

	"advhunter/internal/detect"
	"advhunter/internal/obs"
	"advhunter/internal/tensor"
)

// Tiering is the decision stage of the pipeline: given one admitted query it
// produces the verdict and the tier label recorded in the response ("" under
// plain exact serving, keeping those response bodies byte-identical to
// pre-tier versions). Implementations must be pure functions of (idx, x) so
// the tier chosen — and the response — never depends on scheduling or worker
// assignment.
type Tiering interface {
	Decide(ctx context.Context, worker int, idx uint64, x *tensor.Tensor) (detect.Verdict, string)
}

// exactTiering serves every query from the exact pool. The empty tier label
// is deliberate: plain exact serving predates tiering and its responses must
// not change shape.
type exactTiering struct {
	pool *MeasurePool
}

func (t exactTiering) Decide(ctx context.Context, worker int, idx uint64, x *tensor.Tensor) (detect.Verdict, string) {
	return t.pool.Score(ctx, worker, idx, x), ""
}

// twinTiering serves every query from the twin pool.
type twinTiering struct {
	pool    *MeasurePool
	decided *obs.Counter // advhunter_tier_requests_total{tier="twin"}
}

func (t twinTiering) Decide(ctx context.Context, worker int, idx uint64, x *tensor.Tensor) (detect.Verdict, string) {
	v := t.pool.Score(ctx, worker, idx, x)
	t.decided.Inc()
	return v, TierTwin
}

// autoTiering screens every query with the twin pool and escalates the
// twin-uncertain ones to the exact pool, tracking agreement between the two
// tiers on escalated queries.
type autoTiering struct {
	twin, exact *MeasurePool
	twinDet     detect.Detector // the detector whose uncertainty band gates escalation
	decIdx      int
	margin      float64

	screened     *obs.Counter
	escalations  *obs.Counter
	twinDecided  *obs.Counter
	exactDecided *obs.Counter
	agreement    *obs.Counter
}

func (t autoTiering) Decide(ctx context.Context, worker int, idx uint64, x *tensor.Tensor) (detect.Verdict, string) {
	v := t.twin.Score(ctx, worker, idx, x)
	t.screened.Inc()
	if !t.uncertain(v) {
		t.twinDecided.Inc()
		return v, TierTwin
	}
	t.escalations.Inc()
	ev := t.exact.Score(ctx, worker, idx, x)
	t.exactDecided.Inc()
	if adversarialAt(v, t.decIdx) == adversarialAt(ev, t.decIdx) {
		t.agreement.Inc()
	}
	return ev, TierExact
}

// uncertain decides whether a twin verdict must escalate to the exact tier:
// the twin detector's own uncertainty band around the service decision
// channel. Detectors that cannot introspect their thresholds escalate
// everything — correct, just never faster than exact-only serving.
func (t autoTiering) uncertain(v detect.Verdict) bool {
	u, ok := t.twinDet.(detect.Uncertainty)
	if !ok {
		return true
	}
	return u.Uncertain(v, t.decIdx, t.margin)
}

// adversarialAt applies the service decision rule to one verdict: the
// configured decision event's channel when the detector has one, otherwise
// the detector's own fused decision.
func adversarialAt(v detect.Verdict, decIdx int) bool {
	if decIdx >= 0 {
		return v.Flags[decIdx]
	}
	return v.Fused
}
