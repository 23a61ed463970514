package detect

import (
	"advhunter/internal/core"
	"advhunter/internal/metrics"
	"advhunter/internal/parallel"
	"advhunter/internal/uarch/hpc"
)

// EvaluateBy scores an arbitrary decision rule over clean (negative) and
// adversarial (positive) measurement sets. Detection is pure (the detector
// is read-only online), so scoring fans out over the given worker count;
// the confusion matrix is accumulated in input order.
func EvaluateBy(d Detector, decide func(Verdict) bool, clean, adv []core.Measurement, workers int) metrics.Confusion {
	flag := func(_ int, m core.Measurement) bool {
		return decide(d.Detect(m))
	}
	var c metrics.Confusion
	for _, flagged := range parallel.Map(workers, clean, flag) {
		c.Add(false, flagged)
	}
	for _, flagged := range parallel.Map(workers, adv, flag) {
		c.Add(true, flagged)
	}
	return c
}

// Evaluate scores the detector's fused decision — the generic replacement
// for the per-family evaluate functions each detector type used to carry.
func Evaluate(d Detector, clean, adv []core.Measurement, workers int) metrics.Confusion {
	return EvaluateBy(d, func(v Verdict) bool { return v.Fused }, clean, adv, workers)
}

// EvaluateEvent scores one event channel's decision rule, mirroring the
// paper's Table 2 protocol. Measurements never flag under a detector that
// has no such channel.
func EvaluateEvent(d Detector, event hpc.Event, clean, adv []core.Measurement, workers int) metrics.Confusion {
	return EvaluateBy(d, func(v Verdict) bool { return v.FlaggedBy(event) }, clean, adv, workers)
}
