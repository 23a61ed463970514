package serve

import "advhunter/internal/obs"

// DefaultAlertRules is the stock rule set for a detection service, bound to
// the families this package exports:
//
//   - latency-p99: the p99 of /detect latency over the last minute exceeds
//     250 ms — the pipeline (queue + measurement) is burning its budget.
//   - error-rate: more than 5% of requests over the last minute were turned
//     away (429) or failed (5xx) — sustained overload or faults, not the
//     occasional backpressure blip.
//   - detect-drift: the adversarial flag rate has risen more than 3σ above
//     the clean-traffic baseline fitted from the first qualifying
//     evaluations — the paper's deployment signal that an attack campaign,
//     not background noise, is in progress.
//
// The returned rules are fresh stateful values: each call builds a new set,
// and one set must not be shared between engines.
func DefaultAlertRules() []obs.Rule {
	return []obs.Rule{
		&obs.LatencyBurnRule{
			RuleName:  "latency-p99",
			Family:    "advhunter_request_duration_seconds",
			Q:         0.99,
			Threshold: 0.25,
		},
		&obs.ErrorRateRule{
			RuleName:  "error-rate",
			Family:    "advhunter_requests_total",
			Threshold: 0.05,
		},
		&obs.DriftRule{
			RuleName: "detect-drift",
			Scans:    "advhunter_scans_total",
			Flagged:  "advhunter_flagged_total",
		},
	}
}
