// Package detect is the pluggable detection stack on top of core's
// measurement protocol. A detector is a set of Scorers — one anomaly score
// per decision channel — plus per-(channel, category) thresholds derived
// from the clean template by the paper's kσ rule. Every detector family
// (the per-event GMMs of the paper, the multivariate fusion extension, the
// soft-label confidence baseline, and the Mahalanobis/KDE/k-NN variants)
// is a registered backend behind the same Fit / Detect / Evaluate / persist
// code path, selected by name.
package detect

import (
	"advhunter/internal/core"
	"advhunter/internal/gmm"
	"advhunter/internal/uarch/hpc"
)

// The paper's fixed detector settings (Section 5.3).
const (
	// maxComponents caps the BIC search over GMM component counts (paper:
	// small).
	maxComponents = 5
	// thresholdSigmas is the threshold multiplier of the paper's 3σ rule:
	// Δ_c = mean + 3·std of the category's template scores.
	thresholdSigmas = 3
	// minTemplateRows is the smallest per-category template size modelled.
	minTemplateRows = 4
	// knnNeighbours is the neighbour count of the k-NN backend.
	knnNeighbours = 5
)

// Config controls detector fitting, across all backends. Backends ignore
// the knobs that do not apply to them.
type Config struct {
	// GMM seeds the EM fits (gmm and fusion backends).
	GMM gmm.Config
	// ForceK, when positive, disables BIC selection and fits exactly K
	// components (the single-Gaussian ablation uses ForceK = 1).
	ForceK int
	// DecisionEvent names the channel that decides Verdict.Fused (paper:
	// cache-misses). A single-channel combinator backend (fusion,
	// confidence) decides by its only channel; any other detector must have
	// this event's channel, or Fit fails.
	DecisionEvent hpc.Event
	// FusionEvents is the event subset the fusion backend models jointly;
	// empty means every template event.
	FusionEvents []hpc.Event
}

// DefaultDecisionEvent is the paper's deciding counter: an input is flagged
// when its cache-misses score is beyond its category's threshold.
const DefaultDecisionEvent = hpc.CacheMisses

// DefaultMargin is the default escalation band of Uncertain: the auto
// serving tier's, and the two-tier evaluation's.
const DefaultMargin = 0.15

// DefaultConfig mirrors the paper's settings.
func DefaultConfig() Config {
	return Config{
		GMM:           gmm.DefaultConfig(),
		DecisionEvent: DefaultDecisionEvent,
	}
}

// Scorer is one decision channel of a detector: an anomaly score over
// measurements, fitted per predicted category on the clean template.
// Implementations live in this package (the unexported validate method,
// which guards deserialized state, seals the interface); new scorers are
// added by registering a backend.
type Scorer interface {
	// Channel names the score stream (an event name for per-event scorers,
	// "fusion" or "confidence" for the combinators).
	Channel() string
	// Fit estimates the scorer's per-category parameters from the template,
	// skipping the categories canModel rejects.
	Fit(t *core.Template, cfg Config) error
	// Score returns the anomaly score of a measurement under the model of
	// its predicted category; ok is false when that category is unmodelled
	// by this scorer.
	// Implementations are read-only, so one fitted scorer may serve
	// concurrent callers.
	Score(q core.Measurement) (float64, bool)
	// validate checks structural invariants of (possibly deserialized)
	// scorer state, so a corrupt artifact can never panic Detect.
	validate(classes int, events []hpc.Event) error
}

// Detector is a fitted detector: Detect maps one measurement to a Verdict.
type Detector interface {
	// Kind is the backend name the detector was fitted under.
	Kind() string
	// Events lists the template events the detector was fitted on.
	Events() []hpc.Event
	// Channels names the score streams, aligned with Verdict.Scores/Flags.
	Channels() []string
	// Detect runs the online phase on one measured reading.
	Detect(q core.Measurement) Verdict
	// Uncertain reports whether v's score on the decision channel lies
	// within margin·(1+|threshold|) of that channel's threshold for v's
	// predicted category: the auto tier escalates such a twin verdict to
	// the exact tier.
	Uncertain(v Verdict, margin float64) bool
}

// Verdict is one online-phase decision: the per-channel scores and flags,
// and the fused decision.
type Verdict struct {
	PredictedClass int
	// Channels names each score stream (shared, read-only).
	Channels []string
	// Scores[i] is the anomaly score of channel i (0 when unmodelled).
	Scores []float64
	// Flags[i] reports Scores[i] > threshold for the predicted category.
	Flags []bool
	// Modelled reports whether the predicted category had a template.
	Modelled bool
	// Fused is the detector's decision: the flag of its decision channel.
	Fused bool

	// eventIdx maps events to channel indices (shared with the detector,
	// read-only) so FlaggedBy is O(1) instead of a scan per call.
	eventIdx map[hpc.Event]int
}

// FlaggedBy reports whether the named event's channel flagged the input;
// false when the detector has no such channel.
func (v Verdict) FlaggedBy(e hpc.Event) bool {
	if i, ok := v.eventIdx[e]; ok {
		return v.Flags[i]
	}
	return false
}

// AnyFlag reports whether any channel flagged the input (OR fusion).
func (v Verdict) AnyFlag() bool {
	for _, f := range v.Flags {
		if f {
			return true
		}
	}
	return false
}
