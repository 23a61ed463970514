package detect

import (
	"encoding/gob"
	"fmt"
	"math"

	"advhunter/internal/core"
	"advhunter/internal/uarch/hpc"
)

func init() {
	gob.RegisterName("detect.confidenceScorer", &confidenceScorer{})
	Register(Backend{
		Kind:        "confidence",
		Description: "soft-label baseline: −log softmax confidence of the predicted class (needs white-box scores)",
		New: func(t *core.Template, cfg Config) ([]Scorer, error) {
			return []Scorer{&confidenceScorer{Classes: t.Classes}}, nil
		},
	})
}

// confidenceScorer is the soft-label baseline the paper compares against:
// it ignores the side channel entirely and scores −log(confidence) of the
// predicted class. It exists to show what AdvHunter achieves *without*
// breaking the hard-label threat model; its thresholds come from the
// template's recorded confidences through the same generic kσ rule.
type confidenceScorer struct {
	// Classes is the category count (also keeps the struct non-empty,
	// which gob requires of interface-encoded values).
	Classes int
}

func (s *confidenceScorer) Channel() string { return "confidence" }

func (s *confidenceScorer) Fit(t *core.Template, cfg Config) error {
	s.Classes = t.Classes
	return nil
}

func (s *confidenceScorer) Score(q core.Measurement) (float64, bool) {
	if q.Pred < 0 || q.Pred >= s.Classes {
		return 0, false
	}
	return -math.Log(math.Max(q.Conf, 1e-300)), true
}

func (s *confidenceScorer) validate(classes int, _ []hpc.Event) error {
	if s.Classes != classes {
		return fmt.Errorf("detect: confidence scorer has %d categories, want %d", s.Classes, classes)
	}
	return nil
}
