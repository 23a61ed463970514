package detect

import (
	"fmt"
	"math"

	"advhunter/internal/core"
	"advhunter/internal/metrics"
	"advhunter/internal/uarch/hpc"
)

func init() {
	registerPerEvent("gauss", "per-(category, event) single Gaussian scored by Mahalanobis distance |x−μ|/σ",
		func(e hpc.Event, n int) Scorer { return &gaussScorer{Event: e, Index: n} })
}

// gaussScorer models one event per category as a single Gaussian and scores
// by the (one-dimensional) Mahalanobis distance — the cheapest parametric
// backend, and the closed-form cousin of the ForceK=1 GMM ablation.
type gaussScorer struct {
	Event hpc.Event
	Index int
	// Mean and Std are per category; degenerate columns get Std 1 so the
	// distance stays finite. Ok marks modelled categories.
	Mean []float64
	Std  []float64
	Ok   []bool
}

func (s *gaussScorer) Channel() string { return s.Event.String() }

func (s *gaussScorer) Fit(t *core.Template, cfg Config) error {
	s.Mean = make([]float64, t.Classes)
	s.Std = make([]float64, t.Classes)
	s.Ok = make([]bool, t.Classes)
	return fitColumns(t, s.Event, func(c int, col []float64) error {
		mu, sd := metrics.MeanStd(col)
		if sd == 0 {
			sd = 1
		}
		s.Mean[c], s.Std[c], s.Ok[c] = mu, sd, true
		return nil
	})
}

func (s *gaussScorer) Score(q core.Measurement) (float64, bool) {
	if q.Pred < 0 || q.Pred >= len(s.Ok) || !s.Ok[q.Pred] {
		return 0, false
	}
	return math.Abs(q.Counts.Get(s.Event)-s.Mean[q.Pred]) / s.Std[q.Pred], true
}

func (s *gaussScorer) validate(classes int, _ []hpc.Event) error {
	if s.Event < 0 || s.Event >= hpc.NumEvents {
		return fmt.Errorf("detect: gauss scorer has invalid event %d", int(s.Event))
	}
	if len(s.Ok) != classes || len(s.Mean) != classes || len(s.Std) != classes {
		return fmt.Errorf("detect: gauss scorer has inconsistent category count")
	}
	for c, ok := range s.Ok {
		if ok && !(s.Std[c] > 0) {
			return fmt.Errorf("detect: gauss scorer category %d has non-positive std", c)
		}
	}
	return nil
}
