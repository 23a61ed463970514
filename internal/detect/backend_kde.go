package detect

import (
	"fmt"
	"math"

	"advhunter/internal/core"
	"advhunter/internal/metrics"
	"advhunter/internal/uarch/hpc"
)

func init() {
	registerPerEvent("kde", "per-(category, event) Gaussian kernel density estimate scored by negative log-density",
		func(e hpc.Event, n int) Scorer { return &kdeScorer{Event: e, Index: n} })
}

// kdeScorer is the non-parametric density backend: the template column
// itself is the model, smoothed by a Gaussian kernel with Silverman's
// rule-of-thumb bandwidth, and scored by negative log-density — no
// component-count selection at all, the opposite end of the modelling
// spectrum from the BIC-searched GMM.
type kdeScorer struct {
	Event hpc.Event
	Index int
	// Samples[c] is category c's template column (nil when unmodelled);
	// Bandwidth[c] is its Silverman bandwidth.
	Samples   [][]float64
	Bandwidth []float64
}

func (s *kdeScorer) Channel() string { return s.Event.String() }

func (s *kdeScorer) Fit(t *core.Template, cfg Config) error {
	s.Samples = make([][]float64, t.Classes)
	s.Bandwidth = make([]float64, t.Classes)
	return fitColumns(t, s.Event, func(c int, col []float64) error {
		_, sd := metrics.MeanStd(col)
		h := 1.06 * sd * math.Pow(float64(len(col)), -0.2)
		if h <= 0 {
			h = 1 // degenerate column: fall back to a unit kernel
		}
		s.Samples[c], s.Bandwidth[c] = col, h
		return nil
	})
}

func (s *kdeScorer) Score(q core.Measurement) (float64, bool) {
	if q.Pred < 0 || q.Pred >= len(s.Samples) || len(s.Samples[q.Pred]) == 0 {
		return 0, false
	}
	pts, h := s.Samples[q.Pred], s.Bandwidth[q.Pred]
	x := q.Counts.Get(s.Event)
	sum := 0.0
	for _, p := range pts {
		z := (x - p) / h
		sum += math.Exp(-0.5 * z * z)
	}
	density := sum / (float64(len(pts)) * h * math.Sqrt(2*math.Pi))
	return -math.Log(math.Max(density, 1e-300)), true
}

func (s *kdeScorer) validate(classes int, _ []hpc.Event) error {
	if s.Event < 0 || s.Event >= hpc.NumEvents {
		return fmt.Errorf("detect: kde scorer has invalid event %d", int(s.Event))
	}
	if len(s.Samples) != classes || len(s.Bandwidth) != classes {
		return fmt.Errorf("detect: kde scorer has inconsistent category count")
	}
	for c, pts := range s.Samples {
		if len(pts) > 0 && !(s.Bandwidth[c] > 0) {
			return fmt.Errorf("detect: kde scorer category %d has non-positive bandwidth", c)
		}
	}
	return nil
}
