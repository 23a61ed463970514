package detect

import (
	"fmt"

	"advhunter/internal/core"
	"advhunter/internal/gmm"
	"advhunter/internal/uarch/hpc"
)

func init() {
	registerPerEvent("gmm", "per-(category, event) univariate GMM with BIC-selected components (the paper's detector)",
		func(e hpc.Event, n int) Scorer { return &gmmScorer{Event: e, Index: n} })
}

// gmmScorer is the paper's detector for one event: a univariate GMM per
// category, scored by negative log-likelihood. Models are stored by value
// (gob cannot encode nil pointers); K() == 0 marks an unmodelled category.
type gmmScorer struct {
	Event hpc.Event
	// Index is the event's position in the template, which keys the
	// per-(category, event) fit seed.
	Index int
	// Models[c] is category c's mixture; the zero Model when unmodelled.
	Models []gmm.Model
}

func (s *gmmScorer) Channel() string { return s.Event.String() }

func (s *gmmScorer) Fit(t *core.Template, cfg Config) error {
	s.Models = make([]gmm.Model, t.Classes)
	return fitColumns(t, s.Event, func(c int, col []float64) error {
		sub := cfg.GMM
		sub.Seed = cfg.GMM.Seed ^ (uint64(c)<<32 | uint64(s.Index))
		var model *gmm.Model
		var err error
		if cfg.ForceK > 0 {
			model, err = gmm.Fit(col, cfg.ForceK, sub)
		} else {
			model, err = gmm.FitBest(col, maxComponents, sub)
		}
		if err != nil {
			return fmt.Errorf("detect: fitting class %d event %v: %w", c, s.Event, err)
		}
		s.Models[c] = *model
		return nil
	})
}

func (s *gmmScorer) Score(q core.Measurement) (float64, bool) {
	if q.Pred < 0 || q.Pred >= len(s.Models) || s.Models[q.Pred].K() == 0 {
		return 0, false
	}
	return s.Models[q.Pred].NegLogLikelihood(q.Counts.Get(s.Event)), true
}

func (s *gmmScorer) validate(classes int, _ []hpc.Event) error {
	if s.Event < 0 || s.Event >= hpc.NumEvents {
		return fmt.Errorf("detect: gmm scorer has invalid event %d", int(s.Event))
	}
	if len(s.Models) != classes {
		return fmt.Errorf("detect: gmm scorer has %d categories, want %d", len(s.Models), classes)
	}
	for c, m := range s.Models {
		k := m.K()
		if k == 0 {
			continue
		}
		if len(m.Means) != k || len(m.Vars) != k {
			return fmt.Errorf("detect: gmm scorer category %d is inconsistent", c)
		}
		for _, v := range m.Vars {
			if !(v > 0) {
				return fmt.Errorf("detect: gmm scorer category %d has non-positive variance", c)
			}
		}
	}
	return nil
}
