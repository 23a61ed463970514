package detect

import (
	"encoding/gob"
	"fmt"
	"slices"

	"advhunter/internal/core"
	"advhunter/internal/gmm"
	"advhunter/internal/metrics"
	"advhunter/internal/uarch/hpc"
)

func init() {
	gob.RegisterName("detect.fusionScorer", &fusionScorer{})
	Register(Backend{
		Kind:        "fusion",
		Description: "one diagonal multivariate GMM per category over a joint event subset (single fused channel)",
		New: func(t *core.Template, cfg Config) ([]Scorer, error) {
			events := cfg.FusionEvents
			if len(events) == 0 {
				events = t.Events
			}
			for _, e := range events {
				if !slices.Contains(t.Events, e) {
					return nil, fmt.Errorf("detect: event %v not in template", e)
				}
			}
			return []Scorer{&fusionScorer{Events: events}}, nil
		},
	})
}

// fusionScorer is the joint-model combinator: instead of one scorer per
// event it standardises a subset of events per category and fits one
// diagonal multivariate GMM over the joint readings, scored by negative
// log-likelihood. The whole detector has a single "fusion" channel.
type fusionScorer struct {
	// Events is the fused subset, in model-dimension order.
	Events []hpc.Event
	// Models[c] is category c's joint mixture (zero value when unmodelled;
	// K() == 0 marks it). Mean/Std hold the per-(category, dimension)
	// standardisation fitted on the template.
	Models []gmm.MultiModel
	Mean   [][]float64
	Std    [][]float64
}

func (s *fusionScorer) Channel() string { return "fusion" }

func (s *fusionScorer) Fit(t *core.Template, cfg Config) error {
	s.Models = make([]gmm.MultiModel, t.Classes)
	s.Mean = make([][]float64, t.Classes)
	s.Std = make([][]float64, t.Classes)
	for c := 0; c < t.Classes; c++ {
		rows := t.Rows[c]
		if !canModel(rows) {
			continue
		}
		mean := make([]float64, len(s.Events))
		std := make([]float64, len(s.Events))
		for i, e := range s.Events {
			mu, sd := metrics.MeanStd(t.Column(c, e))
			if sd == 0 {
				sd = 1
			}
			mean[i], std[i] = mu, sd
		}
		pts := make([][]float64, len(rows))
		for r, row := range rows {
			p := make([]float64, len(s.Events))
			for i, e := range s.Events {
				p[i] = (row.Counts.Get(e) - mean[i]) / std[i]
			}
			pts[r] = p
		}
		sub := cfg.GMM
		sub.Seed = cfg.GMM.Seed ^ (uint64(c) << 16) ^ 0xf0f0
		model, err := gmm.FitBestMulti(pts, maxComponents, sub)
		if err != nil {
			return fmt.Errorf("detect: fitting fusion class %d: %w", c, err)
		}
		s.Models[c] = *model
		s.Mean[c], s.Std[c] = mean, std
	}
	return nil
}

func (s *fusionScorer) Score(q core.Measurement) (float64, bool) {
	if q.Pred < 0 || q.Pred >= len(s.Models) || s.Models[q.Pred].K() == 0 {
		return 0, false
	}
	mean, std := s.Mean[q.Pred], s.Std[q.Pred]
	p := make([]float64, len(s.Events))
	for i, e := range s.Events {
		p[i] = (q.Counts.Get(e) - mean[i]) / std[i]
	}
	return s.Models[q.Pred].NegLogLikelihood(p), true
}

func (s *fusionScorer) validate(classes int, _ []hpc.Event) error {
	if len(s.Events) == 0 {
		return fmt.Errorf("detect: fusion scorer has no events")
	}
	for _, e := range s.Events {
		if e < 0 || e >= hpc.NumEvents {
			return fmt.Errorf("detect: fusion scorer has invalid event %d", int(e))
		}
	}
	if len(s.Models) != classes || len(s.Mean) != classes || len(s.Std) != classes {
		return fmt.Errorf("detect: fusion scorer has inconsistent category count")
	}
	for c := range s.Models {
		m := &s.Models[c]
		k := m.K()
		if k == 0 {
			continue
		}
		// MultiModel.LogLikelihood indexes x by the model dimension, so a
		// dimension mismatch here would panic Detect — reject it at load.
		if m.D != len(s.Events) || len(m.Means) != k || len(m.Vars) != k {
			return fmt.Errorf("detect: fusion scorer category %d is inconsistent", c)
		}
		for ki := 0; ki < k; ki++ {
			if len(m.Means[ki]) != m.D || len(m.Vars[ki]) != m.D {
				return fmt.Errorf("detect: fusion scorer category %d is ragged", c)
			}
			for _, v := range m.Vars[ki] {
				if !(v > 0) {
					return fmt.Errorf("detect: fusion scorer category %d has non-positive variance", c)
				}
			}
		}
		if len(s.Mean[c]) != len(s.Events) || len(s.Std[c]) != len(s.Events) {
			return fmt.Errorf("detect: fusion scorer category %d standardisation is inconsistent", c)
		}
		for _, sd := range s.Std[c] {
			if !(sd > 0) {
				return fmt.Errorf("detect: fusion scorer category %d has non-positive std", c)
			}
		}
	}
	return nil
}
