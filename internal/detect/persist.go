package detect

import (
	"fmt"

	"advhunter/internal/persist"
	"advhunter/internal/uarch/hpc"
)

// DetectorSchema versions the detector artifact layout.
//
// History:
//  1. per-event GMM detector only (core.SaveDetector): events + per-category
//     model/threshold DTOs. No longer read: TryLoad reports such a file as a
//     miss, so the caller refits and overwrites it.
//  2. self-describing backend envelope: any registered backend's scorers are
//     gob-encoded polymorphically, so one artifact format serves every kind.
const DetectorSchema = 2

// fittedDTO is the schema-2 artifact: a self-describing envelope for any
// backend. Scorers are encoded as interface values; each backend's init
// registers its concrete types under stable names with encoding/gob.
type fittedDTO struct {
	Kind       string
	Events     []hpc.Event
	Classes    int
	Decision   hpc.Event
	Modelled   []bool
	Thresholds [][]float64
	Scorers    []Scorer
}

// Save atomically writes a fitted detector of any backend.
func Save(path string, d *Fitted) error {
	// A combinator's decision channel names no event; it decides by its
	// only channel whatever the stored event.
	decision, err := hpc.ParseEvent(d.channels[d.decision])
	if err != nil {
		decision = DefaultDecisionEvent
	}
	dto := fittedDTO{
		Kind:       d.kind,
		Events:     d.events,
		Classes:    d.classes,
		Decision:   decision,
		Modelled:   d.modelled,
		Thresholds: d.thresholds,
		Scorers:    d.scorers,
	}
	return persist.Save(path, DetectorSchema, &dto)
}

// Load reads a schema-2 artifact and validates it structurally: a corrupt
// or hand-crafted file yields an error, never a detector that can panic.
func Load(path string) (*Fitted, error) {
	var dto fittedDTO
	if err := persist.Load(path, DetectorSchema, &dto); err != nil {
		return nil, err
	}
	if _, ok := Lookup(dto.Kind); !ok {
		return nil, fmt.Errorf("detect: artifact has unknown backend %q", dto.Kind)
	}
	if dto.Classes <= 0 || len(dto.Modelled) != dto.Classes {
		return nil, fmt.Errorf("detect: artifact has inconsistent category count")
	}
	if len(dto.Events) == 0 || len(dto.Scorers) == 0 {
		return nil, fmt.Errorf("detect: artifact has no events or scorers")
	}
	if len(dto.Thresholds) != len(dto.Scorers) {
		return nil, fmt.Errorf("detect: artifact thresholds do not match scorers")
	}
	for _, e := range dto.Events {
		if e < 0 || e >= hpc.NumEvents {
			return nil, fmt.Errorf("detect: artifact has invalid event %d", int(e))
		}
	}
	for si, s := range dto.Scorers {
		if s == nil {
			return nil, fmt.Errorf("detect: artifact scorer %d is nil", si)
		}
		if err := s.validate(dto.Classes, dto.Events); err != nil {
			return nil, err
		}
		if len(dto.Thresholds[si]) != dto.Classes {
			return nil, fmt.Errorf("detect: artifact scorer %d thresholds are inconsistent", si)
		}
	}
	modelledAny := false
	for _, m := range dto.Modelled {
		modelledAny = modelledAny || m
	}
	if !modelledAny {
		return nil, fmt.Errorf("detect: artifact models no category")
	}
	d := &Fitted{
		kind:       dto.Kind,
		events:     dto.Events,
		scorers:    dto.Scorers,
		thresholds: dto.Thresholds,
		modelled:   dto.Modelled,
		classes:    dto.Classes,
	}
	if err := d.finish(dto.Decision); err != nil {
		return nil, err
	}
	return d, nil
}

// TryLoad loads a detector artifact with miss-not-error semantics: a
// missing, corrupt, truncated, stale-schema or unknown-backend file is a
// cache miss (fit again and overwrite), never a failure and never a panic.
func TryLoad(path string) (*Fitted, bool) {
	if path == "" {
		return nil, false
	}
	d, err := Load(path)
	return d, err == nil
}
