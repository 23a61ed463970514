package twin

import (
	"fmt"

	"advhunter/internal/core"
)

// FromMeasurer derives the twin measurer shadowing an exact one: a Clone of
// m — fresh engine replica, identical noise protocol (model, seed,
// repetition count) — whose true counts come from t's table lookup over a
// machine-free forward pass instead of cache simulation. Prediction and
// confidence are bit-identical to the exact path (the forward numerics are
// shared); only the counts are approximate.
func FromMeasurer(m *core.Measurer, t *Table) (*core.Measurer, error) {
	if err := t.validate(); err != nil {
		return nil, err
	}
	if n := m.Engine.NumLeaves(); n != len(t.Layers) {
		return nil, fmt.Errorf("twin: table has %d layers, model has %d leaves", len(t.Layers), n)
	}
	tm := m.Clone()
	tm.Twin = t
	return tm, nil
}
