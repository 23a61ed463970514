// Package twin is the analytical twin of the exact μarch simulator: per-leaf
// HPC count tables, profiled offline through the exact engine across
// activation-sparsity buckets, that predict a whole inference's counter
// reading at serve time by table lookup with linear interpolation — no cache
// hierarchy, no branch predictor, no replay on the hot path.
//
// The twin rests on the property the engine's differential tests pin down:
// instruction and branch counts are input-independent, and memory traffic
// varies with the input only through which lines and row groups are
// storage-zero. Each leaf layer's count contribution is therefore (nearly) a
// function of its input's zero-line fraction, which the profiler sweeps and
// the serve-time backend recomputes with one machine-free forward pass.
package twin

import (
	"errors"
	"fmt"
	"math"

	"advhunter/internal/engine"
	"advhunter/internal/parallel"
	"advhunter/internal/persist"
	"advhunter/internal/tensor"
	"advhunter/internal/uarch/hpc"
)

// Schema versions the persisted table envelope (bumped on layout changes,
// like the detector and measurement-cache schemas).
const Schema = 1

// DefaultKnots is the default sparsity-bucket count. Leaf sparsities cluster
// tightly per layer, so a modest uniform grid plus linear interpolation
// reconstructs the count curves to well under the noise floor.
const DefaultKnots = 16

// LayerTable holds one leaf layer's count curves.
type LayerTable struct {
	// Name is the layer's display name (diagnostic only; matching is
	// positional, guarded by the model hash).
	Name string
	// Values[e][k] is event e's predicted count contribution at sparsity
	// knot k; knot k sits at sparsity k/(Knots-1).
	Values [hpc.NumEvents][]float64
}

// Table is the analytical twin of one (model, machine config) pair: per-leaf
// count curves over input sparsity, plus the hashes that tie it to the exact
// configuration it was profiled from.
type Table struct {
	// ModelHash and MachineHash identify the profiled configuration; TryLoad
	// treats any mismatch as a miss, forcing silent regeneration.
	ModelHash   uint64
	MachineHash uint64
	// Knots is the number of uniform sparsity buckets per curve (≥ 2).
	Knots int
	// Probes is the number of inferences the profile swept (provenance).
	Probes int
	// Layers holds one curve set per leaf, in trace order.
	Layers []LayerTable
}

// Profile sweeps the probe inputs through the exact engine with per-leaf
// attribution and builds the count tables. Each observed (sparsity, delta)
// pair is spread over its two neighbouring knots with linear-binning
// weights; knots no probe touched are filled by interpolating between (or
// extending) the nearest observed neighbours. Probes fan out over engine
// replicas, but accumulation runs serially in probe order, so the table is
// bit-identical for any worker count.
func Profile(e *engine.Engine, probes []*tensor.Tensor, knots, workers int) (*Table, error) {
	if knots < 2 {
		knots = DefaultKnots
	}
	if len(probes) == 0 {
		return nil, errors.New("twin: no probe inputs")
	}
	leaves := e.NumLeaves()
	workers = parallel.Workers(workers, len(probes))
	reps := make([]*engine.Engine, workers)
	reps[0] = e
	for w := 1; w < workers; w++ {
		reps[w] = e.Clone()
	}
	profiles := parallel.MapWorkers(workers, probes, func(worker, _ int, x *tensor.Tensor) []engine.LeafProfile {
		_, _, lp := reps[worker].InferProfile(x)
		return lp
	})

	wsum := make([][]float64, leaves)
	vsum := make([][]hpc.Counts, leaves)
	for li := range wsum {
		wsum[li] = make([]float64, knots)
		vsum[li] = make([]hpc.Counts, knots)
	}
	for _, lp := range profiles {
		if len(lp) != leaves {
			return nil, fmt.Errorf("twin: probe produced %d leaf profiles, model has %d leaves", len(lp), leaves)
		}
		for li := range lp {
			leaf := &lp[li]
			pos := leaf.Sparsity * float64(knots-1)
			if pos < 0 {
				pos = 0
			} else if pos > float64(knots-1) {
				pos = float64(knots - 1)
			}
			k0 := int(pos)
			if k0 > knots-2 {
				k0 = knots - 2
			}
			frac := pos - float64(k0)
			accumulate(wsum[li], vsum[li], k0, 1-frac, leaf.Delta)
			accumulate(wsum[li], vsum[li], k0+1, frac, leaf.Delta)
		}
	}

	names := e.LeafNames()
	t := &Table{
		ModelHash:   ModelHash(e.Model),
		MachineHash: MachineHash(e.Config()),
		Knots:       knots,
		Probes:      len(probes),
		Layers:      make([]LayerTable, leaves),
	}
	for li := range t.Layers {
		lt := &t.Layers[li]
		lt.Name = names[li]
		for ev := range lt.Values {
			lt.Values[ev] = make([]float64, knots)
		}
		fillLayer(lt, wsum[li], vsum[li])
	}
	return t, nil
}

// accumulate adds one linear-binning contribution to a knot.
func accumulate(wsum []float64, vsum []hpc.Counts, k int, w float64, delta hpc.Counts) {
	if w == 0 {
		return
	}
	wsum[k] += w
	for ev := range delta {
		vsum[k][ev] += w * delta[ev]
	}
}

// fillLayer converts accumulated weights into knot values: observed knots
// take the weighted mean of their contributions; unobserved knots linearly
// interpolate between the nearest observed neighbours, or copy the nearest
// one when they sit outside the observed range (flat extension).
func fillLayer(lt *LayerTable, wsum []float64, vsum []hpc.Counts) {
	knots := len(wsum)
	observed := make([]int, 0, knots)
	for k := 0; k < knots; k++ {
		if wsum[k] > 0 {
			observed = append(observed, k)
			for ev := range lt.Values {
				lt.Values[ev][k] = vsum[k][ev] / wsum[k]
			}
		}
	}
	if len(observed) == 0 {
		return // all-zero curves; Profile never produces this with probes
	}
	for k := 0; k < knots; k++ {
		if wsum[k] > 0 {
			continue
		}
		lo, hi := -1, -1
		for _, o := range observed {
			if o < k {
				lo = o
			}
			if o > k && hi < 0 {
				hi = o
			}
		}
		for ev := range lt.Values {
			v := lt.Values[ev]
			switch {
			case lo < 0:
				v[k] = v[hi]
			case hi < 0:
				v[k] = v[lo]
			default:
				alpha := float64(k-lo) / float64(hi-lo)
				v[k] = v[lo] + alpha*(v[hi]-v[lo])
			}
		}
	}
}

// Predict sums the per-leaf interpolated contributions into out, which is
// zeroed first. sp holds one input sparsity per leaf in trace order (the
// vector engine.ForwardStats fills). The lookup allocates nothing.
func (t *Table) Predict(sp []float64, out *hpc.Counts) {
	for ev := range out {
		out[ev] = 0
	}
	kmax := t.Knots - 1
	for li := range t.Layers {
		s := sp[li]
		if s < 0 {
			s = 0
		} else if s > 1 {
			s = 1
		}
		pos := s * float64(kmax)
		k0 := int(pos)
		if k0 > kmax-1 {
			k0 = kmax - 1
		}
		frac := pos - float64(k0)
		lt := &t.Layers[li]
		for ev := range lt.Values {
			v := lt.Values[ev]
			out[ev] += v[k0] + frac*(v[k0+1]-v[k0])
		}
	}
}

// Bytes reports the table's approximate resident size (curve storage plus
// per-layer bookkeeping) for the advhunter_twin_table_bytes gauge.
func (t *Table) Bytes() int {
	if t == nil {
		return 0
	}
	b := 64 // Table header fields
	for i := range t.Layers {
		b += len(t.Layers[i].Name) + 16 + int(hpc.NumEvents)*(t.Knots*8+24)
	}
	return b
}

// validate guards deserialized state so a corrupt artifact can never panic
// Predict.
func (t *Table) validate() error {
	if t.Knots < 2 {
		return fmt.Errorf("twin: table has %d knots, need at least 2", t.Knots)
	}
	if len(t.Layers) == 0 {
		return errors.New("twin: table has no layers")
	}
	for li := range t.Layers {
		for ev := range t.Layers[li].Values {
			v := t.Layers[li].Values[ev]
			if len(v) != t.Knots {
				return fmt.Errorf("twin: layer %d event %d has %d knots, table says %d", li, ev, len(v), t.Knots)
			}
			for _, x := range v {
				if math.IsNaN(x) || math.IsInf(x, 0) {
					return fmt.Errorf("twin: layer %d event %d holds a non-finite value", li, ev)
				}
			}
		}
	}
	return nil
}

// Save writes the table atomically under the twin schema envelope.
func (t *Table) Save(path string) error {
	return persist.Save(path, Schema, t)
}

// TryLoad loads a table artifact if — and only if — it is usable as-is: the
// file exists, carries the twin schema, decodes into a structurally valid
// table, and its model/machine hashes match the configuration the caller
// will serve. Every failure mode is a miss, not an error: a stale or corrupt
// artifact means the caller re-profiles and overwrites, exactly like the
// measurement-cache loaders.
func TryLoad(path string, modelHash, machineHash uint64) (*Table, bool) {
	var t Table
	if err := persist.Load(path, Schema, &t); err != nil {
		return nil, false
	}
	if t.validate() != nil {
		return nil, false
	}
	if t.ModelHash != modelHash || t.MachineHash != machineHash {
		return nil, false
	}
	return &t, true
}

// LoadOrProfile returns the table at path when it is valid for the engine's
// model and machine configuration, and otherwise profiles a fresh one over
// probes() and writes it back — the detector stack's load-or-refit workflow
// applied to twin tables. probes is a constructor so a successful load skips
// building the sweep entirely. An empty path skips persistence. The boolean
// reports whether the table came from disk.
func LoadOrProfile(path string, e *engine.Engine, probes func() []*tensor.Tensor, knots, workers int) (*Table, bool, error) {
	if path != "" {
		if t, ok := TryLoad(path, ModelHash(e.Model), MachineHash(e.Config())); ok {
			return t, true, nil
		}
	}
	t, err := Profile(e, probes(), knots, workers)
	if err != nil {
		return nil, false, err
	}
	if path != "" {
		if err := t.Save(path); err != nil {
			return nil, false, err
		}
	}
	return t, false, nil
}
