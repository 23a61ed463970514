package engine

import (
	"advhunter/internal/nn"
	"advhunter/internal/tensor"
	"advhunter/internal/uarch/hpc"
)

// This file exports the per-layer view of an exact inference that the
// analytical twin (internal/twin) is built from: which leaf layers the
// tracer replays, in what order, with what input sparsity, and how much of
// the final counter reading each one contributed.
//
// A "leaf" is any layer the tracer models machine work for (isLeaf).
// Containers (Sequential, Residual, Parallel, DenseBlock) only route data —
// their own join traffic (residual add, concat copy) is attributed to the
// leaf that runs next, which keeps the decomposition exactly telescoping
// without a separate per-container table. Flatten (a view change) moves no
// data and is skipped the same way.

// isLeaf is the one rule for which layers are leaves: every layer but the
// containers and Flatten. The tracer's profile samples, the leaf walk and
// the sparsity pass all ask it, so their leaf orders agree.
func isLeaf(l nn.Layer) bool {
	switch l.(type) {
	case *nn.Sequential, *nn.Residual, *nn.Parallel, *nn.DenseBlock, *nn.Flatten:
		return false
	}
	return true
}

// LeafProfile describes one leaf layer's share of an inference.
type LeafProfile struct {
	// Index is the leaf's position in trace order.
	Index int
	// Name is the layer's display name.
	Name string
	// Sparsity is the fraction of the leaf's input cache lines that are
	// storage-zero (ZCA-eligible) — the quantity the twin tables are keyed by.
	Sparsity float64
	// Delta is the counter increment attributed to this leaf: the machine
	// snapshot at the next leaf's entry minus the snapshot at this leaf's
	// entry. Deltas over all leaves sum exactly to the inference's counts.
	Delta hpc.Counts
}

// leafSample is the raw per-leaf record captured during a profiled trace.
type leafSample struct {
	name     string
	sparsity float64
	snap     hpc.Counts // machine counters at leaf entry
}

// profObserve records a leaf-entry sample; other layers record none.
func (e *Engine) profObserve(l nn.Layer, in tref) {
	if !isLeaf(l) {
		return
	}
	e.prof = append(e.prof, leafSample{
		name:     l.Name(),
		sparsity: zeroFrac(in.lineZero),
		snap:     e.M.Counts(),
	})
}

// zeroFrac returns the fraction of true entries in a zero-line bitmap.
func zeroFrac(lz []bool) float64 {
	if len(lz) == 0 {
		return 0
	}
	zeros := 0
	for _, z := range lz {
		if z {
			zeros++
		}
	}
	return float64(zeros) / float64(len(lz))
}

// InferProfile is Infer with per-leaf attribution: it returns the hard-label
// prediction, the full noise-free counts, and one LeafProfile per leaf layer
// in trace order. The deltas telescope — counts before the first leaf's
// entry (the input placement) are folded into leaf 0, and the tail after the
// last leaf's entry belongs to the last leaf — so summing every Delta
// reproduces the total reading event for event, bit for bit.
func (e *Engine) InferProfile(x *tensor.Tensor) (int, hpc.Counts, []LeafProfile) {
	e.prof = make([]leafSample, 0, e.NumLeaves())
	out := e.trace(x)
	pred := out.t.Argmax()
	total := e.M.Counts()
	samples := e.prof
	e.prof = nil

	leaves := make([]LeafProfile, len(samples))
	for i, s := range samples {
		next := total
		if i+1 < len(samples) {
			next = samples[i+1].snap
		}
		var prev hpc.Counts // leaf 0 absorbs everything before its entry
		if i > 0 {
			prev = samples[i].snap
		}
		var delta hpc.Counts
		for ev := range delta {
			delta[ev] = next[ev] - prev[ev]
		}
		leaves[i] = LeafProfile{Index: i, Name: s.name, Sparsity: s.sparsity, Delta: delta}
	}
	return pred, total, leaves
}

// forEachLeaf visits every leaf layer in exactly the order the tracer
// replays them (and the order statsLayer walks them).
func forEachLeaf(l nn.Layer, f func(nn.Layer)) {
	if isLeaf(l) {
		f(l)
		return
	}
	switch c := l.(type) {
	case *nn.Sequential:
		for _, sub := range c.Layers {
			forEachLeaf(sub, f)
		}
	case *nn.Residual:
		forEachLeaf(c.Body, f)
		if c.Shortcut != nil {
			forEachLeaf(c.Shortcut, f)
		}
	case *nn.Parallel:
		for _, b := range c.Branches {
			forEachLeaf(b, f)
		}
	case *nn.DenseBlock:
		for _, u := range c.Units {
			forEachLeaf(u, f)
		}
	}
}

// NumLeaves returns the number of leaf layers the tracer replays per
// inference — the length of every InferProfile result and of the sparsity
// vector ForwardStats fills.
func (e *Engine) NumLeaves() int {
	n := 0
	forEachLeaf(e.Model.Net, func(nn.Layer) { n++ })
	return n
}

// LeafNames returns the leaf layer names in trace order.
func (e *Engine) LeafNames() []string {
	names := make([]string, 0, e.NumLeaves())
	forEachLeaf(e.Model.Net, func(l nn.Layer) { names = append(names, l.Name()) })
	return names
}

// Config returns the machine configuration the engine was built with.
func (e *Engine) Config() MachineConfig { return e.cfg }
