package engine

import (
	"math"
	"testing"

	"advhunter/internal/models"
	"advhunter/internal/rng"
	"advhunter/internal/tensor"
	"advhunter/internal/uarch/cache"
	"advhunter/internal/uarch/hpc"
)

// differentialConfigs spans every machine feature whose event accounting the
// coalesced replay re-implements: all four replacement policies, both
// prefetchers, the co-runner (which forces per-line run fallback), branchy
// kernels, quantised zero detection, a TLB-less hierarchy, and a kitchen-sink
// combination.
func differentialConfigs() []MachineConfig {
	var out []MachineConfig
	for _, pol := range []cache.Policy{cache.LRU, cache.PLRU, cache.SRRIP, cache.Random} {
		cfg := DefaultMachineConfig()
		cfg.Hierarchy.L1I.Policy = pol
		cfg.Hierarchy.L1D.Policy = pol
		cfg.Hierarchy.L2.Policy = pol
		cfg.Hierarchy.LLC.Policy = pol
		out = append(out, cfg)
	}
	nl := DefaultMachineConfig()
	nl.Hierarchy.L1DPrefetcher = &cache.NextLinePrefetcher{LineB: 64}
	out = append(out, nl)
	st := DefaultMachineConfig()
	st.Hierarchy.L1DPrefetcher = &cache.StridePrefetcher{LineB: 64, Degree: 2}
	out = append(out, st)
	co := DefaultMachineConfig()
	co.CoRunner = CoRunnerConfig{EveryN: 64, Burst: 4, Seed: 9}
	out = append(out, co)
	br := DefaultMachineConfig()
	br.BranchyKernels = true
	out = append(out, br)
	q := DefaultMachineConfig()
	q.QuantLevels = 127
	out = append(out, q)
	nod := DefaultMachineConfig()
	nod.Hierarchy.DTLB = cache.TLBConfig{}
	out = append(out, nod)
	mix := DefaultMachineConfig()
	mix.Hierarchy.L1D.Policy = cache.SRRIP
	mix.Hierarchy.L2.Policy = cache.PLRU
	mix.Hierarchy.LLC.Policy = cache.Random
	mix.Hierarchy.L1DPrefetcher = &cache.StridePrefetcher{LineB: 64, Degree: 3}
	mix.CoRunner = CoRunnerConfig{EveryN: 37, Burst: 2, Seed: 5}
	mix.BranchyKernels = true
	out = append(out, mix)
	return out
}

// randInput fills a fresh input tensor from r.
func randInput(r *rng.Rand) *tensor.Tensor {
	x := tensor.New(1, 16, 16)
	d := x.Data()
	for i := range d {
		d[i] = r.Float64()*2 - 1
	}
	return x
}

// perLineConfig is cfg with a co-runner that never fires, unless cfg already
// has one: any attached co-runner makes Machine.loadRun and storeRun replay
// each span line by line instead of through the hierarchy's run loop.
func perLineConfig(cfg MachineConfig) MachineConfig {
	if cfg.CoRunner.EveryN <= 0 || cfg.CoRunner.Burst <= 0 {
		cfg.CoRunner = CoRunnerConfig{EveryN: math.MaxInt, Burst: 1}
	}
	return cfg
}

// referenceForward classifies x through the model's allocating Net.Forward
// and returns the prediction and the softmax confidence of the predicted
// class.
func referenceForward(m *models.Model, x *tensor.Tensor) (int, float64) {
	meta := m.Meta
	out := m.Net.Forward(x.Clone().Reshape(1, meta.InC, meta.InH, meta.InW), false)
	logits := out.Data()
	lmax := logits[0]
	for _, v := range logits[1:] {
		if v > lmax {
			lmax = v
		}
	}
	sum := 0.0
	for _, v := range logits {
		sum += math.Exp(v - lmax)
	}
	return out.Argmax(), 1 / sum
}

// requireSame asserts that e's reading of x is bit-identical to the
// references: prediction and confidence to the allocating forward pass of
// fwd, every HPC event to the per-line engine perLine.
func requireSame(t *testing.T, label string, e, perLine *Engine, fwd *models.Model, x *tensor.Tensor) {
	t.Helper()
	p, c, n := e.InferConf(x)
	pr, cr := referenceForward(fwd, x)
	_, _, nr := perLine.InferConf(x)
	if p != pr {
		t.Fatalf("%s: pred engine=%d reference=%d", label, p, pr)
	}
	if math.Float64bits(c) != math.Float64bits(cr) {
		t.Fatalf("%s: conf engine=%x reference=%x", label, math.Float64bits(c), math.Float64bits(cr))
	}
	for ev := hpc.Event(0); ev < hpc.NumEvents; ev++ {
		if math.Float64bits(n[ev]) != math.Float64bits(nr[ev]) {
			t.Fatalf("%s: event %v engine=%v per-line=%v", label, ev, n[ev], nr[ev])
		}
	}
}

// TestReplayMatchesReference pins the coalesced zero-allocation replay, for
// every architecture and machine configuration, on the original engines, on
// Clone replicas, and on repeated queries of one input:
//   - The prediction and confidence must equal the allocating forward
//     pass's. That pass runs the same layer kernels on fresh buffers, so
//     this checks arena reuse and the engine's walk of the container
//     layers, not the kernels' arithmetic.
//   - Every HPC event must equal that of an engine that replays every span
//     line by line, an independent reference for the coalesced runs.
func TestReplayMatchesReference(t *testing.T) {
	for _, arch := range models.Architectures() {
		for ci, cfg := range differentialConfigs() {
			// Identically seeded model builds: the allocating forward writes
			// layer caches, so it gets a private model instance.
			eng := New(models.MustBuild(arch, 1, 16, 16, 10, 7), cfg)
			perLine := New(models.MustBuild(arch, 1, 16, 16, 10, 7), perLineConfig(cfg))
			fwd := models.MustBuild(arch, 1, 16, 16, 10, 7)
			r := rng.New(uint64(ci)*1000003 + 17)
			for rep := 0; rep < 2; rep++ {
				requireSame(t, arch+" rep", eng, perLine, fwd, randInput(r))
			}
			// Replicas must replay the identical trace.
			ec, pc := eng.Clone(), perLine.Clone()
			x := randInput(r)
			requireSame(t, arch+" clone", ec, pc, fwd, x)
			// Repeated query: re-measuring the same input must agree with the
			// references. (Not necessarily with its own first reading — the
			// Random policy's victim stream deliberately survives machine
			// resets.)
			requireSame(t, arch+" repeat", ec, pc, fwd, x)
		}
	}
}

// TestCloneSharesLayoutFast verifies that replicas share the original's
// model and address layout by pointer identity instead of rebuilding them,
// which both saves the rebuild and guarantees an identical synthetic memory
// map.
func TestCloneSharesLayoutFast(t *testing.T) {
	e := New(models.MustBuild("simplecnn", 1, 16, 16, 10, 3), DefaultMachineConfig())
	c := e.Clone()
	if c.lo != e.lo {
		t.Fatal("Clone must share the layout pointer")
	}
	if c.Model != e.Model {
		t.Fatal("Clone must share the model")
	}
}
