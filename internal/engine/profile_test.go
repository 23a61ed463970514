package engine

import (
	"math"
	"testing"

	"advhunter/internal/models"
	"advhunter/internal/uarch/hpc"
)

// The architectures below cover every container the walker dispatches on:
// plain Sequential (simplecnn), Residual (resnet18), SqueezeExcite
// (efficientnet), DenseBlock (densenet), and Parallel (googlenet).
var profileArchs = []string{"simplecnn", "resnet18", "efficientnet", "densenet", "googlenet"}

// TestInferProfileDeltasTelescope verifies the leaf decomposition is exact:
// per-leaf deltas sum bit-for-bit to the counts Infer reports, for every
// container shape in the zoo.
func TestInferProfileDeltasTelescope(t *testing.T) {
	for _, arch := range profileArchs {
		m := models.MustBuild(arch, 3, 32, 32, 10, 5)
		e := NewDefault(m)
		x := randomImage(2, 3, 32, 32)

		predWant, totalWant := e.Infer(x)
		pred, total, leaves := e.InferProfile(x)
		if pred != predWant || total != totalWant {
			t.Fatalf("%s: InferProfile (pred %d, counts %v) disagrees with Infer (pred %d, counts %v)",
				arch, pred, total, predWant, totalWant)
		}
		if len(leaves) != e.NumLeaves() {
			t.Fatalf("%s: %d leaf profiles, NumLeaves() = %d", arch, len(leaves), e.NumLeaves())
		}
		var sum hpc.Counts
		for _, lp := range leaves {
			if lp.Sparsity < 0 || lp.Sparsity > 1 {
				t.Fatalf("%s: leaf %d (%s) sparsity %v out of [0,1]", arch, lp.Index, lp.Name, lp.Sparsity)
			}
			for ev := range sum {
				sum[ev] += lp.Delta[ev]
			}
		}
		if sum != total {
			t.Fatalf("%s: leaf deltas sum to %v, Infer counts %v", arch, sum, total)
		}
	}
}

// TestInferProfileDoesNotPerturbInfer guards the hook in traceLayer: a
// profiled trace must leave the engine in a state where the next plain Infer
// returns exactly the same counts as an unprofiled engine.
func TestInferProfileDoesNotPerturbInfer(t *testing.T) {
	m := models.MustBuild("resnet18", 3, 32, 32, 10, 5)
	e := NewDefault(m)
	x := randomImage(3, 3, 32, 32)
	_, want := e.Infer(x)
	e.InferProfile(x)
	if _, got := e.Infer(x); got != want {
		t.Fatalf("Infer after InferProfile returned %v, want %v", got, want)
	}
}

// TestForwardStatsMatchesTrace pins the twin's front half to the exact path:
// prediction and confidence must equal InferConf's, and the recorded
// sparsities must equal the ones the profiled trace observed.
func TestForwardStatsMatchesTrace(t *testing.T) {
	for _, arch := range profileArchs {
		m := models.MustBuild(arch, 3, 32, 32, 10, 5)
		e := NewDefault(m)
		x := randomImage(4, 3, 32, 32)

		predWant, confWant, _ := e.InferConf(x)
		_, _, leaves := e.InferProfile(x)

		sp := make([]float64, e.NumLeaves())
		pred, conf := e.ForwardStats(x, sp)
		if pred != predWant || conf != confWant {
			t.Fatalf("%s: ForwardStats (pred %d, conf %v) disagrees with InferConf (pred %d, conf %v)",
				arch, pred, conf, predWant, confWant)
		}
		names := e.LeafNames()
		for i, lp := range leaves {
			if names[i] != lp.Name {
				t.Fatalf("%s: LeafNames()[%d] = %q, profiled trace saw %q", arch, i, names[i], lp.Name)
			}
			if math.Abs(sp[i]-lp.Sparsity) != 0 {
				t.Fatalf("%s: leaf %d (%s) ForwardStats sparsity %v, trace sparsity %v",
					arch, i, lp.Name, sp[i], lp.Sparsity)
			}
		}
	}
}

// TestForwardStatsZeroAlloc gates the serve-time promise: once scratch is
// warm, the machine-free forward pass must not touch the heap.
func TestForwardStatsZeroAlloc(t *testing.T) {
	for _, arch := range []string{"resnet18", "simplecnn"} {
		m := models.MustBuild(arch, 3, 32, 32, 10, 1)
		e := NewDefault(m)
		x := randomImage(1, 3, 32, 32)
		sp := make([]float64, e.NumLeaves())
		for i := 0; i < 3; i++ {
			e.ForwardStats(x, sp)
		}
		if n := testing.AllocsPerRun(10, func() { e.ForwardStats(x, sp) }); n != 0 {
			t.Fatalf("%s: ForwardStats allocs/op = %v, want 0", arch, n)
		}
	}
}
