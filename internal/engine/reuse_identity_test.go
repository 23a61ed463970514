package engine

import (
	"math"
	"sync"
	"testing"

	"advhunter/internal/models"
	"advhunter/internal/rng"
	"advhunter/internal/tensor"
	"advhunter/internal/uarch/hpc"
)

// A serving replica answers a batch of queued jobs one sample after another
// on one long-lived engine. These tests pin that such a batch leaves no trace
// in the results: every sample's prediction, confidence, counts and
// sparsities equal those of a fresh engine running that sample alone, so a
// verdict never depends on the samples processed before it.

// batchIdentityArchs spans every structural feature the scratch arena and the
// replay pools must reset across: plain sequential (simplecnn), residual +
// squeeze-excite (efficientnet, scenario S1), residual with projection
// shortcuts (resnet18, scenario S2), dense concatenation growth (densenet) and
// parallel inception branches (googlenet).
var batchIdentityArchs = []struct {
	arch    string
	c, h, w int
}{
	{"simplecnn", 1, 28, 28},
	{"efficientnet", 1, 28, 28},
	{"resnet18", 3, 32, 32},
	{"densenet", 3, 32, 32},
	{"googlenet", 3, 32, 32},
}

func batchInputs(arch string, c, h, w, n int) []*tensor.Tensor {
	r := rng.New(uint64(1000*n) + uint64(len(arch)))
	xs := make([]*tensor.Tensor, n)
	for i := range xs {
		xs[i] = tensor.New(c, h, w)
		r.FillNormal(xs[i].Data(), 0, 1)
	}
	return xs
}

// TestBatchIdentityInfer runs batches of several widths through ONE engine
// and compares every sample with InferConf on a fresh engine, bit for bit.
func TestBatchIdentityInfer(t *testing.T) {
	for _, tc := range batchIdentityArchs {
		tc := tc
		t.Run(tc.arch, func(t *testing.T) {
			t.Parallel()
			m := models.MustBuild(tc.arch, tc.c, tc.h, tc.w, 10, 7)
			be := NewDefault(m)
			for _, n := range []int{1, 3, 8} {
				for i, x := range batchInputs(tc.arch, tc.c, tc.h, tc.w, n) {
					p, c, ct := be.InferConf(x)
					wp, wc, wct := NewDefault(m).InferConf(x)
					if p != wp {
						t.Fatalf("batch %d sample %d: pred %d, want %d", n, i, p, wp)
					}
					if math.Float64bits(c) != math.Float64bits(wc) {
						t.Fatalf("batch %d sample %d: conf %v, want %v", n, i, c, wc)
					}
					if ct != wct {
						t.Fatalf("batch %d sample %d: counts\n got %+v\nwant %+v", n, i, ct, wct)
					}
				}
			}
		})
	}
}

// TestInterleavedEntryPointsMatchFresh interleaves the three per-sample entry points
// on ONE engine — Infer, InferConf and the machine-free ForwardStats share
// the scratch arena and pools — and pins that switching between them changes
// no result, and that ForwardStats agrees with InferConf on the prediction
// and confidence the twin tier reports.
func TestInterleavedEntryPointsMatchFresh(t *testing.T) {
	m := models.MustBuild("resnet18", 3, 32, 32, 10, 7)
	e := NewDefault(m)
	sp := make([]float64, e.NumLeaves())
	for _, n := range []int{3, 1, 8} {
		for i, x := range batchInputs("resnet18", 3, 32, 32, n) {
			wp, wc, wct := NewDefault(m).InferConf(x)
			if p, c := e.ForwardStats(x, sp); p != wp || math.Float64bits(c) != math.Float64bits(wc) {
				t.Fatalf("width %d sample %d: ForwardStats (%d,%v) want (%d,%v)", n, i, p, c, wp, wc)
			}
			if p, ct := e.Infer(x); p != wp || ct != wct {
				t.Fatalf("width %d sample %d: Infer (%d,%+v) want (%d,%+v)", n, i, p, ct, wp, wct)
			}
			if p, c, ct := e.InferConf(x); p != wp || math.Float64bits(c) != math.Float64bits(wc) || ct != wct {
				t.Fatalf("width %d sample %d: interleaved InferConf diverged", n, i)
			}
		}
	}
}

// TestBatchIdentityForwardStats pins the twin-tier front half: a batch of
// stats walks through one engine reproduces a fresh engine's per-sample
// sparsities, predictions and confidences bit for bit.
func TestBatchIdentityForwardStats(t *testing.T) {
	for _, tc := range batchIdentityArchs {
		tc := tc
		t.Run(tc.arch, func(t *testing.T) {
			t.Parallel()
			m := models.MustBuild(tc.arch, tc.c, tc.h, tc.w, 10, 7)
			e := NewDefault(m)
			leaves := e.NumLeaves()
			got := make([]float64, leaves)
			want := make([]float64, leaves)
			for _, n := range []int{1, 3, 8} {
				for i, x := range batchInputs(tc.arch, tc.c, tc.h, tc.w, n) {
					p, c := e.ForwardStats(x, got)
					wp, wc := NewDefault(m).ForwardStats(x, want)
					if p != wp {
						t.Fatalf("batch %d sample %d: pred %d, want %d", n, i, p, wp)
					}
					if math.Float64bits(c) != math.Float64bits(wc) {
						t.Fatalf("batch %d sample %d: conf %v, want %v", n, i, c, wc)
					}
					for li := range want {
						if math.Float64bits(got[li]) != math.Float64bits(want[li]) {
							t.Fatalf("batch %d sample %d leaf %d: sparsity %v, want %v",
								n, i, li, got[li], want[li])
						}
					}
				}
			}
		})
	}
}

// TestClonesShareModelConcurrently pins the rule Clone rests on: replicas
// trace one shared network from several goroutines at once, so no arena
// kernel may write a layer field. Under -race such a write fails the test;
// either way every replica's InferConf and ForwardStats must equal a serial
// run's bit for bit.
func TestClonesShareModelConcurrently(t *testing.T) {
	type reading struct {
		pred, statPred int
		conf, statConf float64
		counts         hpc.Counts
		sp             []float64
	}
	read := func(e *Engine, x *tensor.Tensor) reading {
		var r reading
		r.pred, r.conf, r.counts = e.InferConf(x)
		r.sp = make([]float64, e.NumLeaves())
		r.statPred, r.statConf = e.ForwardStats(x, r.sp)
		return r
	}
	same := func(a, b reading) bool {
		if a.pred != b.pred || a.statPred != b.statPred || a.counts != b.counts ||
			math.Float64bits(a.conf) != math.Float64bits(b.conf) ||
			math.Float64bits(a.statConf) != math.Float64bits(b.statConf) {
			return false
		}
		for i := range a.sp {
			if math.Float64bits(a.sp[i]) != math.Float64bits(b.sp[i]) {
				return false
			}
		}
		return true
	}
	for _, tc := range batchIdentityArchs {
		t.Run(tc.arch, func(t *testing.T) {
			m := models.MustBuild(tc.arch, tc.c, tc.h, tc.w, 10, 7)
			e := NewDefault(m)
			xs := batchInputs(tc.arch, tc.c, tc.h, tc.w, 3)
			want := make([]reading, len(xs))
			for i, x := range xs {
				want[i] = read(e, x)
			}
			var wg sync.WaitGroup
			for g := 0; g < 3; g++ {
				wg.Add(1)
				go func(g int, r *Engine) {
					defer wg.Done()
					for k := range xs {
						i := (g + k) % len(xs)
						if !same(read(r, xs[i]), want[i]) {
							t.Errorf("replica %d input %d: reading differs from the serial run", g, i)
						}
					}
				}(g, e.Clone())
			}
			wg.Wait()
		})
	}
}

// TestInferBatchSteadyStateZeroAlloc extends the Infer allocation gate to a
// replica's batch: after one warm-up pass, running InferConf and ForwardStats
// over a batch of distinct inputs performs no allocations.
func TestInferBatchSteadyStateZeroAlloc(t *testing.T) {
	m := models.MustBuild("simplecnn", 1, 16, 16, 10, 7)
	e := NewDefault(m)
	xs := batchInputs("simplecnn", 1, 16, 16, 4)
	sp := make([]float64, e.NumLeaves())
	batch := func() {
		for _, x := range xs {
			e.InferConf(x)
			e.ForwardStats(x, sp)
		}
	}
	batch() // warm pools and scratch
	if allocs := testing.AllocsPerRun(20, batch); allocs != 0 {
		t.Fatalf("steady-state batch allocates %v per run, want 0", allocs)
	}
}
