package nn

import (
	"math"
	"testing"

	"advhunter/internal/rng"
	"advhunter/internal/tensor"
)

// scratchLeaf is one leaf layer under the arena/allocating differential,
// with the per-sample input shape it takes.
type scratchLeaf struct {
	layer interface {
		Layer
		ScratchForwarder
	}
	sample []int
}

// scratchLeaves builds every leaf layer type the engine traces, with
// non-zero biases and non-default batch-norm statistics so that no term of a
// kernel can vanish.
func scratchLeaves() []scratchLeaf {
	r := rng.New(41)
	bn := NewBatchNorm2D("bn", 3)
	r.FillNormal(bn.Gamma.Value.Data(), 1, 0.3)
	r.FillNormal(bn.Beta.Value.Data(), 0, 0.3)
	r.FillNormal(bn.RunningMean.Data(), 0, 0.5)
	r.FillUniform(bn.RunningVar.Data(), 0.5, 2)
	leaves := []scratchLeaf{
		{NewConv2D("conv", 3, 4, 3, 2, 1), []int{3, 7, 6}},
		{NewConv2D("conv1x1", 3, 5, 1, 1, 0), []int{3, 5, 5}},
		{NewDepthwiseConv2D("dw", 3, 3, 2, 1), []int{3, 7, 6}},
		{NewLinear("fc", 12, 5), []int{12}},
		{NewReLU("relu"), []int{3, 4, 5}},
		{NewFlatten("flat"), []int{3, 4, 5}},
		{bn, []int{3, 4, 5}},
		{NewMaxPool2DPadded("maxpool", 3, 2, 1), []int{3, 7, 6}},
		{NewMaxPool2D("maxpool0", 2, 2), []int{3, 5, 4}},
		{NewAvgPool2D("avgpool", 2, 2), []int{3, 7, 6}},
		{NewGlobalAvgPool("gap"), []int{3, 4, 5}},
		{NewSqueezeExcite("se", 6, 2), []int{6, 4, 5}},
	}
	for _, lf := range leaves {
		for _, p := range lf.layer.Params() {
			if p.Name != "bn.gamma" && p.Name != "bn.beta" {
				r.FillNormal(p.Value.Data(), 0, 0.5)
			}
		}
	}
	return leaves
}

// scratchInput returns a batch of the given width whose values include
// negatives, exact zeros and negative zeros.
func scratchInput(seed uint64, n int, sample []int) *tensor.Tensor {
	x := tensor.New(append([]int{n}, sample...)...)
	d := x.Data()
	rng.New(seed).FillNormal(d, 0, 1)
	for i := 0; i < len(d); i += 7 {
		d[i] = math.Copysign(0, -1)
	}
	for i := 3; i < len(d); i += 11 {
		d[i] = 0
	}
	return x
}

// poison fills the whole capacity of every arena slot with NaN, so a kernel
// that leaves any element of its output unwritten shows it.
func poison(s *Scratch) {
	for _, t := range s.tensors {
		d := t.Data()
		d = d[:cap(d)]
		for i := range d {
			d[i] = math.NaN()
		}
	}
}

// TestForwardScratchMatchesForward pins that the arena kernel of every leaf
// layer equals its allocating inference forward pass bit for bit, at batch
// widths 1 and 3, out of an arena whose slots were last used for a different
// input and then filled with NaN. It also pins that ReLU.Record fires on both
// inference paths but not in training mode, and that an arena pass between a
// Forward and its Backward leaves the input gradient unchanged.
func TestForwardScratchMatchesForward(t *testing.T) {
	for _, lf := range scratchLeaves() {
		l := lf.layer
		t.Run(l.Name(), func(t *testing.T) {
			var s Scratch
			s.Reset()
			l.ForwardScratch(scratchInput(90, 3, lf.sample), &s)
			for _, n := range []int{1, 3} {
				x := scratchInput(uint64(10+n), n, lf.sample)
				want := l.Forward(x, false).Clone()
				poison(&s)
				s.Reset()
				got := l.ForwardScratch(x, &s)
				if !bitsEqual(got, want) {
					t.Fatalf("width %d: ForwardScratch differs from Forward(x, false)\n got %v\nwant %v", n, got, want)
				}

				// An arena pass on another input must not disturb the
				// caches a Backward after Forward reads.
				w := scratchInput(uint64(20+n), n, want.Shape()[1:])
				l.Forward(x, false)
				g1 := l.Backward(w).Clone()
				l.Forward(x, false)
				s.Reset()
				l.ForwardScratch(scratchInput(uint64(30+n), n, lf.sample), &s)
				if g2 := l.Backward(w); !bitsEqual(g1, g2) {
					t.Fatalf("width %d: an arena pass between Forward and Backward changed the input gradient", n)
				}
			}
		})
	}

	relu := NewReLU("relu")
	calls := 0
	relu.Record = func(*tensor.Tensor) { calls++ }
	x := scratchInput(5, 3, []int{2, 3, 3})
	var s Scratch
	s.Reset()
	relu.ForwardScratch(x, &s)
	relu.Forward(x, false)
	if calls != 2 {
		t.Fatalf("ReLU.Record fired %d times over ForwardScratch and Forward(x, false), want 2", calls)
	}
	relu.Forward(x, true)
	if calls != 2 {
		t.Fatal("ReLU.Record fired on Forward(x, true)")
	}
}

// bitsEqual reports whether a and b have the same shape and the same raw
// float64 bits everywhere (so -0 differs from +0 and NaN matches NaN).
func bitsEqual(a, b *tensor.Tensor) bool {
	if !a.SameShape(b) {
		return false
	}
	bd := b.Data()
	for i, v := range a.Data() {
		if math.Float64bits(v) != math.Float64bits(bd[i]) {
			return false
		}
	}
	return true
}
