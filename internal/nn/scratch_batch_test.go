package nn

import (
	"math"
	"testing"

	"advhunter/internal/rng"
	"advhunter/internal/tensor"
)

// Conv2D.ForwardScratch over a batch must reproduce each sample's standalone
// pass bit-for-bit — the shared column and product buffers carry nothing from
// one sample to the next: run the batch through one arena, each sample alone
// through another, and compare raw float bits.
func TestConvScratchBatchBitIdentical(t *testing.T) {
	r := rng.New(3)
	l := NewConv2D("c", 3, 6, 3, 2, 1)
	r.FillNormal(l.W.Value.Data(), 0, 0.5)
	r.FillNormal(l.B.Value.Data(), 0, 0.5)
	for _, batch := range []int{1, 3, 8, 17} {
		x := tensor.New(batch, 3, 11, 9)
		r.FillNormal(x.Data(), 0, 1)
		var sb Scratch
		sb.Reset()
		got := l.ForwardScratch(x, &sb)
		per := got.Len() / batch
		for s := 0; s < batch; s++ {
			xi := tensor.FromSlice(x.Data()[s*3*11*9:(s+1)*3*11*9], 1, 3, 11, 9)
			var s1 Scratch
			s1.Reset()
			want := l.ForwardScratch(xi, &s1)
			for i, w := range want.Data() {
				g := got.Data()[s*per+i]
				if math.Float64bits(w) != math.Float64bits(g) {
					t.Fatalf("batch %d sample %d element %d: %g vs %g", batch, s, i, w, g)
				}
			}
		}
	}
}

// Varying batch widths through one arena must converge on the high-water
// buffers: after seeing the widest batch once, narrower (and repeated widest)
// passes perform zero allocations.
func TestScratchCapacityReuseAcrossWidths(t *testing.T) {
	r := rng.New(5)
	l := NewConv2D("c", 2, 4, 3, 1, 1)
	r.FillNormal(l.W.Value.Data(), 0, 0.5)
	xs := map[int]*tensor.Tensor{}
	for _, b := range []int{1, 3, 8} {
		xs[b] = tensor.New(b, 2, 8, 8)
		r.FillNormal(xs[b].Data(), 0, 1)
	}
	var s Scratch
	for _, b := range []int{1, 3, 8} { // warm to the high-water width
		s.Reset()
		l.ForwardScratch(xs[b], &s)
	}
	for _, b := range []int{8, 1, 3, 8} {
		allocs := testing.AllocsPerRun(10, func() {
			s.Reset()
			l.ForwardScratch(xs[b], &s)
		})
		if allocs != 0 {
			t.Fatalf("width %d: %v allocs/run after warm-up, want 0", b, allocs)
		}
	}
}
