package engine

import (
	"advhunter/internal/nn"
	"advhunter/internal/tensor"
)

// ceilDiv rounds the quotient up.
func ceilDiv(a, b int) int { return (a + b - 1) / b }

// tref is a tensor placed in the simulated address space, with precomputed
// zero-content metadata.
type tref struct {
	t    *tensor.Tensor // batched [1, ...]
	addr uint64
	// lineZero[i] reports whether the i-th 64-byte line of the tensor's
	// storage holds only zeros (ZCA-eligible).
	lineZero []bool
	// rowZero[c][y], present for rank-4 tensors, reports whether spatial
	// row y of channel c is entirely zero (weight-load elision granule).
	rowZero [][]bool
}

// lines returns the number of cache lines the tensor occupies.
func (r tref) lines() int { return len(r.lineZero) }

// fillRef computes the zero metadata of t at the given address into the
// caller-provided buffers (lz sized to the line count; rz, when the tensor is
// rank-4 single-batch, sized [C][H]) and fully overwrites them. tol is the
// magnitude below which a value is storage-zero: the engine models the
// deployment-standard quantized tensor format, where activations with
// |v| < maxAbs/levels quantize to the zero point exactly, so a line of small
// activations really is an all-zero line in memory. tol = 0 models exact
// float zeros (post-ReLU only). The engine feeds it pooled buffers so
// steady-state inference builds refs without allocating.
func fillRef(t *tensor.Tensor, addr uint64, tol float64, lz []bool, rz [][]bool) tref {
	d := t.Data()
	isZero := func(v float64) bool {
		if v < 0 {
			v = -v
		}
		return v <= tol
	}
	nLines := len(lz)
	for li := 0; li < nLines; li++ {
		zero := true
		end := (li + 1) * floatsPerLine
		if end > len(d) {
			end = len(d)
		}
		for _, v := range d[li*floatsPerLine : end] {
			if !isZero(v) {
				zero = false
				break
			}
		}
		lz[li] = zero
	}
	ref := tref{t: t, addr: addr, lineZero: lz}
	if rz != nil {
		c, h, w := t.Dim(1), t.Dim(2), t.Dim(3)
		for ci := 0; ci < c; ci++ {
			for y := 0; y < h; y++ {
				off := (ci*h + y) * w
				zero := true
				for _, v := range d[off : off+w] {
					if !isZero(v) {
						zero = false
						break
					}
				}
				rz[ci][y] = zero
			}
		}
		ref.rowZero = rz
	}
	return ref
}

// quantTol returns the storage-zero threshold of a tensor under symmetric
// quantization with the given number of positive levels (127 for int8);
// levels <= 0 selects exact-zero semantics.
func quantTol(t *tensor.Tensor, levels int) float64 {
	if levels <= 0 {
		return 0
	}
	maxAbs := 0.0
	for _, v := range t.Data() {
		if v < 0 {
			v = -v
		}
		if v > maxAbs {
			maxAbs = v
		}
	}
	return maxAbs / float64(levels)
}

// layout assigns simulated addresses to every layer's code region and
// parameter block. Addresses depend only on the model structure, never on
// inputs, so the memory map is identical across inferences.
type layout struct {
	code   map[nn.Layer]uint64
	weight map[nn.Layer]uint64
}

// buildLayout walks the model and places code and weights.
func buildLayout(root *nn.Sequential) *layout {
	lo := &layout{
		code:   make(map[nn.Layer]uint64),
		weight: make(map[nn.Layer]uint64),
	}
	nextCode := uint64(codeBase)
	nextWeight := uint64(weightBase)
	root.Walk(func(l nn.Layer) {
		lo.code[l] = nextCode
		nextCode += codeStride
		bytes := 0
		for _, p := range l.Params() {
			bytes += p.Value.Len() * 8
		}
		if bytes > 0 {
			lo.weight[l] = nextWeight
			nextWeight += uint64((bytes + lineB - 1) &^ (lineB - 1))
		}
	})
	// The root Sequential itself also gets a code region (dispatch loop).
	lo.code[root] = nextCode
	return lo
}

// arena is a bump allocator over the activation ring.
type arena struct {
	cur uint64
}

// alloc reserves bytes (line-aligned) and returns the base address, wrapping
// when the ring is exhausted — activation buffers are recycled exactly like
// a real inference runtime's workspace.
func (a *arena) alloc(bytes int) uint64 {
	need := uint64((bytes + lineB - 1) &^ (lineB - 1))
	if a.cur+need > arenaSize {
		a.cur = 0
	}
	addr := arenaBase + a.cur
	a.cur += need
	return addr
}

// reset starts the next inference with a fresh ring.
func (a *arena) reset() { a.cur = 0 }
