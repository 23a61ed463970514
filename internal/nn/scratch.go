package nn

import "advhunter/internal/tensor"

// Scratch is a per-engine arena of reusable forward-pass buffers. The
// instrumented engine replays the same deterministic layer sequence every
// inference, so the i-th Tensor/View request of one pass has the same shape
// as the i-th request of the next; Scratch exploits that by handing out the
// same backing buffers in call order. After the first inference a steady-state
// forward pass through ForwardScratch performs zero heap allocations.
//
// Every leaf layer's inference arithmetic is its ForwardScratch kernel, and
// Forward runs that same kernel with a nil *Scratch, which hands out fresh
// zeroed tensors and fresh view headers. So the arena and the allocating
// pass differ only in where the buffers come from.
//
// Contract:
//   - Reset must be called at the start of every inference; it rewinds the
//     slot cursors without freeing anything.
//   - Tensors returned by Tensor hold UNINITIALIZED contents (whatever the
//     previous pass left there). Every kernel must fully overwrite its
//     output, including explicit zero writes that fresh buffers would give
//     for free.
//   - Buffers remain valid until the next Reset, matching the engine's
//     activation lifetime (traces only reference a layer's input and output).
//   - ForwardScratch writes no layer field, so engine replicas can share one
//     network; Forward alone records the backward caches.
//
// Scratch is not safe for concurrent use; engine replicas each own one.
type Scratch struct {
	tensors []*tensor.Tensor
	ti      int
	views   []*tensor.Tensor
	vi      int
}

// Reset rewinds the arena for the next inference. Buffers are retained.
func (s *Scratch) Reset() { s.ti, s.vi = 0, 0 }

// Tensor returns a tensor of the given shape backed by the arena, or a fresh
// zeroed tensor when s is nil. Arena contents are uninitialized. Slot storage
// is reused whenever its capacity covers the requested element count — not
// only on an exact match — so passes whose batch widths vary (3, then 8, then
// 1 through the same layer) converge on the high-water buffer instead of
// reallocating on every width change. Undersized slots grow once and stay
// grown.
func (s *Scratch) Tensor(shape ...int) *tensor.Tensor {
	if s == nil {
		return tensor.New(shape...)
	}
	if s.ti == len(s.tensors) {
		t := tensor.New(shape...)
		s.tensors = append(s.tensors, t)
		s.ti++
		return t
	}
	t := s.tensors[s.ti]
	s.ti++
	n := 1
	for _, d := range shape {
		n *= d
	}
	if d := t.Data(); cap(d) >= n {
		return t.Alias(d[:n], shape...)
	}
	t = tensor.New(shape...)
	s.tensors[s.ti-1] = t
	return t
}

// View returns a tensor aliasing the product-of-shape elements of src's
// storage that start at element off — a window, not a copy; writes through
// the view are writes to src. The header is an arena slot, or a fresh one
// when s is nil.
func (s *Scratch) View(src *tensor.Tensor, off int, shape ...int) *tensor.Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if s == nil {
		return tensor.FromSlice(src.Data()[off:off+n], shape...)
	}
	if s.vi == len(s.views) {
		s.views = append(s.views, &tensor.Tensor{})
	}
	t := s.views[s.vi]
	s.vi++
	return t.Alias(src.Data()[off:off+n], shape...)
}

// ScratchForwarder is implemented by every leaf layer the engine traces. Its
// ForwardScratch is the layer's one inference kernel: it draws its outputs
// from s, writes no backward cache (or any other layer field), allocates
// nothing in steady state, and Forward(x, false) runs the same kernel with a
// nil s.
type ScratchForwarder interface {
	ForwardScratch(x *tensor.Tensor, s *Scratch) *tensor.Tensor
}
