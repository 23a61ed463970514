package nn

import "advhunter/internal/tensor"

// ReLU applies max(0, x) element-wise.
//
// If Record is non-nil it is invoked after every inference-mode forward pass
// with the layer output; Figure 1 of the paper (activation-frequency
// distributions) is produced through this hook.
type ReLU struct {
	label string
	// Record, when set, observes the output of each inference-mode forward.
	Record func(out *tensor.Tensor)

	mask []bool
}

// NewReLU constructs a ReLU activation.
func NewReLU(label string) *ReLU { return &ReLU{label: label} }

// Name returns the layer label.
func (l *ReLU) Name() string { return l.label }

// Params returns nil; ReLU has no parameters.
func (l *ReLU) Params() []*Param { return nil }

// Forward runs the ForwardScratch kernel on fresh buffers and caches the
// pass-through mask; Record fires in inference mode only.
func (l *ReLU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	l.mask = make([]bool, x.Len())
	for i, v := range x.Data() {
		l.mask[i] = v > 0
	}
	if train {
		return relu(x, nil)
	}
	return l.ForwardScratch(x, nil)
}

// ForwardScratch implements ScratchForwarder. The Record hook fires, since
// an arena forward is inference-mode by definition.
func (l *ReLU) ForwardScratch(x *tensor.Tensor, s *Scratch) *tensor.Tensor {
	out := relu(x, s)
	if l.Record != nil {
		l.Record(out)
	}
	return out
}

// relu is ReLU's kernel. The negative branch writes an explicit zero, since
// arena memory is not pre-cleared.
func relu(x *tensor.Tensor, s *Scratch) *tensor.Tensor {
	out := s.Tensor(x.Shape()...)
	xd, od := x.Data(), out.Data()
	for i, v := range xd {
		if v > 0 {
			od[i] = v
		} else {
			od[i] = 0
		}
	}
	return out
}

// Backward passes gradients through the positive mask.
func (l *ReLU) Backward(grad *tensor.Tensor) *tensor.Tensor {
	out := tensor.New(grad.Shape()...)
	gd, od := grad.Data(), out.Data()
	for i, m := range l.mask {
		if m {
			od[i] = gd[i]
		}
	}
	return out
}

// Flatten reshapes [N, ...] to [N, features].
type Flatten struct {
	label   string
	inShape []int
}

// NewFlatten constructs a flattening layer.
func NewFlatten(label string) *Flatten { return &Flatten{label: label} }

// Name returns the layer label.
func (l *Flatten) Name() string { return l.label }

// Params returns nil; Flatten has no parameters.
func (l *Flatten) Params() []*Param { return nil }

// Forward runs ForwardScratch and caches the input shape for Backward.
func (l *Flatten) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	l.inShape = append([]int(nil), x.Shape()...)
	return l.ForwardScratch(x, nil)
}

// ForwardScratch implements ScratchForwarder by collapsing all non-batch
// dimensions: a view over x's storage, not a copy.
func (l *Flatten) ForwardScratch(x *tensor.Tensor, s *Scratch) *tensor.Tensor {
	features := 1
	for _, d := range x.Shape()[1:] {
		features *= d
	}
	return s.View(x, 0, x.Dim(0), features)
}

// Backward restores the cached input shape.
func (l *Flatten) Backward(grad *tensor.Tensor) *tensor.Tensor {
	return grad.Reshape(l.inShape...)
}
