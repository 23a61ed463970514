// Package nn implements the neural-network substrate: layers with exact
// forward and backward passes (pure Go, float64), containers, weight
// initialisation, and the softmax cross-entropy loss. Backward passes return
// input gradients, which is what the white-box attacker (internal/attack)
// needs, and accumulate parameter gradients, which is what the trainer
// (internal/train) needs.
//
// Tensors flow through layers with an explicit leading batch dimension:
// convolutional layers take [N, C, H, W], fully connected layers take
// [N, features]. Each leaf layer's inference arithmetic is one kernel,
// ForwardScratch, which draws its outputs from a Scratch arena and writes no
// layer field. Forward runs that kernel on fresh buffers and caches whatever
// the backward pass needs; a Forward/Backward pair must therefore not be
// interleaved with another Forward on the same layer, while ForwardScratch
// may run anywhere in between, and concurrently.
package nn

import (
	"fmt"

	"advhunter/internal/tensor"
)

// Param is a trainable tensor together with its gradient accumulator.
type Param struct {
	Name  string
	Value *tensor.Tensor
	Grad  *tensor.Tensor
}

// newParam allocates a parameter with a zeroed gradient of matching shape.
func newParam(name string, value *tensor.Tensor) *Param {
	return &Param{Name: name, Value: value, Grad: tensor.New(value.Shape()...)}
}

// ZeroGrad clears the gradient accumulator.
func (p *Param) ZeroGrad() { p.Grad.Zero() }

// Layer is a differentiable computation stage.
type Layer interface {
	// Name returns a short human-readable identifier for diagnostics.
	Name() string
	// Forward computes the layer output for a batched input. train selects
	// training-mode behaviour (batch statistics); inference uses
	// train=false.
	Forward(x *tensor.Tensor, train bool) *tensor.Tensor
	// Backward consumes the gradient of the loss with respect to the
	// layer's output (same shape as the last Forward result), accumulates
	// parameter gradients, and returns the gradient with respect to the
	// layer's input.
	Backward(grad *tensor.Tensor) *tensor.Tensor
	// Params returns the layer's trainable parameters (possibly empty).
	Params() []*Param
}

// Sequential chains layers, feeding each layer's output to the next.
type Sequential struct {
	label  string
	Layers []Layer
}

// NewSequential builds a named layer chain.
func NewSequential(label string, layers ...Layer) *Sequential {
	return &Sequential{label: label, Layers: layers}
}

// Name returns the chain's label.
func (s *Sequential) Name() string { return s.label }

// Forward applies every layer in order.
func (s *Sequential) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	for _, l := range s.Layers {
		x = l.Forward(x, train)
	}
	return x
}

// Backward propagates the gradient through the chain in reverse.
func (s *Sequential) Backward(grad *tensor.Tensor) *tensor.Tensor {
	for i := len(s.Layers) - 1; i >= 0; i-- {
		grad = s.Layers[i].Backward(grad)
	}
	return grad
}

// Params collects parameters from all layers in order.
func (s *Sequential) Params() []*Param {
	var ps []*Param
	for _, l := range s.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// Append adds layers to the end of the chain.
func (s *Sequential) Append(layers ...Layer) { s.Layers = append(s.Layers, layers...) }

// Walk visits every layer in the chain depth-first, descending into
// composite layers. It is used by the instrumented engine and by experiment
// code that needs to locate specific layer types (e.g. ReLU recorders).
func (s *Sequential) Walk(visit func(Layer)) {
	for _, l := range s.Layers {
		walkLayer(l, visit)
	}
}

// walkLayer visits l and recursively its children for known composite types.
func walkLayer(l Layer, visit func(Layer)) {
	visit(l)
	switch c := l.(type) {
	case *Sequential:
		for _, sub := range c.Layers {
			walkLayer(sub, visit)
		}
	case *Residual:
		walkLayer(c.Body, visit)
		if c.Shortcut != nil {
			walkLayer(c.Shortcut, visit)
		}
	case *Parallel:
		for _, b := range c.Branches {
			walkLayer(b, visit)
		}
	case *DenseBlock:
		for _, u := range c.Units {
			walkLayer(u, visit)
		}
	case *SqueezeExcite:
		// Leaf from the walker's perspective; its FCs are internal.
	}
}

// sampleView returns sample n of a batched tensor as an unbatched view
// sharing storage.
func sampleView(x *tensor.Tensor, n int) *tensor.Tensor {
	shape := x.Shape()
	sz := 1
	for _, d := range shape[1:] {
		sz *= d
	}
	return tensor.FromSlice(x.Data()[n*sz:(n+1)*sz], shape[1:]...)
}

// checkRank panics unless x has the wanted rank.
func checkRank(layer string, x *tensor.Tensor, rank int) {
	if x.Rank() != rank {
		panic(fmt.Sprintf("nn: %s expects rank-%d input, got shape %v", layer, rank, x.Shape()))
	}
}
