package nn

import "fmt"

// CloneShared returns a structural copy of root in which every parameter
// VALUE tensor is shared with the original (weights are never duplicated)
// while all mutable per-forward state — backward caches, gradient
// accumulators, batch-norm running-statistic update targets — is private to
// the copy. The result is safe to run Forward(train=false) and Backward on
// concurrently with the original or with other clones: those paths only read
// the shared tensors.
//
// Two deliberate non-goals:
//   - training-mode forward passes on a clone (they would write the SHARED
//     batch-norm running statistics);
//   - ReLU Record hooks, which are instrumentation wired to one specific
//     replica and are therefore left nil on the copy.
//
// Cloning preserves layer order and structure exactly, so a Walk over the
// clone visits layers in the same order as over the original — the engine's
// synthetic address layout is identical for every replica.
func CloneShared(root *Sequential) *Sequential {
	return cloneLayer(root).(*Sequential)
}

// shareParam wraps a parameter for a clone: shared value, private gradient.
func shareParam(p *Param) *Param {
	return newParam(p.Name, p.Value)
}

func cloneLayer(l Layer) Layer {
	switch c := l.(type) {
	case *Sequential:
		out := &Sequential{label: c.label, Layers: make([]Layer, len(c.Layers))}
		for i, sub := range c.Layers {
			out.Layers[i] = cloneLayer(sub)
		}
		return out
	case *Conv2D:
		return &Conv2D{
			label: c.label, InC: c.InC, OutC: c.OutC,
			Kernel: c.Kernel, Stride: c.Stride, Pad: c.Pad,
			W: shareParam(c.W), B: shareParam(c.B),
		}
	case *DepthwiseConv2D:
		return &DepthwiseConv2D{
			label: c.label, C: c.C, Kernel: c.Kernel, Stride: c.Stride, Pad: c.Pad,
			W: shareParam(c.W), B: shareParam(c.B),
		}
	case *Linear:
		return &Linear{
			label: c.label, In: c.In, Out: c.Out,
			W: shareParam(c.W), B: shareParam(c.B),
		}
	case *BatchNorm2D:
		return &BatchNorm2D{
			label: c.label, C: c.C, Eps: c.Eps, Momentum: c.Momentum,
			Gamma: shareParam(c.Gamma), Beta: shareParam(c.Beta),
			// Running statistics are read-only in inference mode; training a
			// clone is out of contract (see CloneShared doc).
			RunningMean: c.RunningMean, RunningVar: c.RunningVar,
		}
	case *ReLU:
		return &ReLU{label: c.label}
	case *Flatten:
		return &Flatten{label: c.label}
	case *MaxPool2D:
		return &MaxPool2D{label: c.label, Kernel: c.Kernel, Stride: c.Stride, Pad: c.Pad}
	case *AvgPool2D:
		return &AvgPool2D{label: c.label, Kernel: c.Kernel, Stride: c.Stride}
	case *GlobalAvgPool:
		return &GlobalAvgPool{label: c.label}
	case *Residual:
		out := &Residual{label: c.label, Body: cloneLayer(c.Body)}
		if c.Shortcut != nil {
			out.Shortcut = cloneLayer(c.Shortcut)
		}
		return out
	case *Parallel:
		out := &Parallel{label: c.label, Branches: make([]Layer, len(c.Branches))}
		for i, b := range c.Branches {
			out.Branches[i] = cloneLayer(b)
		}
		return out
	case *DenseBlock:
		out := &DenseBlock{label: c.label, Units: make([]Layer, len(c.Units))}
		for i, u := range c.Units {
			out.Units[i] = cloneLayer(u)
		}
		return out
	case *SqueezeExcite:
		return &SqueezeExcite{
			label: c.label, C: c.C, Reduced: c.Reduced,
			FC1: cloneLayer(c.FC1).(*Linear),
			FC2: cloneLayer(c.FC2).(*Linear),
		}
	default:
		panic(fmt.Sprintf("nn: CloneShared does not know layer type %T (%s)", l, l.Name()))
	}
}
