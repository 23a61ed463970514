package nn

import (
	"fmt"
	"math"

	"advhunter/internal/tensor"
)

// ConcatChannels concatenates rank-4 tensors along the channel dimension
// into a new tensor. All inputs must share batch and spatial dimensions.
func ConcatChannels(xs ...*tensor.Tensor) *tensor.Tensor {
	totalC := 0
	for _, x := range xs {
		totalC += x.Dim(1)
	}
	return ConcatChannelsInto(tensor.New(xs[0].Dim(0), totalC, xs[0].Dim(2), xs[0].Dim(3)), xs...)
}

// ConcatChannelsInto concatenates rank-4 tensors along the channel dimension
// into dst, which must already have the concatenated shape. dst is fully
// overwritten.
func ConcatChannelsInto(dst *tensor.Tensor, xs ...*tensor.Tensor) *tensor.Tensor {
	n, h, w := xs[0].Dim(0), xs[0].Dim(2), xs[0].Dim(3)
	totalC := 0
	for _, x := range xs {
		if x.Rank() != 4 || x.Dim(0) != n || x.Dim(2) != h || x.Dim(3) != w {
			panic("nn: ConcatChannels input shape mismatch")
		}
		totalC += x.Dim(1)
	}
	if dst.Rank() != 4 || dst.Dim(0) != n || dst.Dim(1) != totalC || dst.Dim(2) != h || dst.Dim(3) != w {
		panic("nn: ConcatChannelsInto dst shape mismatch")
	}
	od := dst.Data()
	plane := h * w
	for i := 0; i < n; i++ {
		cOff := 0
		for _, x := range xs {
			c := x.Dim(1)
			src := x.Data()[i*c*plane : (i+1)*c*plane]
			copy(od[(i*totalC+cOff)*plane:(i*totalC+cOff)*plane+c*plane], src)
			cOff += c
		}
	}
	return dst
}

// SplitChannels is the inverse of ConcatChannels for the given channel sizes.
func SplitChannels(x *tensor.Tensor, sizes []int) []*tensor.Tensor {
	n, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	plane := h * w
	totalC := x.Dim(1)
	outs := make([]*tensor.Tensor, len(sizes))
	xd := x.Data()
	cOff := 0
	for bi, c := range sizes {
		part := tensor.New(n, c, h, w)
		pd := part.Data()
		for i := 0; i < n; i++ {
			copy(pd[i*c*plane:(i+1)*c*plane], xd[(i*totalC+cOff)*plane:(i*totalC+cOff)*plane+c*plane])
		}
		outs[bi] = part
		cOff += c
	}
	if cOff != totalC {
		panic(fmt.Sprintf("nn: split sizes %v do not cover %d channels", sizes, totalC))
	}
	return outs
}

// Residual computes Body(x) + Shortcut(x); a nil Shortcut is the identity.
// This is the basic building block of ResNet-style networks.
type Residual struct {
	label    string
	Body     Layer
	Shortcut Layer // nil means identity
}

// NewResidual constructs a residual block.
func NewResidual(label string, body, shortcut Layer) *Residual {
	return &Residual{label: label, Body: body, Shortcut: shortcut}
}

// Name returns the block label.
func (l *Residual) Name() string { return l.label }

// Params returns the parameters of body and shortcut.
func (l *Residual) Params() []*Param {
	ps := l.Body.Params()
	if l.Shortcut != nil {
		ps = append(ps, l.Shortcut.Params()...)
	}
	return ps
}

// Forward computes the two paths and sums them.
func (l *Residual) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	y := l.Body.Forward(x, train)
	if l.Shortcut != nil {
		return y.AddInPlace(l.Shortcut.Forward(x, train))
	}
	return y.AddInPlace(x)
}

// Backward sums the gradients of the two paths.
func (l *Residual) Backward(grad *tensor.Tensor) *tensor.Tensor {
	dx := l.Body.Backward(grad)
	if l.Shortcut != nil {
		return dx.AddInPlace(l.Shortcut.Backward(grad))
	}
	return dx.AddInPlace(grad)
}

// Parallel applies every branch to the same input and concatenates branch
// outputs along the channel dimension — the Inception module shape used by
// GoogLeNet-style networks.
type Parallel struct {
	label    string
	Branches []Layer

	branchC []int
}

// NewParallel constructs a branch-and-concat combinator.
func NewParallel(label string, branches ...Layer) *Parallel {
	return &Parallel{label: label, Branches: branches}
}

// Name returns the block label.
func (l *Parallel) Name() string { return l.label }

// Params returns the parameters of all branches.
func (l *Parallel) Params() []*Param {
	var ps []*Param
	for _, b := range l.Branches {
		ps = append(ps, b.Params()...)
	}
	return ps
}

// Forward evaluates branches and concatenates their channel outputs.
func (l *Parallel) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	outs := make([]*tensor.Tensor, len(l.Branches))
	l.branchC = make([]int, len(l.Branches))
	for i, b := range l.Branches {
		outs[i] = b.Forward(x, train)
		l.branchC[i] = outs[i].Dim(1)
	}
	return ConcatChannels(outs...)
}

// Backward splits the gradient per branch and sums input gradients.
func (l *Parallel) Backward(grad *tensor.Tensor) *tensor.Tensor {
	parts := SplitChannels(grad, l.branchC)
	var dx *tensor.Tensor
	for i, b := range l.Branches {
		g := b.Backward(parts[i])
		if dx == nil {
			dx = g
		} else {
			dx.AddInPlace(g)
		}
	}
	return dx
}

// DenseBlock implements DenseNet-style growth: each unit consumes the
// concatenation of the block input and all previous unit outputs, and its
// output is appended to that running concatenation.
type DenseBlock struct {
	label string
	Units []Layer

	unitC []int // channel count produced by each unit
	inC   int
}

// NewDenseBlock constructs a dense block from growth units.
func NewDenseBlock(label string, units ...Layer) *DenseBlock {
	return &DenseBlock{label: label, Units: units}
}

// Name returns the block label.
func (l *DenseBlock) Name() string { return l.label }

// Params returns the parameters of all units.
func (l *DenseBlock) Params() []*Param {
	var ps []*Param
	for _, u := range l.Units {
		ps = append(ps, u.Params()...)
	}
	return ps
}

// Forward grows the channel concatenation unit by unit.
func (l *DenseBlock) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	l.inC = x.Dim(1)
	l.unitC = make([]int, len(l.Units))
	cur := x
	for i, u := range l.Units {
		y := u.Forward(cur, train)
		l.unitC[i] = y.Dim(1)
		cur = ConcatChannels(cur, y)
	}
	return cur
}

// Backward walks units in reverse, splitting the running gradient into the
// part feeding earlier features and the part feeding the unit output.
func (l *DenseBlock) Backward(grad *tensor.Tensor) *tensor.Tensor {
	for i := len(l.Units) - 1; i >= 0; i-- {
		prevC := l.inC
		for j := 0; j < i; j++ {
			prevC += l.unitC[j]
		}
		parts := SplitChannels(grad, []int{prevC, l.unitC[i]})
		gPrev, gUnit := parts[0], parts[1]
		gPrev.AddInPlace(l.Units[i].Backward(gUnit))
		grad = gPrev
	}
	return grad
}

// SqueezeExcite recalibrates channels: s = spatial mean per channel,
// g = σ(W2·relu(W1·s)), out = x ⊙ g (broadcast over space). Used by
// EfficientNet-style MBConv blocks.
type SqueezeExcite struct {
	label string
	C     int
	// Reduced is the bottleneck width of the gating MLP.
	Reduced  int
	FC1, FC2 *Linear

	in     *tensor.Tensor
	hidden *tensor.Tensor // [N, Reduced] post-ReLU
	gate   *tensor.Tensor // [N, C] post-sigmoid
}

// NewSqueezeExcite constructs an SE block with bottleneck width reduced.
func NewSqueezeExcite(label string, c, reduced int) *SqueezeExcite {
	return &SqueezeExcite{
		label:   label,
		C:       c,
		Reduced: reduced,
		FC1:     NewLinear(label+".fc1", c, reduced),
		FC2:     NewLinear(label+".fc2", reduced, c),
	}
}

// Name returns the block label.
func (l *SqueezeExcite) Name() string { return l.label }

// Params returns the gating MLP parameters.
func (l *SqueezeExcite) Params() []*Param {
	return append(l.FC1.Params(), l.FC2.Params()...)
}

// Forward runs the ForwardScratch kernel on fresh buffers and caches what
// Backward needs, the gating MLP's inputs included.
func (l *SqueezeExcite) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	out, sq, hidden, gate := l.excite(x, nil)
	l.in, l.hidden, l.gate = x, hidden, gate
	l.FC1.in, l.FC2.in = sq, hidden
	return out
}

// ForwardScratch implements ScratchForwarder: squeeze, gating MLP and
// channel scaling all land in s.
func (l *SqueezeExcite) ForwardScratch(x *tensor.Tensor, s *Scratch) *tensor.Tensor {
	out, _, _, _ := l.excite(x, s)
	return out
}

// excite is SqueezeExcite's kernel. Besides the gated output it returns the
// squeeze [N, C], the post-ReLU hidden layer [N, Reduced] and the
// post-sigmoid gate [N, C].
func (l *SqueezeExcite) excite(x *tensor.Tensor, s *Scratch) (out, sq, hidden, gate *tensor.Tensor) {
	checkRank(l.label, x, 4)
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	plane := h * w
	sq = planeMeans(x, s)
	hidden = l.FC1.ForwardScratch(sq, s)
	hd := hidden.Data()
	for i, v := range hd {
		if v < 0 {
			hd[i] = 0
		}
	}
	gate = l.FC2.ForwardScratch(hidden, s)
	gd := gate.Data()
	for i, v := range gd {
		gd[i] = sigmoid(v)
	}
	out = s.Tensor(x.Shape()...)
	xd, od := x.Data(), out.Data()
	for i := 0; i < n; i++ {
		for ch := 0; ch < c; ch++ {
			g := gd[i*c+ch]
			base := (i*c + ch) * plane
			for p := 0; p < plane; p++ {
				od[base+p] = xd[base+p] * g
			}
		}
	}
	return out, sq, hidden, gate
}

// Backward differentiates both the direct scaling path and the gate path.
func (l *SqueezeExcite) Backward(grad *tensor.Tensor) *tensor.Tensor {
	n, c, h, w := l.in.Dim(0), l.in.Dim(1), l.in.Dim(2), l.in.Dim(3)
	plane := h * w
	xd, gd := l.in.Data(), l.gate.Data()
	dyd := grad.Data()

	// dGate[n,c] = Σ_{hw} dy·x ; direct term dx = dy·g.
	dx := tensor.New(l.in.Shape()...)
	dxd := dx.Data()
	dGatePre := tensor.New(n, c) // gradient at FC2 output (pre-sigmoid)
	dgd := dGatePre.Data()
	for i := 0; i < n; i++ {
		for ch := 0; ch < c; ch++ {
			base := (i*c + ch) * plane
			g := gd[i*c+ch]
			sum := 0.0
			for p := 0; p < plane; p++ {
				dy := dyd[base+p]
				sum += dy * xd[base+p]
				dxd[base+p] = dy * g
			}
			// σ'(z) = g(1-g)
			dgd[i*c+ch] = sum * g * (1 - g)
		}
	}
	// Through FC2, hidden ReLU, FC1.
	dHidden := l.FC2.Backward(dGatePre)
	hd := l.hidden.Data()
	dhd := dHidden.Data()
	for i := range dhd {
		if hd[i] <= 0 {
			dhd[i] = 0
		}
	}
	dSqueeze := l.FC1.Backward(dHidden) // [N, C]
	// Squeeze backward: distribute mean gradient over the plane.
	dsd := dSqueeze.Data()
	inv := 1 / float64(plane)
	for i := 0; i < n; i++ {
		for ch := 0; ch < c; ch++ {
			g := dsd[i*c+ch] * inv
			base := (i*c + ch) * plane
			for p := 0; p < plane; p++ {
				dxd[base+p] += g
			}
		}
	}
	return dx
}

// sigmoid is the numerically stable logistic function used by SqueezeExcite.
func sigmoid(v float64) float64 {
	if v >= 0 {
		return 1 / (1 + math.Exp(-v))
	}
	e := math.Exp(v)
	return e / (1 + e)
}
