package nn

import (
	"fmt"

	"advhunter/internal/tensor"
)

// Conv2D is a standard 2-D convolution with square kernels.
//
// Weight layout: W[outC, inC, k, k], bias B[outC]. Input [N, inC, H, W],
// output [N, outC, H', W'] with H' = (H+2·Pad−Kernel)/Stride + 1.
type Conv2D struct {
	label          string
	InC, OutC      int
	Kernel, Stride int
	Pad            int
	W, B           *Param

	in *tensor.Tensor // cached for backward
}

// NewConv2D constructs a convolution layer with zero-valued parameters; use
// an initialiser from init.go to fill them.
func NewConv2D(label string, inC, outC, kernel, stride, pad int) *Conv2D {
	l := &Conv2D{label: label, InC: inC, OutC: outC, Kernel: kernel, Stride: stride, Pad: pad}
	l.W = newParam(label+".W", tensor.New(outC, inC, kernel, kernel))
	l.B = newParam(label+".B", tensor.New(outC))
	return l
}

// Name returns the layer label.
func (l *Conv2D) Name() string { return l.label }

// Params returns weight and bias.
func (l *Conv2D) Params() []*Param { return []*Param{l.W, l.B} }

// Geom returns the convolution geometry for an input of the given spatial
// size. Exposed for the instrumented engine.
func (l *Conv2D) Geom(h, w int) tensor.ConvGeom {
	return tensor.ConvGeom{InC: l.InC, InH: h, InW: w, Kernel: l.Kernel, Stride: l.Stride, Pad: l.Pad}
}

// Forward runs ForwardScratch on fresh buffers and caches the input for
// Backward.
func (l *Conv2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	l.in = x
	return l.ForwardScratch(x, nil)
}

// ForwardScratch implements ScratchForwarder: im2col + matmul, then bias,
// one sample at a time through one column buffer and one product buffer.
func (l *Conv2D) ForwardScratch(x *tensor.Tensor, s *Scratch) *tensor.Tensor {
	checkRank(l.label, x, 4)
	if x.Dim(1) != l.InC {
		panic(fmt.Sprintf("nn: %s expects %d input channels, got %d", l.label, l.InC, x.Dim(1)))
	}
	n, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	g := l.Geom(h, w)
	oh, ow := g.OutH(), g.OutW()
	plane := oh * ow
	out := s.Tensor(n, l.OutC, oh, ow)
	wm := s.View(l.W.Value, 0, l.OutC, l.InC*l.Kernel*l.Kernel)
	bias := l.B.Value.Data()
	od := out.Data()
	cols := s.Tensor(l.InC*l.Kernel*l.Kernel, plane)
	y := s.Tensor(l.OutC, plane)
	yd := y.Data()
	sample := l.InC * h * w
	for i := 0; i < n; i++ {
		tensor.Im2ColInto(cols, s.View(x, i*sample, l.InC, h, w), g)
		tensor.MatMulInto(y, wm, cols)
		oOff := i * l.OutC * plane
		for oc := 0; oc < l.OutC; oc++ {
			b := bias[oc]
			for p := 0; p < plane; p++ {
				od[oOff+oc*plane+p] = yd[oc*plane+p] + b
			}
		}
	}
	return out
}

// Backward accumulates dW, dB and returns dX.
func (l *Conv2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	n := grad.Dim(0)
	g := l.Geom(l.in.Dim(2), l.in.Dim(3))
	plane := g.OutH() * g.OutW()
	dx := tensor.New(l.in.Shape()...)
	wmT := tensor.Transpose2D(l.W.Value.Reshape(l.OutC, l.InC*l.Kernel*l.Kernel))
	dwm := l.W.Grad.Reshape(l.OutC, l.InC*l.Kernel*l.Kernel)
	db := l.B.Grad.Data()
	cols := tensor.New(l.InC*l.Kernel*l.Kernel, plane)
	for i := 0; i < n; i++ {
		tensor.Im2ColInto(cols, sampleView(l.in, i), g)
		gy := sampleView(grad, i).Reshape(l.OutC, plane)
		// dB: row sums of gy.
		gyd := gy.Data()
		for oc := 0; oc < l.OutC; oc++ {
			s := 0.0
			for p := 0; p < plane; p++ {
				s += gyd[oc*plane+p]
			}
			db[oc] += s
		}
		// dW += gy · colsᵀ
		dwm.AddInPlace(tensor.MatMul(gy, tensor.Transpose2D(cols)))
		// dX sample = col2im(Wᵀ · gy)
		dcols := tensor.MatMul(wmT, gy)
		sampleView(dx, i).AddInPlace(tensor.Col2Im(dcols, g))
	}
	return dx
}

// DepthwiseConv2D convolves each input channel with its own single filter
// (channel multiplier 1), as used by MBConv blocks in EfficientNet-style
// networks. Weight layout: W[C, k, k], bias B[C].
type DepthwiseConv2D struct {
	label          string
	C              int
	Kernel, Stride int
	Pad            int
	W, B           *Param

	in *tensor.Tensor
}

// NewDepthwiseConv2D constructs a depthwise convolution with zero parameters.
func NewDepthwiseConv2D(label string, c, kernel, stride, pad int) *DepthwiseConv2D {
	l := &DepthwiseConv2D{label: label, C: c, Kernel: kernel, Stride: stride, Pad: pad}
	l.W = newParam(label+".W", tensor.New(c, kernel, kernel))
	l.B = newParam(label+".B", tensor.New(c))
	return l
}

// Name returns the layer label.
func (l *DepthwiseConv2D) Name() string { return l.label }

// Params returns weight and bias.
func (l *DepthwiseConv2D) Params() []*Param { return []*Param{l.W, l.B} }

// Geom returns the per-channel convolution geometry for the given input size.
func (l *DepthwiseConv2D) Geom(h, w int) tensor.ConvGeom {
	return tensor.ConvGeom{InC: 1, InH: h, InW: w, Kernel: l.Kernel, Stride: l.Stride, Pad: l.Pad}
}

// Forward runs ForwardScratch on fresh buffers and caches the input for
// Backward.
func (l *DepthwiseConv2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	l.in = x
	return l.ForwardScratch(x, nil)
}

// ForwardScratch implements ScratchForwarder, computing the depthwise
// convolution directly from the definition; every output element is written
// (its sum starts from the bias).
func (l *DepthwiseConv2D) ForwardScratch(x *tensor.Tensor, s *Scratch) *tensor.Tensor {
	checkRank(l.label, x, 4)
	if x.Dim(1) != l.C {
		panic(fmt.Sprintf("nn: %s expects %d channels, got %d", l.label, l.C, x.Dim(1)))
	}
	n, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	g := l.Geom(h, w)
	oh, ow := g.OutH(), g.OutW()
	out := s.Tensor(n, l.C, oh, ow)
	wd, bd := l.W.Value.Data(), l.B.Value.Data()
	xd, od := x.Data(), out.Data()
	k := l.Kernel
	for i := 0; i < n; i++ {
		for c := 0; c < l.C; c++ {
			xoff := (i*l.C + c) * h * w
			ooff := (i*l.C + c) * oh * ow
			woff := c * k * k
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					sum := bd[c]
					for ky := 0; ky < k; ky++ {
						iy := oy*l.Stride + ky - l.Pad
						if iy < 0 || iy >= h {
							continue
						}
						for kx := 0; kx < k; kx++ {
							ix := ox*l.Stride + kx - l.Pad
							if ix < 0 || ix >= w {
								continue
							}
							sum += xd[xoff+iy*w+ix] * wd[woff+ky*k+kx]
						}
					}
					od[ooff+oy*ow+ox] = sum
				}
			}
		}
	}
	return out
}

// Backward accumulates dW, dB and returns dX for the depthwise convolution.
func (l *DepthwiseConv2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	n, h, w := l.in.Dim(0), l.in.Dim(2), l.in.Dim(3)
	g := l.Geom(h, w)
	oh, ow := g.OutH(), g.OutW()
	dx := tensor.New(l.in.Shape()...)
	xd, gd, dxd := l.in.Data(), grad.Data(), dx.Data()
	wd, dwd, dbd := l.W.Value.Data(), l.W.Grad.Data(), l.B.Grad.Data()
	k := l.Kernel
	for i := 0; i < n; i++ {
		for c := 0; c < l.C; c++ {
			xoff := (i*l.C + c) * h * w
			goff := (i*l.C + c) * oh * ow
			woff := c * k * k
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					g := gd[goff+oy*ow+ox]
					if g == 0 {
						continue
					}
					dbd[c] += g
					for ky := 0; ky < k; ky++ {
						iy := oy*l.Stride + ky - l.Pad
						if iy < 0 || iy >= h {
							continue
						}
						for kx := 0; kx < k; kx++ {
							ix := ox*l.Stride + kx - l.Pad
							if ix < 0 || ix >= w {
								continue
							}
							dwd[woff+ky*k+kx] += g * xd[xoff+iy*w+ix]
							dxd[xoff+iy*w+ix] += g * wd[woff+ky*k+kx]
						}
					}
				}
			}
		}
	}
	return dx
}

// Linear is a fully connected layer: y = x·Wᵀ + b with W[out, in].
type Linear struct {
	label   string
	In, Out int
	W, B    *Param

	in *tensor.Tensor
}

// NewLinear constructs a fully connected layer with zero parameters.
func NewLinear(label string, in, out int) *Linear {
	l := &Linear{label: label, In: in, Out: out}
	l.W = newParam(label+".W", tensor.New(out, in))
	l.B = newParam(label+".B", tensor.New(out))
	return l
}

// Name returns the layer label.
func (l *Linear) Name() string { return l.label }

// Params returns weight and bias.
func (l *Linear) Params() []*Param { return []*Param{l.W, l.B} }

// Forward runs ForwardScratch on fresh buffers and caches the input for
// Backward.
func (l *Linear) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	l.in = x
	return l.ForwardScratch(x, nil)
}

// ForwardScratch implements ScratchForwarder for input [N, In]: the weight
// transpose and the product land in s, then the bias is added.
func (l *Linear) ForwardScratch(x *tensor.Tensor, s *Scratch) *tensor.Tensor {
	checkRank(l.label, x, 2)
	if x.Dim(1) != l.In {
		panic(fmt.Sprintf("nn: %s expects %d features, got %d", l.label, l.In, x.Dim(1)))
	}
	wT := tensor.Transpose2DInto(s.Tensor(l.In, l.Out), l.W.Value)
	out := tensor.MatMulInto(s.Tensor(x.Dim(0), l.Out), x, wT)
	od, bd := out.Data(), l.B.Value.Data()
	n := x.Dim(0)
	for i := 0; i < n; i++ {
		for j := 0; j < l.Out; j++ {
			od[i*l.Out+j] += bd[j]
		}
	}
	return out
}

// Backward accumulates dW = gradᵀ·x, dB = Σ grad rows, and returns grad·W.
func (l *Linear) Backward(grad *tensor.Tensor) *tensor.Tensor {
	l.W.Grad.AddInPlace(tensor.MatMul(tensor.Transpose2D(grad), l.in))
	gd, dbd := grad.Data(), l.B.Grad.Data()
	n := grad.Dim(0)
	for i := 0; i < n; i++ {
		for j := 0; j < l.Out; j++ {
			dbd[j] += gd[i*l.Out+j]
		}
	}
	return tensor.MatMul(grad, l.W.Value)
}
