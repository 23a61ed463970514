package nn

import (
	"math"

	"advhunter/internal/tensor"
)

// Scratch is a per-engine arena of reusable forward-pass buffers. The
// instrumented engine replays the same deterministic layer sequence every
// inference, so the i-th Tensor/View request of one pass has the same shape
// as the i-th request of the next; Scratch exploits that by handing out the
// same backing buffers in call order. After the first inference a steady-state
// forward pass through ForwardScratch performs zero heap allocations.
//
// Contract:
//   - Reset must be called at the start of every inference; it rewinds the
//     slot cursors without freeing anything.
//   - Tensors returned by Tensor hold UNINITIALIZED contents (whatever the
//     previous pass left there). Every consumer must fully overwrite its
//     output — including explicit zero writes on branches the allocating
//     forward passes got for free from tensor.New.
//   - Buffers remain valid until the next Reset, matching the engine's
//     activation lifetime (traces only reference a layer's input and output).
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

// Tensor returns a tensor of the given shape backed by the arena. Contents
// are uninitialized. Slot storage is reused whenever its capacity covers the
// requested element count — not only on an exact match — so passes whose
// batch widths vary (3, then 8, then 1 through the same layer) converge on
// the high-water buffer instead of reallocating on every width change.
// Undersized slots grow once and stay grown.
func (s *Scratch) Tensor(shape ...int) *tensor.Tensor {
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

// View returns a pooled tensor aliasing elements [off, off+len(shape)) of
// src's storage — a window, not a copy; writes through the view are writes
// to src.
func (s *Scratch) View(src *tensor.Tensor, off int, shape ...int) *tensor.Tensor {
	if s.vi == len(s.views) {
		s.views = append(s.views, &tensor.Tensor{})
	}
	t := s.views[s.vi]
	s.vi++
	n := 1
	for _, d := range shape {
		n *= d
	}
	return t.Alias(src.Data()[off:off+n], shape...)
}

// ScratchForwarder is implemented by layers that can run an inference-mode
// forward pass entirely out of a Scratch arena: no backward caches are
// written, no heap allocation occurs in steady state, and the returned values
// are bit-identical to Forward(x, false).
type ScratchForwarder interface {
	ForwardScratch(x *tensor.Tensor, s *Scratch) *tensor.Tensor
}

// ForwardScratch implements ScratchForwarder. Identical arithmetic to
// Forward (im2col + matmul, then bias), but the column and product buffers
// are arena slots reused across samples and passes, and no backward caches
// (in/cols/geom) are recorded. A batch runs one sample at a time.
func (l *Conv2D) ForwardScratch(x *tensor.Tensor, s *Scratch) *tensor.Tensor {
	checkRank(l.label, x, 4)
	if x.Dim(1) != l.InC {
		panic("nn: " + l.label + ": channel mismatch in scratch forward")
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
		xi := s.View(x, i*sample, l.InC, h, w)
		tensor.Im2ColInto(cols, xi, g)
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

// ForwardScratch implements ScratchForwarder with the same direct loops as
// Forward; every output element is written (sum starts from the bias).
func (l *DepthwiseConv2D) ForwardScratch(x *tensor.Tensor, s *Scratch) *tensor.Tensor {
	checkRank(l.label, x, 4)
	if x.Dim(1) != l.C {
		panic("nn: " + l.label + ": channel mismatch in scratch forward")
	}
	n, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	g := tensor.ConvGeom{InC: 1, InH: h, InW: w, Kernel: l.Kernel, Stride: l.Stride, Pad: l.Pad}
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

// ForwardScratch implements ScratchForwarder: the weight transpose and the
// product land in arena slots, and the input is not cached.
func (l *Linear) ForwardScratch(x *tensor.Tensor, s *Scratch) *tensor.Tensor {
	checkRank(l.label, x, 2)
	if x.Dim(1) != l.In {
		panic("nn: " + l.label + ": feature mismatch in scratch forward")
	}
	wT := s.Tensor(l.In, l.Out)
	tensor.Transpose2DInto(wT, l.W.Value)
	out := s.Tensor(x.Dim(0), l.Out)
	tensor.MatMulInto(out, x, wT)
	od, bd := out.Data(), l.B.Value.Data()
	n := x.Dim(0)
	for i := 0; i < n; i++ {
		for j := 0; j < l.Out; j++ {
			od[i*l.Out+j] += bd[j]
		}
	}
	return out
}

// ForwardScratch implements ScratchForwarder. The negative branch writes an
// explicit zero (scratch memory is not pre-cleared) and no mask is cached;
// the Record hook still fires, since scratch forwards are inference-mode by
// definition.
func (l *ReLU) ForwardScratch(x *tensor.Tensor, s *Scratch) *tensor.Tensor {
	out := s.Tensor(x.Shape()...)
	xd, od := x.Data(), out.Data()
	for i, v := range xd {
		if v > 0 {
			od[i] = v
		} else {
			od[i] = 0
		}
	}
	if l.Record != nil {
		l.Record(out)
	}
	return out
}

// ForwardScratch implements ScratchForwarder with the same expression
// Forward applies (1/(1+e^{-x}), not the branching stable form), so outputs
// stay bit-identical.
func (l *Sigmoid) ForwardScratch(x *tensor.Tensor, s *Scratch) *tensor.Tensor {
	out := s.Tensor(x.Shape()...)
	xd, od := x.Data(), out.Data()
	for i, v := range xd {
		od[i] = 1 / (1 + math.Exp(-v))
	}
	return out
}

// ForwardScratch implements ScratchForwarder: a pooled view over the same
// storage, mirroring Forward's Reshape (which also shares storage).
func (l *Flatten) ForwardScratch(x *tensor.Tensor, s *Scratch) *tensor.Tensor {
	features := 1
	for _, d := range x.Shape()[1:] {
		features *= d
	}
	return s.View(x, 0, x.Dim(0), features)
}

// ForwardScratch implements ScratchForwarder for the inference-mode affine
// map; the per-channel scale cache is skipped.
func (l *BatchNorm2D) ForwardScratch(x *tensor.Tensor, s *Scratch) *tensor.Tensor {
	checkRank(l.label, x, 4)
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	plane := h * w
	out := s.Tensor(x.Shape()...)
	xd, od := x.Data(), out.Data()
	gd, bd := l.Gamma.Value.Data(), l.Beta.Value.Data()
	rm, rv := l.RunningMean.Data(), l.RunningVar.Data()
	for ch := 0; ch < c; ch++ {
		scale := gd[ch] / math.Sqrt(rv[ch]+l.Eps)
		shift := bd[ch] - rm[ch]*scale
		for i := 0; i < n; i++ {
			base := (i*c + ch) * plane
			for p := 0; p < plane; p++ {
				od[base+p] = xd[base+p]*scale + shift
			}
		}
	}
	return out
}

// ForwardScratch implements ScratchForwarder; winner indices are not
// recorded. Every output is written (windows fully inside padding yield
// -Inf, exactly as in Forward).
func (l *MaxPool2D) ForwardScratch(x *tensor.Tensor, s *Scratch) *tensor.Tensor {
	checkRank(l.label, x, 4)
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	oh, ow := l.OutSize(h, w)
	out := s.Tensor(n, c, oh, ow)
	xd, od := x.Data(), out.Data()
	for i := 0; i < n; i++ {
		for ch := 0; ch < c; ch++ {
			base := (i*c + ch) * h * w
			obase := (i*c + ch) * oh * ow
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					best := math.Inf(-1)
					for ky := 0; ky < l.Kernel; ky++ {
						iy := oy*l.Stride + ky - l.Pad
						if iy < 0 || iy >= h {
							continue
						}
						for kx := 0; kx < l.Kernel; kx++ {
							ix := ox*l.Stride + kx - l.Pad
							if ix < 0 || ix >= w {
								continue
							}
							if v := xd[base+iy*w+ix]; v > best {
								best = v
							}
						}
					}
					od[obase+oy*ow+ox] = best
				}
			}
		}
	}
	return out
}

// ForwardScratch implements ScratchForwarder without the input-shape cache.
func (l *AvgPool2D) ForwardScratch(x *tensor.Tensor, s *Scratch) *tensor.Tensor {
	checkRank(l.label, x, 4)
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	oh, ow := l.OutSize(h, w)
	out := s.Tensor(n, c, oh, ow)
	xd, od := x.Data(), out.Data()
	inv := 1 / float64(l.Kernel*l.Kernel)
	for i := 0; i < n; i++ {
		for ch := 0; ch < c; ch++ {
			base := (i*c + ch) * h * w
			obase := (i*c + ch) * oh * ow
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					sum := 0.0
					for ky := 0; ky < l.Kernel; ky++ {
						for kx := 0; kx < l.Kernel; kx++ {
							sum += xd[base+(oy*l.Stride+ky)*w+(ox*l.Stride+kx)]
						}
					}
					od[obase+oy*ow+ox] = sum * inv
				}
			}
		}
	}
	return out
}

// ForwardScratch implements ScratchForwarder without the input-shape cache.
func (l *GlobalAvgPool) ForwardScratch(x *tensor.Tensor, s *Scratch) *tensor.Tensor {
	checkRank(l.label, x, 4)
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	out := s.Tensor(n, c)
	xd, od := x.Data(), out.Data()
	plane := h * w
	inv := 1 / float64(plane)
	for i := 0; i < n; i++ {
		for ch := 0; ch < c; ch++ {
			base := (i*c + ch) * plane
			sum := 0.0
			for p := 0; p < plane; p++ {
				sum += xd[base+p]
			}
			od[i*c+ch] = sum * inv
		}
	}
	return out
}

// ForwardScratch implements ScratchForwarder: squeeze, gating MLP (through
// the Linear scratch paths) and channel scaling all land in arena slots; the
// backward caches (in/squeeze/hidden/gate) are skipped.
func (l *SqueezeExcite) ForwardScratch(x *tensor.Tensor, s *Scratch) *tensor.Tensor {
	checkRank(l.label, x, 4)
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	plane := h * w
	sq := s.Tensor(n, c)
	xd, sqd := x.Data(), sq.Data()
	inv := 1 / float64(plane)
	for i := 0; i < n; i++ {
		for ch := 0; ch < c; ch++ {
			base := (i*c + ch) * plane
			sum := 0.0
			for p := 0; p < plane; p++ {
				sum += xd[base+p]
			}
			sqd[i*c+ch] = sum * inv
		}
	}
	hPre := l.FC1.ForwardScratch(sq, s)
	hidden := s.Tensor(hPre.Shape()...)
	hd := hidden.Data()
	for i, v := range hPre.Data() {
		if v < 0 {
			hd[i] = 0
		} else {
			hd[i] = v
		}
	}
	gPre := l.FC2.ForwardScratch(hidden, s)
	gate := s.Tensor(gPre.Shape()...)
	gd := gate.Data()
	for i, v := range gPre.Data() {
		gd[i] = sigmoid(v)
	}
	out := s.Tensor(x.Shape()...)
	od := out.Data()
	for i := 0; i < n; i++ {
		for ch := 0; ch < c; ch++ {
			g := gd[i*c+ch]
			base := (i*c + ch) * plane
			for p := 0; p < plane; p++ {
				od[base+p] = xd[base+p] * g
			}
		}
	}
	return out
}

// ConcatChannelsInto concatenates rank-4 tensors along the channel dimension
// into dst, which must already have the concatenated shape. Semantics match
// ConcatChannels; dst is fully overwritten.
func ConcatChannelsInto(dst *tensor.Tensor, xs ...*tensor.Tensor) *tensor.Tensor {
	n, h, w := xs[0].Dim(0), xs[0].Dim(2), xs[0].Dim(3)
	totalC := 0
	for _, x := range xs {
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
			if x.Rank() != 4 || x.Dim(0) != n || x.Dim(2) != h || x.Dim(3) != w {
				panic("nn: ConcatChannelsInto input shape mismatch")
			}
			src := x.Data()[i*c*plane : (i+1)*c*plane]
			copy(od[(i*totalC+cOff)*plane:(i*totalC+cOff)*plane+c*plane], src)
			cOff += c
		}
	}
	return dst
}
