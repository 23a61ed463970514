package nn

import (
	"fmt"
	"math"

	"advhunter/internal/tensor"
)

// MaxPool2D applies max pooling with a square window. Padding positions are
// treated as -inf (they never win a window).
type MaxPool2D struct {
	label          string
	Kernel, Stride int
	Pad            int

	inShape []int
	argmax  []int // flat input index chosen for each output element
}

// NewMaxPool2D constructs an unpadded max-pooling layer.
func NewMaxPool2D(label string, kernel, stride int) *MaxPool2D {
	return &MaxPool2D{label: label, Kernel: kernel, Stride: stride}
}

// NewMaxPool2DPadded constructs a max-pooling layer with symmetric padding.
func NewMaxPool2DPadded(label string, kernel, stride, pad int) *MaxPool2D {
	return &MaxPool2D{label: label, Kernel: kernel, Stride: stride, Pad: pad}
}

// Name returns the layer label.
func (l *MaxPool2D) Name() string { return l.label }

// Params returns nil; pooling has no parameters.
func (l *MaxPool2D) Params() []*Param { return nil }

// OutSize returns the pooled spatial size for the given input size.
func (l *MaxPool2D) OutSize(h, w int) (int, int) {
	return (h+2*l.Pad-l.Kernel)/l.Stride + 1, (w+2*l.Pad-l.Kernel)/l.Stride + 1
}

// Forward runs the ForwardScratch kernel on fresh buffers and caches the
// input shape and each window's winning input index for Backward.
func (l *MaxPool2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	l.inShape = append([]int(nil), x.Shape()...)
	out, argmax := l.pool(x, nil, true)
	l.argmax = argmax
	return out
}

// ForwardScratch implements ScratchForwarder; winner indices are not
// recorded.
func (l *MaxPool2D) ForwardScratch(x *tensor.Tensor, s *Scratch) *tensor.Tensor {
	out, _ := l.pool(x, s, false)
	return out
}

// pool is MaxPool2D's kernel: per-window maxima, plus the flat input index
// of each window's winner when record is set. Every output is written
// (windows fully inside padding yield -Inf and winner -1).
func (l *MaxPool2D) pool(x *tensor.Tensor, s *Scratch, record bool) (*tensor.Tensor, []int) {
	checkRank(l.label, x, 4)
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	oh, ow := l.OutSize(h, w)
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("nn: %s window %d/%d too large for %dx%d", l.label, l.Kernel, l.Stride, h, w))
	}
	out := s.Tensor(n, c, oh, ow)
	var argmax []int
	if record {
		argmax = make([]int, out.Len())
	}
	xd, od := x.Data(), out.Data()
	for i := 0; i < n; i++ {
		for ch := 0; ch < c; ch++ {
			base := (i*c + ch) * h * w
			obase := (i*c + ch) * oh * ow
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					best, bestIdx := math.Inf(-1), -1
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
							idx := base + iy*w + ix
							if xd[idx] > best {
								best, bestIdx = xd[idx], idx
							}
						}
					}
					oidx := obase + oy*ow + ox
					od[oidx] = best
					if record {
						argmax[oidx] = bestIdx
					}
				}
			}
		}
	}
	return out, argmax
}

// Backward routes each output gradient to its winning input element.
func (l *MaxPool2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	dx := tensor.New(l.inShape...)
	gd, dxd := grad.Data(), dx.Data()
	for oidx, iidx := range l.argmax {
		if iidx >= 0 { // windows fully inside padding contribute nothing
			dxd[iidx] += gd[oidx]
		}
	}
	return dx
}

// AvgPool2D applies average pooling with a square window.
type AvgPool2D struct {
	label          string
	Kernel, Stride int

	inShape []int
}

// NewAvgPool2D constructs an average-pooling layer.
func NewAvgPool2D(label string, kernel, stride int) *AvgPool2D {
	return &AvgPool2D{label: label, Kernel: kernel, Stride: stride}
}

// Name returns the layer label.
func (l *AvgPool2D) Name() string { return l.label }

// Params returns nil; pooling has no parameters.
func (l *AvgPool2D) Params() []*Param { return nil }

// OutSize returns the pooled spatial size for the given input size.
func (l *AvgPool2D) OutSize(h, w int) (int, int) {
	return (h-l.Kernel)/l.Stride + 1, (w-l.Kernel)/l.Stride + 1
}

// Forward runs ForwardScratch on fresh buffers and caches the input shape
// for Backward.
func (l *AvgPool2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	l.inShape = append([]int(nil), x.Shape()...)
	return l.ForwardScratch(x, nil)
}

// ForwardScratch implements ScratchForwarder: per-window means.
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

// Backward spreads each output gradient uniformly over its window.
func (l *AvgPool2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	dx := tensor.New(l.inShape...)
	n, c, h, w := l.inShape[0], l.inShape[1], l.inShape[2], l.inShape[3]
	oh, ow := grad.Dim(2), grad.Dim(3)
	gd, dxd := grad.Data(), dx.Data()
	inv := 1 / float64(l.Kernel*l.Kernel)
	for i := 0; i < n; i++ {
		for ch := 0; ch < c; ch++ {
			base := (i*c + ch) * h * w
			obase := (i*c + ch) * oh * ow
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					g := gd[obase+oy*ow+ox] * inv
					for ky := 0; ky < l.Kernel; ky++ {
						for kx := 0; kx < l.Kernel; kx++ {
							dxd[base+(oy*l.Stride+ky)*w+(ox*l.Stride+kx)] += g
						}
					}
				}
			}
		}
	}
	return dx
}

// GlobalAvgPool reduces [N, C, H, W] to [N, C] by spatial averaging.
type GlobalAvgPool struct {
	label   string
	inShape []int
}

// NewGlobalAvgPool constructs a global average pooling layer.
func NewGlobalAvgPool(label string) *GlobalAvgPool { return &GlobalAvgPool{label: label} }

// Name returns the layer label.
func (l *GlobalAvgPool) Name() string { return l.label }

// Params returns nil; pooling has no parameters.
func (l *GlobalAvgPool) Params() []*Param { return nil }

// Forward runs ForwardScratch on fresh buffers and caches the input shape
// for Backward.
func (l *GlobalAvgPool) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	l.inShape = append([]int(nil), x.Shape()...)
	return l.ForwardScratch(x, nil)
}

// ForwardScratch implements ScratchForwarder: the mean of each channel
// plane.
func (l *GlobalAvgPool) ForwardScratch(x *tensor.Tensor, s *Scratch) *tensor.Tensor {
	checkRank(l.label, x, 4)
	return planeMeans(x, s)
}

// planeMeans averages each channel plane of x [N, C, H, W] into an [N, C]
// tensor drawn from s.
func planeMeans(x *tensor.Tensor, s *Scratch) *tensor.Tensor {
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

// Backward spreads the channel gradient uniformly over the plane.
func (l *GlobalAvgPool) Backward(grad *tensor.Tensor) *tensor.Tensor {
	n, c, h, w := l.inShape[0], l.inShape[1], l.inShape[2], l.inShape[3]
	dx := tensor.New(l.inShape...)
	gd, dxd := grad.Data(), dx.Data()
	plane := h * w
	inv := 1 / float64(plane)
	for i := 0; i < n; i++ {
		for ch := 0; ch < c; ch++ {
			g := gd[i*c+ch] * inv
			base := (i*c + ch) * plane
			for p := 0; p < plane; p++ {
				dxd[base+p] = g
			}
		}
	}
	return dx
}
