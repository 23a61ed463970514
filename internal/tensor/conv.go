package tensor

import "fmt"

// ConvGeom describes the spatial geometry of a 2-D convolution or pooling
// window applied to a single-image CHW tensor.
type ConvGeom struct {
	InC, InH, InW int
	Kernel        int // square kernel side
	Stride        int
	Pad           int
}

// OutH returns the output height of the window sweep.
func (g ConvGeom) OutH() int { return (g.InH+2*g.Pad-g.Kernel)/g.Stride + 1 }

// OutW returns the output width of the window sweep.
func (g ConvGeom) OutW() int { return (g.InW+2*g.Pad-g.Kernel)/g.Stride + 1 }

// Validate panics if the geometry is degenerate.
func (g ConvGeom) Validate() {
	if g.InC <= 0 || g.InH <= 0 || g.InW <= 0 || g.Kernel <= 0 || g.Stride <= 0 || g.Pad < 0 {
		panic(fmt.Sprintf("tensor: invalid conv geometry %+v", g))
	}
	if g.OutH() <= 0 || g.OutW() <= 0 {
		panic(fmt.Sprintf("tensor: conv geometry %+v yields empty output", g))
	}
}

// Im2ColInto unrolls x (shape [C,H,W]) into dst, a matrix of shape
// [C*Kernel*Kernel, OutH*OutW], so that convolution becomes a single matmul
// with the weight matrix [outC, C*Kernel*Kernel]. dst is fully overwritten;
// padding positions are written as zeros.
func Im2ColInto(dst, x *Tensor, g ConvGeom) *Tensor {
	g.Validate()
	if x.Rank() != 3 || x.Dim(0) != g.InC || x.Dim(1) != g.InH || x.Dim(2) != g.InW {
		panic(fmt.Sprintf("tensor: Im2ColInto input %v does not match geometry %+v", x.Shape(), g))
	}
	oh, ow := g.OutH(), g.OutW()
	k := g.Kernel
	if dst.Rank() != 2 || dst.Dim(0) != g.InC*k*k || dst.Dim(1) != oh*ow {
		panic(fmt.Sprintf("tensor: Im2ColInto dst %v, want [%d %d]", dst.Shape(), g.InC*k*k, oh*ow))
	}
	cd := dst.data
	for i := range cd {
		cd[i] = 0
	}
	xd := x.data
	colW := oh * ow
	for c := 0; c < g.InC; c++ {
		chanOff := c * g.InH * g.InW
		for ky := 0; ky < k; ky++ {
			for kx := 0; kx < k; kx++ {
				row := ((c*k + ky) * k) + kx
				d := cd[row*colW : (row+1)*colW]
				for oy := 0; oy < oh; oy++ {
					iy := oy*g.Stride + ky - g.Pad
					if iy < 0 || iy >= g.InH {
						continue // leave zeros
					}
					srcRow := chanOff + iy*g.InW
					for ox := 0; ox < ow; ox++ {
						ix := ox*g.Stride + kx - g.Pad
						if ix < 0 || ix >= g.InW {
							continue
						}
						d[oy*ow+ox] = xd[srcRow+ix]
					}
				}
			}
		}
	}
	return dst
}

// Col2Im scatters a column matrix (as produced by Im2ColInto, shape
// [C*Kernel*Kernel, OutH*OutW]) back to an image of shape [C,H,W],
// accumulating overlapping contributions. It is the adjoint of Im2ColInto
// and is used for convolution input gradients.
func Col2Im(cols *Tensor, g ConvGeom) *Tensor {
	g.Validate()
	oh, ow := g.OutH(), g.OutW()
	k := g.Kernel
	if cols.Rank() != 2 || cols.Dim(0) != g.InC*k*k || cols.Dim(1) != oh*ow {
		panic(fmt.Sprintf("tensor: Col2Im input %v does not match geometry %+v", cols.Shape(), g))
	}
	img := New(g.InC, g.InH, g.InW)
	xd := img.data
	cd := cols.data
	colW := oh * ow
	for c := 0; c < g.InC; c++ {
		chanOff := c * g.InH * g.InW
		for ky := 0; ky < k; ky++ {
			for kx := 0; kx < k; kx++ {
				row := ((c*k + ky) * k) + kx
				src := cd[row*colW : (row+1)*colW]
				for oy := 0; oy < oh; oy++ {
					iy := oy*g.Stride + ky - g.Pad
					if iy < 0 || iy >= g.InH {
						continue
					}
					dstRow := chanOff + iy*g.InW
					for ox := 0; ox < ow; ox++ {
						ix := ox*g.Stride + kx - g.Pad
						if ix < 0 || ix >= g.InW {
							continue
						}
						xd[dstRow+ix] += src[oy*ow+ox]
					}
				}
			}
		}
	}
	return img
}
