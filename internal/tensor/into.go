package tensor

import "fmt"

// Alias repoints t at caller-owned storage with the given shape, without
// allocating a fresh Tensor. len(data) must equal the shape's element count.
// It exists for scratch-arena reuse (nn.Scratch): a view slot can be re-aimed
// at a new window of a backing buffer every inference without producing
// garbage. The previous shape slice is reused when capacity allows.
func (t *Tensor) Alias(data []float64, shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic("tensor: non-positive dimension in shape " + shapeStr(shape))
		}
		n *= d
	}
	if len(data) != n {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %s (%d elements)", len(data), shapeStr(shape), n))
	}
	t.shape = append(t.shape[:0], shape...)
	t.data = data
	return t
}

// MatMulInto multiplies a (m×k) by b (k×n) into dst (m×n), which must have
// the exact output shape. dst is fully overwritten. The cache-blocked kernel
// preserves the naive per-element accumulation order (and the zero-term
// skip), so results are bit-identical to the historical ikj loop; see
// blocked.go for the blocking scheme and the identity argument.
func MatMulInto(dst, a, b *Tensor) *Tensor {
	m, k, n := checkMatMulShapes(dst, a, b)
	for i := range dst.data {
		dst.data[i] = 0
	}
	matmulBlocked(dst.data, a.data, b.data, m, k, n)
	return dst
}

// Transpose2DInto writes the transpose of a (m×n) into dst (n×m), fully
// overwriting it.
func Transpose2DInto(dst, a *Tensor) *Tensor {
	if a.Rank() != 2 {
		panic(fmt.Sprintf("tensor: Transpose2DInto needs rank 2, got %v", a.shape))
	}
	m, n := a.shape[0], a.shape[1]
	if dst.Rank() != 2 || dst.shape[0] != n || dst.shape[1] != m {
		panic(fmt.Sprintf("tensor: Transpose2DInto dst %v, want [%d %d]", dst.shape, n, m))
	}
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			dst.data[j*m+i] = a.data[i*n+j]
		}
	}
	return dst
}

// Im2ColInto unrolls x (shape [C,H,W]) into dst, which must have the shape
// Im2Col would return ([C*Kernel*Kernel, OutH*OutW]). dst is fully
// overwritten; padding positions are written as zeros, exactly like the
// allocating variant.
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
