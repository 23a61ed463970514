// Package tensor implements the dense float64 n-dimensional arrays that every
// numerical component of the repository (layers, attacks, GMMs, the
// instrumented engine) is built on. It deliberately stays small: row-major
// storage, explicit shapes, and the handful of kernels a CNN stack needs
// (matmul, im2col, elementwise arithmetic, norms, reductions). All operations
// validate shapes and panic on misuse — shape bugs are programming errors,
// not runtime conditions.
package tensor

import (
	"fmt"
	"math"
)

// Tensor is a dense row-major array of float64 with an explicit shape.
// The zero value is not useful; construct with New or FromSlice.
type Tensor struct {
	shape []int
	data  []float64
}

// shapeStr formats a shape for panic messages without leaking the slice:
// the copy (not the argument) escapes into the formatter, so hot callers can
// keep their variadic shape arguments on the stack.
func shapeStr(shape []int) string {
	cp := make([]int, len(shape))
	copy(cp, shape)
	return fmt.Sprint(cp)
}

// New allocates a zero-filled tensor of the given shape. Every dimension
// must be positive.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic("tensor: non-positive dimension in shape " + shapeStr(shape))
		}
		n *= d
	}
	s := make([]int, len(shape))
	copy(s, shape)
	return &Tensor{shape: s, data: make([]float64, n)}
}

// FromSlice wraps data (without copying) in a tensor of the given shape.
// len(data) must equal the shape's element count.
func FromSlice(data []float64, shape ...int) *Tensor { return new(Tensor).Alias(data, shape...) }

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

// Shape returns the tensor's dimensions. The returned slice must not be
// modified.
func (t *Tensor) Shape() []int { return t.shape }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.shape) }

// Len returns the total number of elements.
func (t *Tensor) Len() int { return len(t.data) }

// Data exposes the underlying storage in row-major order. Mutations are
// visible through the tensor.
func (t *Tensor) Data() []float64 { return t.data }

// offset computes the flat index for the given multi-index.
func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index rank %d vs shape rank %d", len(idx), len(t.shape)))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.shape))
		}
		off = off*t.shape[i] + x
	}
	return off
}

// At returns the element at the given multi-index.
func (t *Tensor) At(idx ...int) float64 { return t.data[t.offset(idx)] }

// Set stores v at the given multi-index.
func (t *Tensor) Set(v float64, idx ...int) { t.data[t.offset(idx)] = v }

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	d := make([]float64, len(t.data))
	copy(d, t.data)
	return FromSlice(d, t.shape...)
}

// Reshape returns a view (sharing storage) with a new shape of equal element
// count.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(t.data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v to %s", t.shape, shapeStr(shape)))
	}
	s := make([]int, len(shape))
	copy(s, shape)
	return &Tensor{shape: s, data: t.data}
}

// SameShape reports whether t and o have identical shapes.
func (t *Tensor) SameShape(o *Tensor) bool {
	if len(t.shape) != len(o.shape) {
		return false
	}
	for i := range t.shape {
		if t.shape[i] != o.shape[i] {
			return false
		}
	}
	return true
}

func (t *Tensor) mustSameShape(o *Tensor, op string) {
	if !t.SameShape(o) {
		panic(fmt.Sprintf("tensor: %s on mismatched shapes %v vs %v", op, t.shape, o.shape))
	}
}

// Fill sets every element to v and returns t.
func (t *Tensor) Fill(v float64) *Tensor {
	for i := range t.data {
		t.data[i] = v
	}
	return t
}

// Zero sets every element to 0 and returns t.
func (t *Tensor) Zero() *Tensor { return t.Fill(0) }

// AddInPlace adds o element-wise into t and returns t.
func (t *Tensor) AddInPlace(o *Tensor) *Tensor {
	t.mustSameShape(o, "AddInPlace")
	for i := range t.data {
		t.data[i] += o.data[i]
	}
	return t
}

// SubInPlace subtracts o element-wise from t and returns t.
func (t *Tensor) SubInPlace(o *Tensor) *Tensor {
	t.mustSameShape(o, "SubInPlace")
	for i := range t.data {
		t.data[i] -= o.data[i]
	}
	return t
}

// ScaleInPlace multiplies every element by s and returns t.
func (t *Tensor) ScaleInPlace(s float64) *Tensor {
	for i := range t.data {
		t.data[i] *= s
	}
	return t
}

// Add returns t + o as a new tensor.
func Add(t, o *Tensor) *Tensor { return t.Clone().AddInPlace(o) }

// Sub returns t - o as a new tensor.
func Sub(t, o *Tensor) *Tensor { return t.Clone().SubInPlace(o) }

// Scale returns s·t as a new tensor.
func Scale(t *Tensor, s float64) *Tensor { return t.Clone().ScaleInPlace(s) }

// AXPYInPlace computes t += alpha * o and returns t.
func (t *Tensor) AXPYInPlace(alpha float64, o *Tensor) *Tensor {
	t.mustSameShape(o, "AXPYInPlace")
	for i := range t.data {
		t.data[i] += alpha * o.data[i]
	}
	return t
}

// ClampInPlace clips every element to [lo, hi] and returns t.
func (t *Tensor) ClampInPlace(lo, hi float64) *Tensor {
	for i, v := range t.data {
		if v < lo {
			t.data[i] = lo
		} else if v > hi {
			t.data[i] = hi
		}
	}
	return t
}

// Apply maps f over every element in place and returns t.
func (t *Tensor) Apply(f func(float64) float64) *Tensor {
	for i, v := range t.data {
		t.data[i] = f(v)
	}
	return t
}

// Sum returns the sum of all elements.
func (t *Tensor) Sum() float64 {
	s := 0.0
	for _, v := range t.data {
		s += v
	}
	return s
}

// Mean returns the arithmetic mean of all elements.
func (t *Tensor) Mean() float64 { return t.Sum() / float64(len(t.data)) }

// Max returns the maximum element value.
func (t *Tensor) Max() float64 {
	m := math.Inf(-1)
	for _, v := range t.data {
		if v > m {
			m = v
		}
	}
	return m
}

// Min returns the minimum element value.
func (t *Tensor) Min() float64 {
	m := math.Inf(1)
	for _, v := range t.data {
		if v < m {
			m = v
		}
	}
	return m
}

// Argmax returns the flat index of the maximum element (first on ties).
func (t *Tensor) Argmax() int {
	best, bestV := 0, math.Inf(-1)
	for i, v := range t.data {
		if v > bestV {
			best, bestV = i, v
		}
	}
	return best
}

// L2Norm returns the Euclidean norm of all elements.
func (t *Tensor) L2Norm() float64 {
	s := 0.0
	for _, v := range t.data {
		s += v * v
	}
	return math.Sqrt(s)
}

// LinfNorm returns the maximum absolute element value.
func (t *Tensor) LinfNorm() float64 {
	m := 0.0
	for _, v := range t.data {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// CountIf returns the number of elements for which pred is true.
func (t *Tensor) CountIf(pred func(float64) bool) int {
	n := 0
	for _, v := range t.data {
		if pred(v) {
			n++
		}
	}
	return n
}

// Dot returns the inner product of t and o viewed as flat vectors.
func Dot(t, o *Tensor) float64 {
	t.mustSameShape(o, "Dot")
	s := 0.0
	for i := range t.data {
		s += t.data[i] * o.data[i]
	}
	return s
}

// MatMul multiplies a (m×k) by b (k×n) into a new (m×n) tensor.
func MatMul(a, b *Tensor) *Tensor {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic(fmt.Sprintf("tensor: MatMul needs rank-2 operands, got %v × %v", a.shape, b.shape))
	}
	return MatMulInto(New(a.shape[0], b.shape[1]), a, b)
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

// Transpose2D returns the transpose of a rank-2 tensor as a new tensor.
func Transpose2D(a *Tensor) *Tensor {
	if a.Rank() != 2 {
		panic(fmt.Sprintf("tensor: Transpose2D needs rank 2, got %v", a.shape))
	}
	return Transpose2DInto(New(a.shape[1], a.shape[0]), a)
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

// Equal reports whether t and o have the same shape and all elements within
// eps of each other.
func Equal(t, o *Tensor, eps float64) bool {
	if !t.SameShape(o) {
		return false
	}
	for i := range t.data {
		if math.Abs(t.data[i]-o.data[i]) > eps {
			return false
		}
	}
	return true
}

// String renders a compact description (shape plus a few leading values),
// suitable for debugging.
func (t *Tensor) String() string {
	n := len(t.data)
	if n > 6 {
		n = 6
	}
	return fmt.Sprintf("Tensor%v%v…", t.shape, t.data[:n])
}
