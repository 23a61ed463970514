package tensor

import (
	"math"
	"testing"
	"testing/quick"

	"advhunter/internal/rng"
)

func TestNewShapeAndZero(t *testing.T) {
	x := New(2, 3, 4)
	if x.Len() != 24 || x.Rank() != 3 || x.Dim(1) != 3 {
		t.Fatalf("bad tensor metadata: len=%d rank=%d", x.Len(), x.Rank())
	}
	for _, v := range x.Data() {
		if v != 0 {
			t.Fatal("New not zero-filled")
		}
	}
}

func TestNewPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2, 0)
}

func TestFromSliceLengthCheck(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromSlice([]float64{1, 2, 3}, 2, 2)
}

func TestAtSetRoundTrip(t *testing.T) {
	x := New(3, 4)
	x.Set(7.5, 2, 1)
	if x.At(2, 1) != 7.5 {
		t.Fatal("At/Set mismatch")
	}
	if x.Data()[2*4+1] != 7.5 {
		t.Fatal("row-major layout violated")
	}
}

func TestAtBoundsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2, 2).At(2, 0)
}

func TestCloneIsDeep(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	y := x.Clone()
	y.Set(99, 0, 0)
	if x.At(0, 0) != 1 {
		t.Fatal("Clone shares storage")
	}
}

func TestReshapeSharesStorage(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	y := x.Reshape(3, 2)
	y.Set(42, 0, 1)
	if x.At(0, 1) != 42 {
		t.Fatal("Reshape copied storage")
	}
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4}, 4)
	b := FromSlice([]float64{10, 20, 30, 40}, 4)
	if got := Add(a, b).Data(); got[3] != 44 {
		t.Fatalf("Add: %v", got)
	}
	if got := Sub(b, a).Data(); got[0] != 9 {
		t.Fatalf("Sub: %v", got)
	}
	if got := Scale(a, 0.5).Data(); got[1] != 1 {
		t.Fatalf("Scale: %v", got)
	}
	c := a.Clone().AXPYInPlace(2, b)
	if c.Data()[0] != 21 {
		t.Fatalf("AXPY: %v", c.Data())
	}
}

func TestShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Add(New(2, 2), New(4))
}

func TestClamp(t *testing.T) {
	x := FromSlice([]float64{-1, 0.5, 2}, 3).ClampInPlace(0, 1)
	want := []float64{0, 0.5, 1}
	for i, v := range x.Data() {
		if v != want[i] {
			t.Fatalf("Clamp: %v", x.Data())
		}
	}
}

func TestReductions(t *testing.T) {
	x := FromSlice([]float64{3, -5, 2, 0}, 4)
	if x.Sum() != 0 || x.Mean() != 0 {
		t.Fatal("Sum/Mean")
	}
	if x.Max() != 3 || x.Min() != -5 {
		t.Fatal("Max/Min")
	}
	if x.Argmax() != 0 {
		t.Fatal("Argmax")
	}
	if x.LinfNorm() != 5 {
		t.Fatal("LinfNorm")
	}
	if math.Abs(x.L2Norm()-math.Sqrt(38)) > 1e-12 {
		t.Fatal("L2Norm")
	}
	if x.CountIf(func(v float64) bool { return v > 0 }) != 2 {
		t.Fatal("CountIf")
	}
}

func TestMatMulKnown(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float64{7, 8, 9, 10, 11, 12}, 3, 2)
	c := MatMul(a, b)
	want := []float64{58, 64, 139, 154}
	for i, v := range c.Data() {
		if v != want[i] {
			t.Fatalf("MatMul = %v, want %v", c.Data(), want)
		}
	}
}

func TestMatMulIdentity(t *testing.T) {
	r := rng.New(1)
	a := New(5, 5)
	r.FillNormal(a.Data(), 0, 1)
	id := New(5, 5)
	for i := 0; i < 5; i++ {
		id.Set(1, i, i)
	}
	if !Equal(MatMul(a, id), a, 1e-12) || !Equal(MatMul(id, a), a, 1e-12) {
		t.Fatal("identity matmul failed")
	}
}

// Property: (A·B)ᵀ = Bᵀ·Aᵀ for random matrices.
func TestMatMulTransposeProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		m, k, n := r.Intn(6)+1, r.Intn(6)+1, r.Intn(6)+1
		a, b := New(m, k), New(k, n)
		r.FillNormal(a.Data(), 0, 1)
		r.FillNormal(b.Data(), 0, 1)
		lhs := Transpose2D(MatMul(a, b))
		rhs := MatMul(Transpose2D(b), Transpose2D(a))
		return Equal(lhs, rhs, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: matmul distributes over addition: A·(B+C) = A·B + A·C.
func TestMatMulDistributes(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		m, k, n := r.Intn(5)+1, r.Intn(5)+1, r.Intn(5)+1
		a, b, c := New(m, k), New(k, n), New(k, n)
		r.FillNormal(a.Data(), 0, 1)
		r.FillNormal(b.Data(), 0, 1)
		r.FillNormal(c.Data(), 0, 1)
		lhs := MatMul(a, Add(b, c))
		rhs := Add(MatMul(a, b), MatMul(a, c))
		return Equal(lhs, rhs, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDot(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3}, 3)
	b := FromSlice([]float64{4, 5, 6}, 3)
	if Dot(a, b) != 32 {
		t.Fatal("Dot")
	}
}

func TestConvGeom(t *testing.T) {
	g := ConvGeom{InC: 3, InH: 32, InW: 32, Kernel: 3, Stride: 2, Pad: 1}
	if g.OutH() != 16 || g.OutW() != 16 {
		t.Fatalf("geometry: %d×%d", g.OutH(), g.OutW())
	}
}

// naiveConv computes convolution directly from the definition.
func naiveConv(x *Tensor, w *Tensor, g ConvGeom, outC int) *Tensor {
	oh, ow := g.OutH(), g.OutW()
	out := New(outC, oh, ow)
	for oc := 0; oc < outC; oc++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				sum := 0.0
				for c := 0; c < g.InC; c++ {
					for ky := 0; ky < g.Kernel; ky++ {
						for kx := 0; kx < g.Kernel; kx++ {
							iy := oy*g.Stride + ky - g.Pad
							ix := ox*g.Stride + kx - g.Pad
							if iy < 0 || iy >= g.InH || ix < 0 || ix >= g.InW {
								continue
							}
							sum += x.At(c, iy, ix) * w.At(oc, c, ky, kx)
						}
					}
				}
				out.Set(sum, oc, oy, ox)
			}
		}
	}
	return out
}

// Property: im2col+matmul convolution equals the naive definition.
func TestIm2ColConvMatchesNaive(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		g := ConvGeom{
			InC:    r.Intn(3) + 1,
			InH:    r.Intn(6) + 4,
			InW:    r.Intn(6) + 4,
			Kernel: 3,
			Stride: r.Intn(2) + 1,
			Pad:    r.Intn(2),
		}
		if g.OutH() <= 0 || g.OutW() <= 0 {
			return true
		}
		outC := r.Intn(3) + 1
		x := New(g.InC, g.InH, g.InW)
		w := New(outC, g.InC, g.Kernel, g.Kernel)
		r.FillNormal(x.Data(), 0, 1)
		r.FillNormal(w.Data(), 0, 1)

		cols := Im2ColInto(New(g.InC*g.Kernel*g.Kernel, g.OutH()*g.OutW()), x, g)
		wm := w.Reshape(outC, g.InC*g.Kernel*g.Kernel)
		got := MatMul(wm, cols).Reshape(outC, g.OutH(), g.OutW())
		want := naiveConv(x, w, g, outC)
		return Equal(got, want, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: Col2Im is the adjoint of Im2ColInto: <Im2ColInto(x), y> = <x, Col2Im(y)>.
func TestCol2ImAdjoint(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		g := ConvGeom{
			InC:    r.Intn(2) + 1,
			InH:    r.Intn(5) + 4,
			InW:    r.Intn(5) + 4,
			Kernel: 3,
			Stride: r.Intn(2) + 1,
			Pad:    r.Intn(2),
		}
		x := New(g.InC, g.InH, g.InW)
		r.FillNormal(x.Data(), 0, 1)
		cols := Im2ColInto(New(g.InC*g.Kernel*g.Kernel, g.OutH()*g.OutW()), x, g)
		y := New(cols.Dim(0), cols.Dim(1))
		r.FillNormal(y.Data(), 0, 1)
		lhs := Dot(cols, y)
		rhs := Dot(x, Col2Im(y, g))
		return math.Abs(lhs-rhs) < 1e-9*(1+math.Abs(lhs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestApply(t *testing.T) {
	x := FromSlice([]float64{-2, 3}, 2).Apply(math.Abs)
	if x.Data()[0] != 2 || x.Data()[1] != 3 {
		t.Fatal("Apply")
	}
}

func BenchmarkMatMul64(b *testing.B) {
	r := rng.New(1)
	a, c := New(64, 64), New(64, 64)
	r.FillNormal(a.Data(), 0, 1)
	r.FillNormal(c.Data(), 0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = MatMul(a, c)
	}
}

func BenchmarkIm2Col(b *testing.B) {
	g := ConvGeom{InC: 8, InH: 16, InW: 16, Kernel: 3, Stride: 1, Pad: 1}
	x := New(8, 16, 16)
	rng.New(1).FillNormal(x.Data(), 0, 1)
	dst := New(g.InC*g.Kernel*g.Kernel, g.OutH()*g.OutW())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Im2ColInto(dst, x, g)
	}
}
