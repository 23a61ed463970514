package nn

import (
	"math"
	"testing"

	"advhunter/internal/rng"
	"advhunter/internal/tensor"
)

// lossOf computes a deterministic scalar "loss" — a weighted sum of the layer
// output — so that analytic gradients can be compared with finite
// differences.
func lossOf(l Layer, x, w *tensor.Tensor, train bool) float64 {
	return tensor.Dot(l.Forward(x, train), w)
}

// checkInputGrad compares the layer's backward input gradient against central
// finite differences.
func checkInputGrad(t *testing.T, l Layer, x *tensor.Tensor, train bool, tol float64) {
	t.Helper()
	out := l.Forward(x, train)
	w := tensor.New(out.Shape()...)
	rng.New(999).FillNormal(w.Data(), 0, 1)
	_ = l.Forward(x, train) // refresh caches after shape probe
	dx := l.Backward(w)

	const h = 1e-6
	xd := x.Data()
	for i := 0; i < len(xd); i += 1 + len(xd)/40 { // sample ~40 coordinates
		orig := xd[i]
		xd[i] = orig + h
		lp := lossOf(l, x, w, train)
		xd[i] = orig - h
		lm := lossOf(l, x, w, train)
		xd[i] = orig
		num := (lp - lm) / (2 * h)
		got := dx.Data()[i]
		if math.Abs(num-got) > tol*(1+math.Abs(num)) {
			t.Fatalf("%s input grad[%d]: analytic %g vs numeric %g", l.Name(), i, got, num)
		}
	}
}

// checkParamGrad compares accumulated parameter gradients against central
// finite differences.
func checkParamGrad(t *testing.T, l Layer, x *tensor.Tensor, train bool, tol float64) {
	t.Helper()
	out := l.Forward(x, train)
	w := tensor.New(out.Shape()...)
	rng.New(998).FillNormal(w.Data(), 0, 1)
	for _, p := range l.Params() {
		p.ZeroGrad()
	}
	_ = l.Forward(x, train)
	_ = l.Backward(w)

	const h = 1e-6
	for _, p := range l.Params() {
		pd := p.Value.Data()
		for i := 0; i < len(pd); i += 1 + len(pd)/20 {
			orig := pd[i]
			pd[i] = orig + h
			lp := lossOf(l, x, w, train)
			pd[i] = orig - h
			lm := lossOf(l, x, w, train)
			pd[i] = orig
			num := (lp - lm) / (2 * h)
			got := p.Grad.Data()[i]
			if math.Abs(num-got) > tol*(1+math.Abs(num)) {
				t.Fatalf("%s param %s grad[%d]: analytic %g vs numeric %g", l.Name(), p.Name, i, got, num)
			}
		}
	}
}

// awayFromKinks nudges values off 0 so ReLU/MaxPool finite differences are
// taken on a smooth neighbourhood.
func awayFromKinks(x *tensor.Tensor) {
	for i, v := range x.Data() {
		if math.Abs(v) < 0.05 {
			if v >= 0 {
				x.Data()[i] = v + 0.1
			} else {
				x.Data()[i] = v - 0.1
			}
		}
	}
}

func randInput(seed uint64, shape ...int) *tensor.Tensor {
	x := tensor.New(shape...)
	rng.New(seed).FillNormal(x.Data(), 0, 1)
	return x
}

func TestConv2DGradients(t *testing.T) {
	l := NewConv2D("conv", 2, 3, 3, 2, 1)
	InitHe(rng.New(1), l)
	x := randInput(2, 2, 2, 7, 8)
	checkInputGrad(t, l, x, true, 1e-4)
	checkParamGrad(t, l, x, true, 1e-4)
}

func TestConv2DStride1NoPad(t *testing.T) {
	l := NewConv2D("conv", 1, 2, 3, 1, 0)
	InitHe(rng.New(2), l)
	x := randInput(3, 1, 1, 6, 6)
	checkInputGrad(t, l, x, true, 1e-4)
	checkParamGrad(t, l, x, true, 1e-4)
}

func TestDepthwiseConv2DGradients(t *testing.T) {
	l := NewDepthwiseConv2D("dw", 3, 3, 1, 1)
	InitHe(rng.New(3), l)
	x := randInput(4, 2, 3, 6, 5)
	checkInputGrad(t, l, x, true, 1e-4)
	checkParamGrad(t, l, x, true, 1e-4)
}

func TestDepthwiseConv2DStride2(t *testing.T) {
	l := NewDepthwiseConv2D("dw", 2, 3, 2, 1)
	InitHe(rng.New(4), l)
	x := randInput(5, 1, 2, 8, 8)
	checkInputGrad(t, l, x, true, 1e-4)
}

func TestLinearGradients(t *testing.T) {
	l := NewLinear("fc", 7, 4)
	InitHe(rng.New(5), l)
	x := randInput(6, 3, 7)
	checkInputGrad(t, l, x, true, 1e-5)
	checkParamGrad(t, l, x, true, 1e-5)
}

func TestReLUGradient(t *testing.T) {
	l := NewReLU("relu")
	x := randInput(7, 2, 3, 4, 4)
	awayFromKinks(x)
	checkInputGrad(t, l, x, true, 1e-5)
}

func TestMaxPoolGradient(t *testing.T) {
	l := NewMaxPool2D("pool", 2, 2)
	x := randInput(9, 2, 2, 6, 6)
	awayFromKinks(x)
	checkInputGrad(t, l, x, true, 1e-5)
}

func TestAvgPoolGradient(t *testing.T) {
	l := NewAvgPool2D("pool", 2, 2)
	x := randInput(10, 2, 2, 6, 6)
	checkInputGrad(t, l, x, true, 1e-5)
}

func TestGlobalAvgPoolGradient(t *testing.T) {
	l := NewGlobalAvgPool("gap")
	x := randInput(11, 2, 3, 5, 5)
	checkInputGrad(t, l, x, true, 1e-5)
}

func TestBatchNormGradients(t *testing.T) {
	l := NewBatchNorm2D("bn", 3)
	// Non-trivial gamma/beta.
	rng.New(12).FillNormal(l.Gamma.Value.Data(), 1, 0.2)
	rng.New(13).FillNormal(l.Beta.Value.Data(), 0, 0.2)
	x := randInput(14, 3, 3, 4, 4)
	checkInputGrad(t, l, x, true, 1e-3)
	checkParamGrad(t, l, x, true, 1e-3)
}

func TestBatchNormEvalUsesRunningStats(t *testing.T) {
	l := NewBatchNorm2D("bn", 2)
	x := randInput(15, 4, 2, 3, 3)
	// Train once to move running stats.
	_ = l.Forward(x, true)
	y := l.Forward(x, false)
	scale, shift := l.InferenceAffine()
	// Check one element against the affine form.
	want := x.At(1, 1, 2, 2)*scale[1] + shift[1]
	if math.Abs(y.At(1, 1, 2, 2)-want) > 1e-12 {
		t.Fatalf("eval batch-norm is not the affine map: %g vs %g", y.At(1, 1, 2, 2), want)
	}
}

func TestResidualIdentityGradient(t *testing.T) {
	body := NewSequential("body",
		NewConv2D("c1", 2, 2, 3, 1, 1),
		NewReLU("r1"),
	)
	l := NewResidual("res", body, nil)
	InitHe(rng.New(16), l)
	x := randInput(17, 2, 2, 5, 5)
	awayFromKinks(x)
	checkInputGrad(t, l, x, true, 1e-4)
}

func TestResidualProjectionGradient(t *testing.T) {
	body := NewSequential("body", NewConv2D("c1", 2, 4, 3, 2, 1))
	short := NewConv2D("sc", 2, 4, 1, 2, 0)
	l := NewResidual("res", body, short)
	InitHe(rng.New(18), l)
	x := randInput(19, 2, 2, 6, 6)
	checkInputGrad(t, l, x, true, 1e-4)
	checkParamGrad(t, l, x, true, 1e-4)
}

func TestParallelGradient(t *testing.T) {
	l := NewParallel("inception",
		NewConv2D("b1", 2, 2, 1, 1, 0),
		NewConv2D("b2", 2, 3, 3, 1, 1),
	)
	InitHe(rng.New(20), l)
	x := randInput(21, 2, 2, 5, 5)
	checkInputGrad(t, l, x, true, 1e-4)
	checkParamGrad(t, l, x, true, 1e-4)
}

func TestDenseBlockGradient(t *testing.T) {
	l := NewDenseBlock("dense",
		NewConv2D("u1", 2, 2, 3, 1, 1),
		NewConv2D("u2", 4, 2, 3, 1, 1),
	)
	InitHe(rng.New(22), l)
	x := randInput(23, 2, 2, 4, 4)
	checkInputGrad(t, l, x, true, 1e-4)
	checkParamGrad(t, l, x, true, 1e-4)
}

func TestDenseBlockOutputChannels(t *testing.T) {
	l := NewDenseBlock("dense",
		NewConv2D("u1", 3, 4, 3, 1, 1),
		NewConv2D("u2", 7, 4, 3, 1, 1),
	)
	InitHe(rng.New(24), l)
	y := l.Forward(randInput(25, 1, 3, 4, 4), false)
	if y.Dim(1) != 3+4+4 {
		t.Fatalf("dense block channels = %d, want 11", y.Dim(1))
	}
}

func TestSqueezeExciteGradient(t *testing.T) {
	l := NewSqueezeExcite("se", 4, 2)
	InitHe(rng.New(26), l)
	x := randInput(27, 2, 4, 3, 3)
	awayFromKinks(x)
	checkInputGrad(t, l, x, true, 1e-4)
	checkParamGrad(t, l, x, true, 1e-4)
}

func TestFlattenRoundTrip(t *testing.T) {
	l := NewFlatten("flat")
	x := randInput(28, 2, 3, 4, 5)
	y := l.Forward(x, false)
	if y.Dim(0) != 2 || y.Dim(1) != 60 {
		t.Fatalf("flatten shape %v", y.Shape())
	}
	g := l.Backward(y)
	if g.Rank() != 4 || g.Dim(3) != 5 {
		t.Fatalf("unflatten shape %v", g.Shape())
	}
}

func TestSequentialGradient(t *testing.T) {
	m := NewSequential("net",
		NewConv2D("c1", 1, 2, 3, 1, 1),
		NewReLU("r1"),
		NewMaxPool2D("p1", 2, 2),
		NewFlatten("flat"),
		NewLinear("fc", 2*3*3, 4),
	)
	InitHe(rng.New(32), m)
	x := randInput(33, 2, 1, 6, 6)
	awayFromKinks(x)
	checkInputGrad(t, m, x, true, 1e-4)
	checkParamGrad(t, m, x, true, 1e-4)
}

func TestWalkVisitsNested(t *testing.T) {
	m := NewSequential("net",
		NewResidual("res", NewSequential("body", NewReLU("inner")), NewConv2D("sc", 1, 1, 1, 1, 0)),
		NewParallel("par", NewReLU("b1"), NewReLU("b2")),
	)
	var names []string
	m.Walk(func(l Layer) { names = append(names, l.Name()) })
	want := map[string]bool{"res": true, "body": true, "inner": true, "sc": true, "par": true, "b1": true, "b2": true}
	for _, n := range names {
		delete(want, n)
	}
	if len(want) != 0 {
		t.Fatalf("Walk missed layers: %v (visited %v)", want, names)
	}
}
