package engine

import (
	"testing"

	"advhunter/internal/data"
	"advhunter/internal/models"
	"advhunter/internal/rng"
	"advhunter/internal/tensor"
	"advhunter/internal/uarch/hpc"
)

func randomImage(seed uint64, c, h, w int) *tensor.Tensor {
	x := tensor.New(c, h, w)
	rng.New(seed).FillUniform(x.Data(), 0, 1)
	return x
}

// TestPredictionMatchesModel is the engine's core correctness contract: the
// instrumented run must classify exactly like the plain forward pass, for
// every architecture in the zoo.
func TestPredictionMatchesModel(t *testing.T) {
	for _, arch := range models.Architectures() {
		m := models.MustBuild(arch, 3, 32, 32, 10, 77)
		e := NewDefault(m)
		for i := uint64(0); i < 5; i++ {
			x := randomImage(100+i, 3, 32, 32)
			got, _ := e.Infer(x)
			want := m.Predict(x)
			if got != want {
				t.Fatalf("%s: engine predicted %d, model %d", arch, got, want)
			}
		}
	}
}

func TestCountsDeterministic(t *testing.T) {
	m := models.MustBuild("simplecnn", 1, 28, 28, 10, 3)
	e := NewDefault(m)
	x := randomImage(5, 1, 28, 28)
	_, a := e.Infer(x)
	_, b := e.Infer(x)
	if a != b {
		t.Fatalf("same input produced different counts:\n%v\n%v", a, b)
	}
}

// TestInstructionAndBranchCountsInputIndependent verifies the paper's
// premise: the executed instruction stream does not depend on input values
// (predicated execution), so `instructions` and `branches` carry no signal.
func TestInstructionAndBranchCountsInputIndependent(t *testing.T) {
	m := models.MustBuild("resnet18", 3, 32, 32, 10, 4)
	e := NewDefault(m)
	_, a := e.Infer(randomImage(1, 3, 32, 32))
	_, b := e.Infer(randomImage(2, 3, 32, 32))
	if a.Get(hpc.Instructions) != b.Get(hpc.Instructions) {
		t.Fatalf("instruction counts differ: %v vs %v", a.Get(hpc.Instructions), b.Get(hpc.Instructions))
	}
	if a.Get(hpc.Branches) != b.Get(hpc.Branches) {
		t.Fatalf("branch counts differ: %v vs %v", a.Get(hpc.Branches), b.Get(hpc.Branches))
	}
}

// TestICacheInputIndependent: the fetch stream is fixed, so icache misses
// cannot distinguish inputs (the paper's Table 3 finding).
func TestICacheInputIndependent(t *testing.T) {
	m := models.MustBuild("efficientnet", 1, 28, 28, 10, 8)
	e := NewDefault(m)
	_, a := e.Infer(randomImage(3, 1, 28, 28))
	_, b := e.Infer(randomImage(4, 1, 28, 28))
	if a.Get(hpc.L1ILoadMisses) != b.Get(hpc.L1ILoadMisses) {
		t.Fatalf("icache misses differ: %v vs %v", a.Get(hpc.L1ILoadMisses), b.Get(hpc.L1ILoadMisses))
	}
}

// TestCacheTrafficIsValueDependent: inputs with different activation
// patterns must move different amounts of data — the side channel itself.
func TestCacheTrafficIsValueDependent(t *testing.T) {
	m := models.MustBuild("resnet18", 3, 32, 32, 10, 4)
	e := NewDefault(m)
	_, a := e.Infer(randomImage(11, 3, 32, 32))
	_, b := e.Infer(tensor.New(3, 32, 32)) // all-zero image: maximal sparsity
	if a.Get(hpc.CacheMisses) == b.Get(hpc.CacheMisses) {
		t.Fatal("LLC misses identical for a random and an all-zero image")
	}
	if b.Get(hpc.L1DLoadMisses) >= a.Get(hpc.L1DLoadMisses) {
		t.Fatalf("zero image did not reduce data traffic: %v vs %v",
			b.Get(hpc.L1DLoadMisses), a.Get(hpc.L1DLoadMisses))
	}
}

// TestClassConditionalSignal is the end-to-end sanity check for AdvHunter's
// premise on synthetic data: same-class images must yield closer cache-miss
// counts than cross-class images, on average.
func TestClassConditionalSignal(t *testing.T) {
	ds := data.MustSynth("cifar10", 31, 6, 0)
	m := models.MustBuild("resnet18", 3, 32, 32, 10, 4)
	e := NewDefault(m)
	byClass := data.ByClass(ds.Train, ds.Classes)
	miss := func(x *tensor.Tensor) float64 {
		_, c := e.Infer(x)
		return c.Get(hpc.CacheMisses)
	}
	// Use two classes with 6 samples each.
	var c0, c1 []float64
	for _, s := range byClass[0] {
		c0 = append(c0, miss(s.X))
	}
	for _, s := range byClass[5] {
		c1 = append(c1, miss(s.X))
	}
	mean := func(v []float64) float64 {
		s := 0.0
		for _, x := range v {
			s += x
		}
		return s / float64(len(v))
	}
	spread := func(v []float64, mu float64) float64 {
		s := 0.0
		for _, x := range v {
			d := x - mu
			s += d * d
		}
		return s / float64(len(v))
	}
	m0, m1 := mean(c0), mean(c1)
	gap := (m0 - m1) * (m0 - m1)
	within := (spread(c0, m0) + spread(c1, m1)) / 2
	t.Logf("class means %.0f vs %.0f, within-class var %.0f", m0, m1, within)
	if gap < within/4 {
		t.Fatalf("cache-miss counts carry no class signal: gap² %.1f, within-var %.1f", gap, within)
	}
}

func TestArenaWraps(t *testing.T) {
	var a arena
	first := a.alloc(arenaSize - lineB)
	second := a.alloc(128) // must wrap
	if first != arenaBase || second != arenaBase {
		t.Fatalf("arena wrap: %x then %x", first, second)
	}
}

func TestMakeRefZeroMetadata(t *testing.T) {
	x := tensor.New(1, 1, 2, 16) // two rows of 16 → 4 lines
	for i := 0; i < 16; i++ {
		x.Set(1.0, 0, 0, 1, i) // second row nonzero
	}
	rz := [][]bool{make([]bool, 2)}
	ref := fillRef(x, 0x1000, 0, make([]bool, 4), rz)
	if ref.lines() != 4 {
		t.Fatalf("lines = %d", ref.lines())
	}
	if !ref.lineZero[0] || !ref.lineZero[1] || ref.lineZero[2] || ref.lineZero[3] {
		t.Fatalf("lineZero = %v", ref.lineZero)
	}
	if !ref.rowZero[0][0] || ref.rowZero[0][1] {
		t.Fatalf("rowZero = %v", ref.rowZero)
	}
}

func TestLayoutDisjointAndDeterministic(t *testing.T) {
	m := models.MustBuild("googlenet", 3, 32, 32, 10, 2)
	lo1 := buildLayout(m.Net)
	lo2 := buildLayout(m.Net)
	seen := map[uint64]bool{}
	for l, addr := range lo1.code {
		if seen[addr] {
			t.Fatalf("duplicate code address %x", addr)
		}
		seen[addr] = true
		if lo2.code[l] != addr {
			t.Fatal("layout not deterministic")
		}
	}
	wseen := map[uint64]bool{}
	for _, addr := range lo1.weight {
		if wseen[addr] {
			t.Fatalf("duplicate weight address %x", addr)
		}
		wseen[addr] = true
	}
}

// The inference benchmarks warm the engine before the timed loop: the first
// few traces grow the scratch arena and tape pools to their high-water marks,
// and without the warm-up those one-time allocations amortise over b.N and
// report a spurious nonzero allocs/op at small N (the "alloc regression" is
// a measurement artifact, not a leak — TestInferSteadyStateZeroAlloc pins the
// real steady state at zero).
func BenchmarkEngineInferSimpleCNN(b *testing.B) {
	m := models.MustBuild("simplecnn", 3, 32, 32, 10, 1)
	e := NewDefault(m)
	x := randomImage(1, 3, 32, 32)
	for i := 0; i < 3; i++ {
		_, _ = e.Infer(x)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = e.Infer(x)
	}
}

func BenchmarkEngineInferResNet18(b *testing.B) {
	m := models.MustBuild("resnet18", 3, 32, 32, 10, 1)
	e := NewDefault(m)
	x := randomImage(1, 3, 32, 32)
	for i := 0; i < 3; i++ {
		_, _ = e.Infer(x)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = e.Infer(x)
	}
}

// TestDTLBLessInputSensitiveThanCache: ZCA-absorbed accesses still translate
// (the zero tags are physically indexed), so translation misses react far
// less to input content than LLC misses do — only engine-level predicated
// weight-load elision (which skips the access entirely) moves them.
func TestDTLBLessInputSensitiveThanCache(t *testing.T) {
	m := models.MustBuild("resnet18", 3, 32, 32, 10, 4)
	e := NewDefault(m)
	_, a := e.Infer(randomImage(21, 3, 32, 32))
	_, b := e.Infer(tensor.New(3, 32, 32)) // extreme sparsity
	ta, tb := a.Get(hpc.DTLBLoadMisses), b.Get(hpc.DTLBLoadMisses)
	ca, cb := a.Get(hpc.CacheMisses), b.Get(hpc.CacheMisses)
	if ta == 0 {
		t.Fatal("dTLB never missed; model too small or TLB disabled")
	}
	rel := func(x, y float64) float64 {
		d := (x - y) / x
		if d < 0 {
			return -d
		}
		return d
	}
	if rel(ta, tb) >= rel(ca, cb) {
		t.Fatalf("dTLB misses (%.1f%%) vary as much as cache misses (%.1f%%)",
			100*rel(ta, tb), 100*rel(ca, cb))
	}
}
