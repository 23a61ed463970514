package tensor

import (
	"math"
	"testing"

	"advhunter/internal/rng"
)

// naiveMatMulInto is the historical ikj kernel, kept verbatim as the
// reference the blocked kernel must reproduce bit-for-bit.
func naiveMatMulInto(dst, a, b *Tensor) *Tensor {
	m, k := a.shape[0], a.shape[1]
	n := b.shape[1]
	for i := range dst.data {
		dst.data[i] = 0
	}
	for i := 0; i < m; i++ {
		arow := a.data[i*k : (i+1)*k]
		orow := dst.data[i*n : (i+1)*n]
		for p := 0; p < k; p++ {
			av := arow[p]
			if av == 0 {
				continue
			}
			brow := b.data[p*n : (p+1)*n]
			for j := 0; j < n; j++ {
				orow[j] += av * brow[j]
			}
		}
	}
	return dst
}

func sameBits(t *testing.T, label string, want, got *Tensor) {
	t.Helper()
	if !want.SameShape(got) {
		t.Fatalf("%s: shape %v vs %v", label, want.Shape(), got.Shape())
	}
	wd, gd := want.Data(), got.Data()
	for i := range wd {
		if math.Float64bits(wd[i]) != math.Float64bits(gd[i]) {
			t.Fatalf("%s: element %d differs: %x vs %x (%g vs %g)",
				label, i, math.Float64bits(wd[i]), math.Float64bits(gd[i]), wd[i], gd[i])
		}
	}
}

// fillMixed fills d with normal deviates, then zeroes a fraction so the
// zero-skip path (and its interaction with pairing) is exercised.
func fillMixed(r *rng.Rand, d []float64, zeroFrac float64) {
	r.FillNormal(d, 0, 1)
	for i := range d {
		if r.Float64() < zeroFrac {
			d[i] = 0
		}
	}
}

// The blocked kernel (plain, and the allocating MatMul front end) must be
// bit-identical to the naive ikj loop across shapes that straddle every tile boundary.
func TestMatMulBlockedBitIdentical(t *testing.T) {
	shapes := [][3]int{
		{1, 1, 1},
		{3, 5, 7},
		{17, 33, 9},
		{64, 64, 64},
		{65, 257, 130},
		{2, 300, 513},
		{128, 259, 320},
		{5, 1, 600},
	}
	r := rng.New(7)
	for _, sh := range shapes {
		m, k, n := sh[0], sh[1], sh[2]
		a, b := New(m, k), New(k, n)
		fillMixed(r, a.Data(), 0.3)
		fillMixed(r, b.Data(), 0.1)
		want := naiveMatMulInto(New(m, n), a, b)

		sameBits(t, "MatMulInto", want, MatMulInto(New(m, n), a, b))
		sameBits(t, "MatMul", want, MatMul(a, b))
	}
}

// An all-zero A row must leave dst zero even against non-finite B entries:
// the skip is semantic (0·Inf = NaN would otherwise leak in), so the blocked
// kernel has to preserve it exactly.
func TestMatMulBlockedZeroSkipSemantics(t *testing.T) {
	a := New(2, 3)
	b := New(3, 4)
	b.Data()[0] = math.Inf(1)
	b.Data()[5] = math.NaN()
	a.Data()[3] = 1 // second row: [1 0 0]
	want := naiveMatMulInto(New(2, 4), a, b)
	sameBits(t, "zero-skip", want, MatMulInto(New(2, 4), a, b))
}

func benchMatMulInto(b *testing.B, size int) {
	r := rng.New(1)
	x, y := New(size, size), New(size, size)
	r.FillNormal(x.Data(), 0, 1)
	r.FillNormal(y.Data(), 0, 1)
	dst := New(size, size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulInto(dst, x, y)
	}
}

func BenchmarkMatMulBlocked64(b *testing.B)  { benchMatMulInto(b, 64) }
func BenchmarkMatMulBlocked128(b *testing.B) { benchMatMulInto(b, 128) }
func BenchmarkMatMulBlocked256(b *testing.B) { benchMatMulInto(b, 256) }
