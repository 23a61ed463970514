package tensor

import (
	"fmt"

	"advhunter/internal/parallel"
)

// Cache-blocked GEMM. The kernel tiles the output columns (matmulJC) and the
// k dimension (matmulKC) so one B panel is reused across every A row while it
// is hot; B is read in place. The numerical contract is strict bit-identity
// with the naive ikj loop in MatMul/MatMulInto: for every output element
// dst[i,j] the k-contributions are applied in ascending k order with a single
// running accumulator, and the av == 0 skip fires on exactly the same terms.
// Tiling over i and j only changes *which element* is updated next, never the
// per-element operation sequence, so the results are identical floats — this
// is pinned by TestMatMulBlockedBitIdentical across shapes.
const (
	// matmulJC is the output-column tile: one dst row segment is
	// matmulJC*8 = 2KiB, small enough to stay in L1 across a k panel.
	matmulJC = 256
	// matmulKC is the k panel depth: a full panel is matmulKC*matmulJC
	// floats (512KiB), sized for the L2 of the shared-tenant hosts the
	// benches run on.
	matmulKC = 256
)

// matmulBlocked runs the blocked kernel over raw row-major storage:
// dd (m×n, already zeroed) += ad (m×k) · bd (k×n).
func matmulBlocked(dd, ad, bd []float64, m, k, n int) {
	for jc := 0; jc < n; jc += matmulJC {
		jw := n - jc
		if jw > matmulJC {
			jw = matmulJC
		}
		for kc := 0; kc < k; kc += matmulKC {
			kw := k - kc
			if kw > matmulKC {
				kw = matmulKC
			}
			// brow fetches the p-th B row segment of this tile.
			brow := func(p int) []float64 {
				off := (kc+p)*n + jc
				return bd[off : off+jw]
			}
			for i := 0; i < m; i++ {
				arow := ad[i*k+kc : i*k+kc+kw]
				orow := dd[i*n+jc : i*n+jc+jw]
				// Fuse four k steps per pass over orow: per element the four
				// contributions are applied as sequential adds in ascending
				// p order, exactly matching four naive passes, while the
				// loads/stores of orow drop 4×. Groups containing a zero
				// term fall back to singles so the skip semantics (and with
				// them 0·Inf handling) stay identical.
				p := 0
				for ; p+3 < kw; p += 4 {
					a0, a1, a2, a3 := arow[p], arow[p+1], arow[p+2], arow[p+3]
					if a0 != 0 && a1 != 0 && a2 != 0 && a3 != 0 {
						axpy4(orow, brow(p), brow(p+1), brow(p+2), brow(p+3), a0, a1, a2, a3)
						continue
					}
					for q := p; q < p+4; q++ {
						if av := arow[q]; av != 0 {
							axpy1(orow, brow(q), av)
						}
					}
				}
				for ; p+1 < kw; p += 2 {
					a0, a1 := arow[p], arow[p+1]
					if a0 != 0 && a1 != 0 {
						axpy2(orow, brow(p), brow(p+1), a0, a1)
						continue
					}
					if a0 != 0 {
						axpy1(orow, brow(p), a0)
					}
					if a1 != 0 {
						axpy1(orow, brow(p+1), a1)
					}
				}
				if p < kw {
					if av := arow[p]; av != 0 {
						axpy1(orow, brow(p), av)
					}
				}
			}
		}
	}
}

// axpy1 computes o[j] += av*b[j] over the row segment, unrolled 4×. The
// unroll reorders across j (independent elements), never within one element.
func axpy1(o, b []float64, av float64) {
	n := len(o)
	b = b[:n]
	j := 0
	for ; j+3 < n; j += 4 {
		o[j] += av * b[j]
		o[j+1] += av * b[j+1]
		o[j+2] += av * b[j+2]
		o[j+3] += av * b[j+3]
	}
	for ; j < n; j++ {
		o[j] += av * b[j]
	}
}

// axpy4 fuses four consecutive k steps over one row segment. Per element j
// the order is (((o+a0*b0)+a1*b1)+a2*b2)+a3*b3 — the same four dependent
// adds the naive kernel performs on its p..p+3 passes — while cutting the
// loads and stores of o by 4×.
func axpy4(o, b0, b1, b2, b3 []float64, a0, a1, a2, a3 float64) {
	n := len(o)
	b0 = b0[:n]
	b1 = b1[:n]
	b2 = b2[:n]
	b3 = b3[:n]
	j := 0
	for ; j+3 < n; j += 4 {
		v0 := o[j] + a0*b0[j]
		v0 += a1 * b1[j]
		v0 += a2 * b2[j]
		o[j] = v0 + a3*b3[j]
		v1 := o[j+1] + a0*b0[j+1]
		v1 += a1 * b1[j+1]
		v1 += a2 * b2[j+1]
		o[j+1] = v1 + a3*b3[j+1]
		v2 := o[j+2] + a0*b0[j+2]
		v2 += a1 * b1[j+2]
		v2 += a2 * b2[j+2]
		o[j+2] = v2 + a3*b3[j+2]
		v3 := o[j+3] + a0*b0[j+3]
		v3 += a1 * b1[j+3]
		v3 += a2 * b2[j+3]
		o[j+3] = v3 + a3*b3[j+3]
	}
	for ; j < n; j++ {
		v := o[j] + a0*b0[j]
		v += a1 * b1[j]
		v += a2 * b2[j]
		o[j] = v + a3*b3[j]
	}
}

// axpy2 fuses two consecutive k steps over one row segment. Per element j
// the order is exactly (o+a0*b0)+a1*b1 — the same two dependent adds the
// naive kernel performs on its p-th and (p+1)-th pass — while halving the
// loads and stores of o.
func axpy2(o, b0, b1 []float64, a0, a1 float64) {
	n := len(o)
	b0 = b0[:n]
	b1 = b1[:n]
	j := 0
	for ; j+3 < n; j += 4 {
		v0 := o[j] + a0*b0[j]
		o[j] = v0 + a1*b1[j]
		v1 := o[j+1] + a0*b0[j+1]
		o[j+1] = v1 + a1*b1[j+1]
		v2 := o[j+2] + a0*b0[j+2]
		o[j+2] = v2 + a1*b1[j+2]
		v3 := o[j+3] + a0*b0[j+3]
		o[j+3] = v3 + a1*b1[j+3]
	}
	for ; j < n; j++ {
		v := o[j] + a0*b0[j]
		o[j] = v + a1*b1[j]
	}
}

// checkMatMulShapes validates one dst = a·b call and returns (m, k, n).
func checkMatMulShapes(dst, a, b *Tensor, fn string) (int, int, int) {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic(fmt.Sprintf("tensor: %s needs rank-2 operands, got %v × %v", fn, a.shape, b.shape))
	}
	m, k := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: %s inner dims %d vs %d", fn, k, k2))
	}
	if dst.Rank() != 2 || dst.shape[0] != m || dst.shape[1] != n {
		panic(fmt.Sprintf("tensor: %s dst %v, want [%d %d]", fn, dst.shape, m, n))
	}
	return m, k, n
}

// MatMulParallelInto is MatMulInto with the row blocks fanned out over the
// parallel worker pool. Workers own disjoint dst row ranges and each range
// is computed by the same blocked kernel, so the output is bit-identical to
// the serial call for every worker count (parallel's determinism contract).
// workers <= 1 degenerates to the serial kernel on the calling goroutine.
func MatMulParallelInto(dst, a, b *Tensor, workers int) *Tensor {
	m, k, n := checkMatMulShapes(dst, a, b, "MatMulParallelInto")
	for i := range dst.data {
		dst.data[i] = 0
	}
	workers = parallel.Workers(workers, m)
	if workers == 1 {
		matmulBlocked(dst.data, a.data, b.data, m, k, n)
		return dst
	}
	// Contiguous row chunks, remainder spread over the leading chunks.
	chunk, rem := m/workers, m%workers
	parallel.ForEach(workers, workers, func(w int) {
		lo := w*chunk + min(w, rem)
		hi := lo + chunk
		if w < rem {
			hi++
		}
		if lo >= hi {
			return
		}
		matmulBlocked(dst.data[lo*n:hi*n], a.data[lo*k:hi*k], b.data, hi-lo, k, n)
	})
	return dst
}
