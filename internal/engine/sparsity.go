package engine

import (
	"fmt"

	"advhunter/internal/nn"
	"advhunter/internal/tensor"
)

// ForwardStats runs one machine-free forward pass of the model — no cache
// hierarchy, no branch predictor, no replay — and fills sp with each leaf
// layer's input zero-line fraction, in trace order. It returns the hard-label
// prediction and the softmax confidence of the predicted class.
//
// The walk mirrors traceLayer's dispatch exactly (same leaf order, same
// scratch-arena numerics), so the prediction, the confidence, and every
// sparsity value are bit-identical to what InferConf/InferProfile compute for
// the same input: this is the serve-time front half of the analytical twin,
// which predicts the counter reading from these sparsities by table lookup.
//
// sp must have length NumLeaves(). The pass allocates nothing in steady
// state.
func (e *Engine) ForwardStats(x *tensor.Tensor, sp []float64) (int, float64) {
	e.statSp, e.statIdx = sp, 0
	out := e.statsLayer(e.Model.Net, e.input(x))
	if e.statIdx != len(sp) {
		panic(fmt.Sprintf("engine: ForwardStats visited %d leaves, sp has %d entries (want NumLeaves)",
			e.statIdx, len(sp)))
	}
	e.statSp = nil
	return topClass(out)
}

// statsLayer is traceLayer without the machine: identical dispatch and
// forward calls, recording each leaf's input sparsity instead of replaying
// its memory traffic.
func (e *Engine) statsLayer(l nn.Layer, x *tensor.Tensor) *tensor.Tensor {
	if isLeaf(l) {
		e.statSp[e.statIdx] = lineSparsity(x, quantTol(x, e.qlevels))
		e.statIdx++
		return e.forward(l, x)
	}
	switch l := l.(type) {
	case *nn.Sequential:
		for _, sub := range l.Layers {
			x = e.statsLayer(sub, x)
		}
		return x
	case *nn.Residual:
		body := e.statsLayer(l.Body, x)
		short := x
		if l.Shortcut != nil {
			short = e.statsLayer(l.Shortcut, x)
		}
		sum := e.sc.Tensor(body.Shape()...)
		copy(sum.Data(), body.Data())
		sum.AddInPlace(short)
		return sum
	case *nn.Parallel:
		outs := e.touts.get(len(l.Branches))
		for i, b := range l.Branches {
			outs[i] = e.statsLayer(b, x)
		}
		return e.concat(outs)
	case *nn.DenseBlock:
		cur := x
		for _, u := range l.Units {
			y := e.statsLayer(u, cur)
			e.pair[0], e.pair[1] = cur, y
			cur = e.concat(e.pair[:])
		}
		return cur
	default: // Flatten: a view change, no sample
		return e.forward(l, x)
	}
}

// lineSparsity computes the zero-line fraction of a tensor's storage under
// the given storage-zero tolerance — the same per-line predicate fillRef
// evaluates, without materializing the bitmap.
func lineSparsity(t *tensor.Tensor, tol float64) float64 {
	d := t.Data()
	nLines := ceilDiv(len(d), floatsPerLine)
	if nLines == 0 {
		return 0
	}
	zeros := 0
	for li := 0; li < nLines; li++ {
		end := (li + 1) * floatsPerLine
		if end > len(d) {
			end = len(d)
		}
		zero := true
		for _, v := range d[li*floatsPerLine : end] {
			if v < 0 {
				v = -v
			}
			if v > tol {
				zero = false
				break
			}
		}
		if zero {
			zeros++
		}
	}
	return float64(zeros) / float64(nLines)
}
