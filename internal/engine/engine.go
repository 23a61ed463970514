package engine

import (
	"fmt"
	"math"

	"advhunter/internal/models"
	"advhunter/internal/nn"
	"advhunter/internal/tensor"
	"advhunter/internal/uarch/hpc"
)

// Engine runs a model on a simulated machine.
type Engine struct {
	Model *models.Model
	M     *Machine

	cfg     MachineConfig
	lo      *layout
	ar      arena
	branchy bool
	qlevels int

	// The layer scratch arena plus ordered-replay pools for ref metadata.
	// Together they make steady-state Infer allocation-free.
	sc    *nn.Scratch
	lzs   slicePool[bool]
	rzs   slicePool[[]bool]
	refs  slicePool[tref]
	touts slicePool[*tensor.Tensor]
	rgz   []bool
	pair  [2]*tensor.Tensor

	// Profiling hook (nil outside InferProfile): per-leaf samples of the
	// machine counters taken at leaf entry, consumed by InferProfile.
	prof []leafSample

	// ForwardStats walk state. Kept on the engine rather than threaded
	// through the recursion so the stats walker stays allocation-free.
	statSp  []float64
	statIdx int
}

// New builds an engine for the model on the configured machine.
func New(m *models.Model, cfg MachineConfig) *Engine {
	return &Engine{
		Model:   m,
		M:       NewMachine(cfg),
		cfg:     cfg,
		lo:      buildLayout(m.Net),
		branchy: cfg.BranchyKernels,
		qlevels: cfg.QuantLevels,
		sc:      &nn.Scratch{},
	}
}

// NewDefault builds an engine on the default machine.
func NewDefault(m *models.Model) *Engine { return New(m, DefaultMachineConfig()) }

// Clone returns an independent engine replica for concurrent measurement:
// the machine — cache hierarchy, branch predictor, co-runner — is rebuilt
// from the engine's MachineConfig in its power-on state, and the replica gets
// its own scratch arena and replay pools. The model and the address layout
// are shared: every leaf runs its nn.ScratchForwarder kernel, which writes
// no layer field, so replicas can trace the shared network concurrently, and
// sharing the layout keeps the replica's synthetic address map byte-identical
// to the original's — Infer on a replica returns exactly the counts the
// original would return for the same input. (A ReLU Record hook, if installed, fires
// from every replica; hooks that aggregate must synchronize themselves.)
func (e *Engine) Clone() *Engine {
	return &Engine{
		Model:   e.Model,
		M:       NewMachine(e.cfg),
		cfg:     e.cfg,
		lo:      e.lo,
		branchy: e.branchy,
		qlevels: e.qlevels,
		sc:      &nn.Scratch{},
	}
}

// input rewinds the scratch arena and the replay pools and copies the image
// x into a fresh [1,C,H,W] batch tensor from the arena.
func (e *Engine) input(x *tensor.Tensor) *tensor.Tensor {
	e.sc.Reset()
	e.lzs.reset()
	e.rzs.reset()
	e.refs.reset()
	e.touts.reset()
	meta := e.Model.Meta
	batch := e.sc.Tensor(1, meta.InC, meta.InH, meta.InW)
	bd, xd := batch.Data(), x.Data()
	if len(bd) != len(xd) {
		panic(fmt.Sprintf("engine: input has %d elements, model expects %d", len(xd), len(bd)))
	}
	copy(bd, xd)
	return batch
}

// trace resets the machine and replays one forward pass, returning the
// placed output ref. The batch tensor and all ref metadata come from the
// engine's pools.
func (e *Engine) trace(x *tensor.Tensor) tref {
	e.M.Reset()
	e.ar.reset()
	batch := e.input(x)
	in := e.makeRef(batch, inputBase, quantTol(batch, e.qlevels))
	return e.traceLayer(e.Model.Net, in)
}

// Infer classifies the image x (shape [C,H,W]) on the simulated machine and
// returns the hard-label prediction together with the true (noise-free) HPC
// counts of that inference. The machine is reset first, so counts are a
// deterministic function of (model, input).
func (e *Engine) Infer(x *tensor.Tensor) (int, hpc.Counts) {
	out := e.trace(x)
	return out.t.Argmax(), e.M.Counts()
}

// InferConf is Infer plus the softmax confidence of the predicted class.
// The confidence is derived from the logits of the same traced forward pass,
// so it costs nothing extra on the simulated machine. Black-box detectors
// must not consume it — it exists for the soft-label confidence baseline the
// paper compares against.
func (e *Engine) InferConf(x *tensor.Tensor) (int, float64, hpc.Counts) {
	out := e.trace(x)
	pred, conf := topClass(out.t)
	return pred, conf, e.M.Counts()
}

// topClass returns the argmax of the logits and its softmax confidence.
func topClass(logits *tensor.Tensor) (int, float64) {
	d := logits.Data()
	lmax := d[0]
	for _, v := range d[1:] {
		if v > lmax {
			lmax = v
		}
	}
	sum := 0.0
	for _, v := range d {
		sum += math.Exp(v - lmax)
	}
	return logits.Argmax(), 1 / sum
}

// newOutput places a freshly produced activation tensor in the arena.
func (e *Engine) newOutput(t *tensor.Tensor) tref {
	return e.makeRef(t, e.ar.alloc(t.Len()*8), quantTol(t, e.qlevels))
}

// makeRef builds the zero-metadata ref for t at addr, with the
// lineZero/rowZero bitmaps from the ordered-replay pools.
func (e *Engine) makeRef(t *tensor.Tensor, addr uint64, tol float64) tref {
	lz := e.lzs.get(ceilDiv(t.Len(), floatsPerLine))
	var rz [][]bool
	if t.Rank() == 4 && t.Dim(0) == 1 {
		rz = e.rzs.get(t.Dim(1))
		h := t.Dim(2)
		for ci := range rz {
			rz[ci] = e.lzs.get(h)
		}
	}
	return fillRef(t, addr, tol, lz, rz)
}

// forward runs the leaf layer's inference kernel out of the scratch arena.
// A leaf without one panics, as traceLayer does for an untraced type: the
// allocating Forward would write backward caches into a network that
// concurrent replicas share.
func (e *Engine) forward(l nn.Layer, x *tensor.Tensor) *tensor.Tensor {
	sf, ok := l.(nn.ScratchForwarder)
	if !ok {
		panic(fmt.Sprintf("engine: no arena kernel for layer type %T (%s)", l, l.Name()))
	}
	return sf.ForwardScratch(x, e.sc)
}

// concat concatenates branch outputs along channels, into a scratch tensor.
func (e *Engine) concat(outs []*tensor.Tensor) *tensor.Tensor {
	totalC := 0
	for _, o := range outs {
		totalC += o.Dim(1)
	}
	cat := e.sc.Tensor(outs[0].Dim(0), totalC, outs[0].Dim(2), outs[0].Dim(3))
	return nn.ConcatChannelsInto(cat, outs...)
}

// traceLayer dispatches on the concrete layer type, reproducing the
// layer's data flow on the machine and returning the placed output.
func (e *Engine) traceLayer(l nn.Layer, in tref) tref {
	if e.prof != nil {
		e.profObserve(l, in)
	}
	switch l := l.(type) {
	case *nn.Sequential:
		for _, sub := range l.Layers {
			in = e.traceLayer(sub, in)
		}
		return in
	case *nn.Conv2D:
		return e.traceConv(l, in)
	case *nn.DepthwiseConv2D:
		return e.traceDepthwise(l, in)
	case *nn.Linear:
		return e.traceLinear(l, in)
	case *nn.ReLU:
		return e.traceReLU(l, in)
	case *nn.BatchNorm2D:
		return e.traceBatchNorm(l, in)
	case *nn.MaxPool2D:
		return e.traceMaxPool(l, in)
	case *nn.AvgPool2D:
		return e.traceAvgPool(l, in)
	case *nn.GlobalAvgPool:
		return e.traceGAP(l, in)
	case *nn.Flatten:
		// A view change: no data movement, shared address.
		out := e.forward(l, in.t)
		return tref{t: out, addr: in.addr, lineZero: in.lineZero}
	case *nn.Residual:
		return e.traceResidual(l, in)
	case *nn.Parallel:
		return e.traceParallel(l, in)
	case *nn.DenseBlock:
		return e.traceDense(l, in)
	case *nn.SqueezeExcite:
		return e.traceSE(l, in)
	default:
		panic(fmt.Sprintf("engine: no tracer for layer type %T (%s)", l, l.Name()))
	}
}

// loadSpan loads the lines covering elements [elemOff, elemOff+n) of ref,
// honouring per-line zero content. The whole span goes out as one run,
// resolved in a tight loop over precomputed set/tag strides.
func (e *Engine) loadSpan(ref tref, elemOff, n int) {
	first := elemOff / floatsPerLine
	last := (elemOff + n - 1) / floatsPerLine
	e.M.loadRun(ref.addr+uint64(first*lineB), last-first+1, ref.lineZero[first:last+1])
}

// storeSpan stores the lines covering elements [elemOff, elemOff+n) of ref.
func (e *Engine) storeSpan(ref tref, elemOff, n int) {
	first := elemOff / floatsPerLine
	last := (elemOff + n - 1) / floatsPerLine
	e.M.storeRun(ref.addr+uint64(first*lineB), last-first+1, ref.lineZero[first:last+1])
}

// loadWeights loads parameter elements [elemOff, elemOff+n) of the layer's
// weight block. Weights are never zero-compressed (dense storage).
func (e *Engine) loadWeights(base uint64, elemOff, n int) {
	first := elemOff / floatsPerLine
	last := (elemOff + n - 1) / floatsPerLine
	e.M.loadRun(base+uint64(first*lineB), last-first+1, nil)
}

// rowGroupBuf returns the engine's reusable elision-predicate buffer, grown
// to at least n entries. Contents are overwritten by the caller.
func (e *Engine) rowGroupBuf(n int) []bool {
	if cap(e.rgz) < n {
		e.rgz = make([]bool, n)
	}
	return e.rgz[:n]
}

// rowGroupZero reports whether every in-bounds input row feeding output row
// oy of channel ic is entirely zero — the weight-load elision condition.
func rowGroupZero(in tref, ic, oy, stride, kernel, pad, inH int) bool {
	sawRow := false
	for ky := 0; ky < kernel; ky++ {
		iy := oy*stride + ky - pad
		if iy < 0 || iy >= inH {
			continue
		}
		sawRow = true
		if !in.rowZero[ic][iy] {
			return false
		}
	}
	return sawRow
}

// traceConv replays a standard convolution: output rows sweep the image;
// for each (output-channel, input-channel) pair the k×k weight block and the
// k input rows are loaded unless the input row group is all zero, in which
// case the predicated MACs still issue but no data moves.
func (e *Engine) traceConv(l *nn.Conv2D, in tref) tref {
	out := e.newOutput(e.forward(l, in.t))
	inC, inH, inW := in.t.Dim(1), in.t.Dim(2), in.t.Dim(3)
	outC, outH, outW := out.t.Dim(1), out.t.Dim(2), out.t.Dim(3)
	k := l.Kernel
	cb, wb := e.lo.code[l], e.lo.weight[l]
	m := e.M

	rgz := e.rowGroupBuf(inC)
	m.fetchCode(cb, 2)
	for oy := 0; oy < outH; oy++ {
		// The elision predicate depends only on (ic, oy), so it is hoisted
		// out of the output-channel loop: one evaluation feeds all outC uses.
		for ic := 0; ic < inC; ic++ {
			rgz[ic] = rowGroupZero(in, ic, oy, l.Stride, k, l.Pad, inH)
		}
		m.fetchCode(cb+128, 4)
		for oc := 0; oc < outC; oc++ {
			for ic := 0; ic < inC; ic++ {
				// Predicated MACs always retire.
				m.Instructions += uint64(2*k*k*outW + 4)
				if rgz[ic] {
					continue // ZCA: no weight or activation traffic
				}
				e.loadWeights(wb, (oc*inC+ic)*k*k, k*k)
				for ky := 0; ky < k; ky++ {
					iy := oy*l.Stride + ky - l.Pad
					if iy < 0 || iy >= inH {
						continue
					}
					e.loadSpan(in, (ic*inH+iy)*inW, inW)
				}
			}
		}
		for oc := 0; oc < outC; oc++ {
			m.Instructions += uint64(outW) // bias add + writeback
			e.storeSpan(out, (oc*outH+oy)*outW, outW)
		}
		m.loopBranches(cb+8, uint64(outC))
		m.loopBranches(cb+16, uint64(outC*inC))
	}
	m.loopBranches(cb, uint64(outH))
	return out
}

// traceDepthwise replays a depthwise convolution (one filter per channel).
func (e *Engine) traceDepthwise(l *nn.DepthwiseConv2D, in tref) tref {
	out := e.newOutput(e.forward(l, in.t))
	c, inH, inW := in.t.Dim(1), in.t.Dim(2), in.t.Dim(3)
	outH, outW := out.t.Dim(2), out.t.Dim(3)
	k := l.Kernel
	cb, wb := e.lo.code[l], e.lo.weight[l]
	m := e.M

	m.fetchCode(cb, 2)
	for oy := 0; oy < outH; oy++ {
		m.fetchCode(cb+128, 3)
		for ch := 0; ch < c; ch++ {
			m.Instructions += uint64(2*k*k*outW + 4)
			if rowGroupZero(in, ch, oy, l.Stride, k, l.Pad, inH) {
				continue
			}
			e.loadWeights(wb, ch*k*k, k*k)
			for ky := 0; ky < k; ky++ {
				iy := oy*l.Stride + ky - l.Pad
				if iy < 0 || iy >= inH {
					continue
				}
				e.loadSpan(in, (ch*inH+iy)*inW, inW)
			}
			e.storeSpan(out, (ch*outH+oy)*outW, outW)
		}
		m.loopBranches(cb+8, uint64(c))
	}
	m.loopBranches(cb, uint64(outH))
	return out
}

// traceLinear replays a fully connected layer: per output neuron the weight
// row streams in, with the blocks gated by all-zero input lines elided.
func (e *Engine) traceLinear(l *nn.Linear, in tref) tref {
	out := e.newOutput(e.forward(l, in.t))
	inN, outN := l.In, l.Out
	cb, wb := e.lo.code[l], e.lo.weight[l]
	m := e.M
	inLines := ceilDiv(inN, floatsPerLine)

	m.fetchCode(cb, 2)
	for oc := 0; oc < outN; oc++ {
		m.Instructions += uint64(2*inN + 4)
		for li := 0; li < inLines; li++ {
			if in.lineZero[li] {
				continue // predicated MACs, no traffic
			}
			e.loadSpan(in, li*floatsPerLine, 1)
			e.loadWeights(wb, oc*inN+li*floatsPerLine, floatsPerLine)
		}
		m.loopBranches(cb+8, uint64(inLines))
	}
	e.storeSpan(out, 0, out.t.Len())
	m.loopBranches(cb, uint64(outN))
	return out
}

// traceReLU replays the activation. The default (SIMD) kernel computes
// max(x, 0) branchlessly — one load, one max, one store per lane, exactly
// like production DNN kernels — so branch events carry no activation signal.
// In branchy mode (ablation) every element instead takes a conditional
// branch on its sign. Either way, all-zero result lines are absorbed by the
// ZCA structure.
func (e *Engine) traceReLU(l *nn.ReLU, in tref) tref {
	out := e.newOutput(e.forward(l, in.t))
	cb := e.lo.code[l]
	m := e.M
	m.fetchCode(cb, 1)
	d := in.t.Data()
	for li := 0; li < in.lines(); li++ {
		e.loadSpan(in, li*floatsPerLine, 1)
		if e.branchy {
			end := (li + 1) * floatsPerLine
			if end > len(d) {
				end = len(d)
			}
			for _, v := range d[li*floatsPerLine : end] {
				m.condBranch(cb+32, v > 0)
			}
		}
		e.storeSpan(out, li*floatsPerLine, 1)
	}
	m.Instructions += uint64(2 * in.t.Len())
	m.loopBranches(cb, uint64(in.lines()))
	return out
}

// traceBatchNorm replays the inference-time affine map plus its parameter
// loads.
func (e *Engine) traceBatchNorm(l *nn.BatchNorm2D, in tref) tref {
	out := e.newOutput(e.forward(l, in.t))
	cb, wb := e.lo.code[l], e.lo.weight[l]
	m := e.M
	m.fetchCode(cb, 1)
	e.loadWeights(wb, 0, 2*l.C) // γ and β (folded scale/shift)
	for li := 0; li < in.lines(); li++ {
		e.loadSpan(in, li*floatsPerLine, 1)
		e.storeSpan(out, li*floatsPerLine, 1)
	}
	m.Instructions += uint64(2 * in.t.Len())
	m.loopBranches(cb, uint64(in.lines()))
	return out
}

// traceMaxPool replays pooling with its data-dependent comparison branches.
func (e *Engine) traceMaxPool(l *nn.MaxPool2D, in tref) tref {
	out := e.newOutput(e.forward(l, in.t))
	c, inH, inW := in.t.Dim(1), in.t.Dim(2), in.t.Dim(3)
	outH, outW := out.t.Dim(2), out.t.Dim(3)
	cb := e.lo.code[l]
	m := e.M
	m.fetchCode(cb, 1)
	d := in.t.Data()
	for ch := 0; ch < c; ch++ {
		for oy := 0; oy < outH; oy++ {
			// Load the input rows feeding this output row once.
			for ky := 0; ky < l.Kernel; ky++ {
				iy := oy*l.Stride + ky - l.Pad
				if iy < 0 || iy >= inH {
					continue
				}
				e.loadSpan(in, (ch*inH+iy)*inW, inW)
			}
			// SIMD kernels reduce windows with max instructions; the
			// branchy ablation takes one compare-and-branch per lane.
			if e.branchy {
				for ox := 0; ox < outW; ox++ {
					best := -1.0e308
					for ky := 0; ky < l.Kernel; ky++ {
						iy := oy*l.Stride + ky - l.Pad
						if iy < 0 || iy >= inH {
							continue
						}
						for kx := 0; kx < l.Kernel; kx++ {
							ix := ox*l.Stride + kx - l.Pad
							if ix < 0 || ix >= inW {
								continue
							}
							v := d[(ch*inH+iy)*inW+ix]
							m.condBranch(cb+32, v > best)
							if v > best {
								best = v
							}
						}
					}
				}
			}
			m.Instructions += uint64(outW * l.Kernel * l.Kernel)
			e.storeSpan(out, (ch*outH+oy)*outW, outW)
		}
		m.loopBranches(cb+8, uint64(outH))
	}
	m.loopBranches(cb, uint64(c))
	return out
}

// traceAvgPool replays average pooling (branch-free accumulation).
func (e *Engine) traceAvgPool(l *nn.AvgPool2D, in tref) tref {
	out := e.newOutput(e.forward(l, in.t))
	c, inH, inW := in.t.Dim(1), in.t.Dim(2), in.t.Dim(3)
	outH, outW := out.t.Dim(2), out.t.Dim(3)
	cb := e.lo.code[l]
	m := e.M
	m.fetchCode(cb, 1)
	for ch := 0; ch < c; ch++ {
		for oy := 0; oy < outH; oy++ {
			for ky := 0; ky < l.Kernel; ky++ {
				iy := oy*l.Stride + ky
				if iy >= inH {
					continue
				}
				e.loadSpan(in, (ch*inH+iy)*inW, inW)
			}
			e.storeSpan(out, (ch*outH+oy)*outW, outW)
		}
	}
	m.Instructions += uint64(in.t.Len() + out.t.Len())
	m.loopBranches(cb, uint64(c*outH))
	return out
}

// traceGAP replays global average pooling.
func (e *Engine) traceGAP(l *nn.GlobalAvgPool, in tref) tref {
	out := e.newOutput(e.forward(l, in.t))
	cb := e.lo.code[l]
	m := e.M
	m.fetchCode(cb, 1)
	for li := 0; li < in.lines(); li++ {
		e.loadSpan(in, li*floatsPerLine, 1)
	}
	e.storeSpan(out, 0, out.t.Len())
	m.Instructions += uint64(in.t.Len() + out.t.Len())
	m.loopBranches(cb, uint64(in.lines()))
	return out
}

// traceResidual replays both paths and the element-wise addition.
func (e *Engine) traceResidual(l *nn.Residual, in tref) tref {
	body := e.traceLayer(l.Body, in)
	short := in
	if l.Shortcut != nil {
		short = e.traceLayer(l.Shortcut, in)
	}
	sum := e.sc.Tensor(body.t.Shape()...)
	copy(sum.Data(), body.t.Data())
	sum.AddInPlace(short.t)
	out := e.newOutput(sum)
	cb := e.lo.code[l]
	m := e.M
	m.fetchCode(cb, 1)
	for li := 0; li < out.lines(); li++ {
		e.loadSpan(body, li*floatsPerLine, 1)
		e.loadSpan(short, li*floatsPerLine, 1)
		e.storeSpan(out, li*floatsPerLine, 1)
	}
	m.Instructions += uint64(out.t.Len())
	m.loopBranches(cb, uint64(out.lines()))
	return out
}

// traceParallel replays every branch on the same input and the channel
// concatenation of their outputs.
func (e *Engine) traceParallel(l *nn.Parallel, in tref) tref {
	refs := e.refs.get(len(l.Branches))
	outs := e.touts.get(len(l.Branches))
	for i, b := range l.Branches {
		refs[i] = e.traceLayer(b, in)
		outs[i] = refs[i].t
	}
	out := e.newOutput(e.concat(outs))
	cb := e.lo.code[l]
	m := e.M
	m.fetchCode(cb, 1)
	for _, r := range refs {
		for li := 0; li < r.lines(); li++ {
			e.loadSpan(r, li*floatsPerLine, 1)
		}
	}
	for li := 0; li < out.lines(); li++ {
		e.storeSpan(out, li*floatsPerLine, 1)
	}
	m.Instructions += uint64(out.t.Len())
	m.loopBranches(cb, uint64(out.lines()))
	return out
}

// traceDense replays DenseNet growth: each unit's output is concatenated
// onto the running feature map (a copy in real runtimes, and here).
func (e *Engine) traceDense(l *nn.DenseBlock, in tref) tref {
	cur := in
	cb := e.lo.code[l]
	m := e.M
	for _, u := range l.Units {
		y := e.traceLayer(u, cur)
		e.pair[0], e.pair[1] = cur.t, y.t
		cat := e.newOutput(e.concat(e.pair[:]))
		m.fetchCode(cb, 1)
		for li := 0; li < cur.lines(); li++ {
			e.loadSpan(cur, li*floatsPerLine, 1)
		}
		for li := 0; li < y.lines(); li++ {
			e.loadSpan(y, li*floatsPerLine, 1)
		}
		for li := 0; li < cat.lines(); li++ {
			e.storeSpan(cat, li*floatsPerLine, 1)
		}
		m.Instructions += uint64(cat.t.Len())
		m.loopBranches(cb, uint64(cat.lines()))
		cur = cat
	}
	return cur
}

// traceSE replays squeeze-excite: the squeeze reduction, the two-layer
// gating MLP (weights stream like a linear layer), and the channel-scaling
// pass.
func (e *Engine) traceSE(l *nn.SqueezeExcite, in tref) tref {
	out := e.newOutput(e.forward(l, in.t))
	cb, wb := e.lo.code[l], e.lo.weight[l]
	m := e.M
	m.fetchCode(cb, 2)
	// Squeeze: stream the whole input once.
	for li := 0; li < in.lines(); li++ {
		e.loadSpan(in, li*floatsPerLine, 1)
	}
	m.Instructions += uint64(in.t.Len())
	// Gating MLP: FC1 (C→R) and FC2 (R→C) weight streams.
	fc1 := l.C * l.Reduced
	fc2 := l.Reduced * l.C
	e.loadWeights(wb, 0, fc1+fc2)
	m.Instructions += uint64(2*(fc1+fc2) + 10*l.C)
	// Scale: read input and write gated output.
	for li := 0; li < in.lines(); li++ {
		e.loadSpan(in, li*floatsPerLine, 1)
		e.storeSpan(out, li*floatsPerLine, 1)
	}
	m.Instructions += uint64(in.t.Len())
	m.loopBranches(cb, uint64(in.lines()))
	return out
}
