package nn

import (
	"math"

	"advhunter/internal/tensor"
)

// BatchNorm2D normalises each channel of a [N, C, H, W] tensor.
//
// Training mode uses batch statistics and updates exponential running
// estimates; inference mode uses the running estimates, making the layer a
// fixed per-channel affine map (which is what the instrumented engine
// replays).
type BatchNorm2D struct {
	label string
	C     int
	Eps   float64
	// Momentum is the update weight of the *new* batch statistic in the
	// running estimates (PyTorch convention, default 0.1).
	Momentum float64

	Gamma, Beta             *Param
	RunningMean, RunningVar *tensor.Tensor

	// caches
	in        *tensor.Tensor
	xhat      []float64
	invStd    []float64 // per channel
	lastTrain bool
}

// NewBatchNorm2D constructs a batch-norm layer with γ=1, β=0 and running
// statistics (mean 0, var 1).
func NewBatchNorm2D(label string, c int) *BatchNorm2D {
	l := &BatchNorm2D{label: label, C: c, Eps: 1e-5, Momentum: 0.1}
	l.Gamma = newParam(label+".gamma", tensor.New(c).Fill(1))
	l.Beta = newParam(label+".beta", tensor.New(c))
	l.RunningMean = tensor.New(c)
	l.RunningVar = tensor.New(c).Fill(1)
	return l
}

// Name returns the layer label.
func (l *BatchNorm2D) Name() string { return l.label }

// Params returns γ and β.
func (l *BatchNorm2D) Params() []*Param { return []*Param{l.Gamma, l.Beta} }

// Forward normalises per channel. In training mode batch statistics are used
// and running statistics updated; in inference mode it runs ForwardScratch,
// the running-statistics affine map, on fresh buffers.
func (l *BatchNorm2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	l.lastTrain = train
	if !train {
		return l.ForwardScratch(x, nil)
	}
	checkRank(l.label, x, 4)
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	plane := h * w
	count := float64(n * plane)
	out := tensor.New(x.Shape()...)
	xd, od := x.Data(), out.Data()
	gd, bd := l.Gamma.Value.Data(), l.Beta.Value.Data()
	l.in = x
	l.xhat = make([]float64, len(xd))
	l.invStd = make([]float64, c)
	rm, rv := l.RunningMean.Data(), l.RunningVar.Data()
	for ch := 0; ch < c; ch++ {
		mean, sq := 0.0, 0.0
		for i := 0; i < n; i++ {
			base := (i*c + ch) * plane
			for p := 0; p < plane; p++ {
				v := xd[base+p]
				mean += v
				sq += v * v
			}
		}
		mean /= count
		variance := sq/count - mean*mean
		if variance < 0 {
			variance = 0
		}
		invStd := 1 / math.Sqrt(variance+l.Eps)
		l.invStd[ch] = invStd
		rm[ch] = (1-l.Momentum)*rm[ch] + l.Momentum*mean
		rv[ch] = (1-l.Momentum)*rv[ch] + l.Momentum*variance
		for i := 0; i < n; i++ {
			base := (i*c + ch) * plane
			for p := 0; p < plane; p++ {
				xh := (xd[base+p] - mean) * invStd
				l.xhat[base+p] = xh
				od[base+p] = gd[ch]*xh + bd[ch]
			}
		}
	}
	return out
}

// Backward implements the batch-norm gradient. After a training-mode
// forward it differentiates through the batch statistics and accumulates
// dγ/dβ. After an inference-mode forward the layer is a fixed affine map, so
// the input gradient is a per-channel scaling and parameter gradients are
// left untouched — this is the path white-box attacks take when
// differentiating the deployed (eval-mode) network.
func (l *BatchNorm2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if !l.lastTrain {
		n, c := grad.Dim(0), grad.Dim(1)
		plane := grad.Dim(2) * grad.Dim(3)
		dx := tensor.New(grad.Shape()...)
		gd, dxd := grad.Data(), dx.Data()
		scale, _ := l.InferenceAffine()
		for i := 0; i < n; i++ {
			for ch := 0; ch < c; ch++ {
				s := scale[ch]
				base := (i*c + ch) * plane
				for p := 0; p < plane; p++ {
					dxd[base+p] = gd[base+p] * s
				}
			}
		}
		return dx
	}
	n, c := l.in.Dim(0), l.in.Dim(1)
	plane := l.in.Dim(2) * l.in.Dim(3)
	count := float64(n * plane)
	dx := tensor.New(l.in.Shape()...)
	gd := grad.Data()
	dxd := dx.Data()
	gamma := l.Gamma.Value.Data()
	dGamma, dBeta := l.Gamma.Grad.Data(), l.Beta.Grad.Data()
	for ch := 0; ch < c; ch++ {
		var sumDy, sumDyXhat float64
		for i := 0; i < n; i++ {
			base := (i*c + ch) * plane
			for p := 0; p < plane; p++ {
				dy := gd[base+p]
				sumDy += dy
				sumDyXhat += dy * l.xhat[base+p]
			}
		}
		dGamma[ch] += sumDyXhat
		dBeta[ch] += sumDy
		k := gamma[ch] * l.invStd[ch]
		meanDy := sumDy / count
		meanDyXhat := sumDyXhat / count
		for i := 0; i < n; i++ {
			base := (i*c + ch) * plane
			for p := 0; p < plane; p++ {
				dxd[base+p] = k * (gd[base+p] - meanDy - l.xhat[base+p]*meanDyXhat)
			}
		}
	}
	return dx
}

// ForwardScratch implements ScratchForwarder for the inference-mode
// per-channel affine map built from the running statistics.
func (l *BatchNorm2D) ForwardScratch(x *tensor.Tensor, s *Scratch) *tensor.Tensor {
	checkRank(l.label, x, 4)
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	plane := h * w
	out := s.Tensor(x.Shape()...)
	xd, od := x.Data(), out.Data()
	gd, bd := l.Gamma.Value.Data(), l.Beta.Value.Data()
	rm, rv := l.RunningMean.Data(), l.RunningVar.Data()
	for ch := 0; ch < c; ch++ {
		scale := gd[ch] / math.Sqrt(rv[ch]+l.Eps)
		shift := bd[ch] - rm[ch]*scale
		for i := 0; i < n; i++ {
			base := (i*c + ch) * plane
			for p := 0; p < plane; p++ {
				od[base+p] = xd[base+p]*scale + shift
			}
		}
	}
	return out
}

// InferenceAffine returns the per-channel (scale, shift) pair the layer
// applies in inference mode; the inference-mode Backward scales by it.
func (l *BatchNorm2D) InferenceAffine() (scale, shift []float64) {
	scale = make([]float64, l.C)
	shift = make([]float64, l.C)
	gd, bd := l.Gamma.Value.Data(), l.Beta.Value.Data()
	rm, rv := l.RunningMean.Data(), l.RunningVar.Data()
	for ch := 0; ch < l.C; ch++ {
		scale[ch] = gd[ch] / math.Sqrt(rv[ch]+l.Eps)
		shift[ch] = bd[ch] - rm[ch]*scale[ch]
	}
	return scale, shift
}
