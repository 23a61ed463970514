// Package gmm implements Gaussian Mixture Models fitted by
// Expectation-Maximisation (the paper's Algorithm 1), with k-means++-style
// seeding, multiple restarts, and Bayesian Information Criterion model
// selection for the number of components. The univariate form models one
// HPC event's template (Section 5.3); a diagonal multivariate form supports
// the multi-event fusion extension.
package gmm

import (
	"errors"
	"fmt"
	"math"

	"advhunter/internal/rng"
)

// Model is a univariate Gaussian mixture.
type Model struct {
	Weights []float64 // mixing coefficients π_k, sum to 1
	Means   []float64 // μ_k
	Vars    []float64 // σ²_k
}

// K returns the number of components.
func (m *Model) K() int { return len(m.Weights) }

const log2Pi = 1.8378770664093453 // ln(2π)

// logGauss returns ln N(x | mean, variance).
func logGauss(x, mean, variance float64) float64 {
	d := x - mean
	return -0.5 * (log2Pi + math.Log(variance) + d*d/variance)
}

// logSumExp computes ln Σ exp(v_i) stably.
func logSumExp(v []float64) float64 {
	m := math.Inf(-1)
	for _, x := range v {
		if x > m {
			m = x
		}
	}
	if math.IsInf(m, -1) {
		return m
	}
	s := 0.0
	for _, x := range v {
		s += math.Exp(x - m)
	}
	return m + math.Log(s)
}

// LogLikelihood returns ln p(x) under the mixture.
func (m *Model) LogLikelihood(x float64) float64 {
	terms := make([]float64, m.K())
	for k := range terms {
		terms[k] = math.Log(m.Weights[k]) + logGauss(x, m.Means[k], m.Vars[k])
	}
	return logSumExp(terms)
}

// NegLogLikelihood returns −ln p(x), the paper's anomaly score ℓ.
func (m *Model) NegLogLikelihood(x float64) float64 { return -m.LogLikelihood(x) }

// TotalLogLikelihood sums ln p(x) over a dataset.
func (m *Model) TotalLogLikelihood(data []float64) float64 {
	s := 0.0
	for _, x := range data {
		s += m.LogLikelihood(x)
	}
	return s
}

// BIC returns the Bayesian Information Criterion of the model on the data:
// −2·lnL + p·ln n with p = 3K−1 free parameters. Lower is better.
func (m *Model) BIC(data []float64) float64 {
	p := float64(3*m.K() - 1)
	return -2*m.TotalLogLikelihood(data) + p*math.Log(float64(len(data)))
}

// The EM settings used throughout the evaluation.
const (
	// maxIter bounds EM iterations per restart.
	maxIter = 100
	// tol stops EM when the log-likelihood improves by less than
	// tol·(1+|lnL|).
	tol = 1e-6
	// restartCount runs EM from that many seedings and keeps the best fit.
	restartCount = 3
	// minVarFraction floors component variances at that fraction of the
	// data variance, preventing singular collapse onto single points.
	minVarFraction = 1e-4
)

// Config controls the EM fit.
type Config struct {
	// Seed drives the seeding; equal seeds give identical fits.
	Seed uint64
}

// DefaultConfig returns the seed used throughout the evaluation.
func DefaultConfig() Config {
	return Config{Seed: 1}
}

// meanVar returns the sample mean and (biased) variance.
func meanVar(data []float64) (float64, float64) {
	n := float64(len(data))
	mu := 0.0
	for _, x := range data {
		mu += x
	}
	mu /= n
	v := 0.0
	for _, x := range data {
		d := x - mu
		v += d * d
	}
	return mu, v / n
}

// Fit runs EM with k components.
func Fit(data []float64, k int, cfg Config) (*Model, error) {
	if k <= 0 {
		return nil, fmt.Errorf("gmm: non-positive component count %d", k)
	}
	if len(data) < k {
		return nil, fmt.Errorf("gmm: %d points cannot support %d components", len(data), k)
	}
	dataMu, dataVar := meanVar(data)
	minVar := minVarFraction * dataVar
	if minVar <= 0 {
		// Constant data: a single (near-)degenerate Gaussian describes it.
		minVar = math.Max(1e-12, 1e-12*math.Abs(dataMu))
	}
	r := rng.New(cfg.Seed)
	var best *Model
	bestLL := math.Inf(-1)
	for attempt := 0; attempt < restartCount; attempt++ {
		m := initModel(data, k, dataVar, minVar, r)
		ll, err := em(m, data, minVar)
		if err != nil {
			continue
		}
		if ll > bestLL {
			best, bestLL = m, ll
		}
	}
	if best == nil {
		return nil, errors.New("gmm: every EM restart failed")
	}
	return best, nil
}

// initModel seeds means k-means++-style (far-apart data points), with the
// pooled variance as every component's starting spread.
func initModel(data []float64, k int, dataVar, minVar float64, r *rng.Rand) *Model {
	m := &Model{
		Weights: make([]float64, k),
		Means:   make([]float64, k),
		Vars:    make([]float64, k),
	}
	startVar := math.Max(dataVar, minVar)
	for i := range m.Weights {
		m.Weights[i] = 1 / float64(k)
		m.Vars[i] = startVar
	}
	// First mean uniform; subsequent means weighted by squared distance to
	// the nearest chosen mean.
	m.Means[0] = data[r.Intn(len(data))]
	dist := make([]float64, len(data))
	for c := 1; c < k; c++ {
		for i, x := range data {
			d := math.Inf(1)
			for _, mu := range m.Means[:c] {
				if dd := (x - mu) * (x - mu); dd < d {
					d = dd
				}
			}
			dist[i] = d
		}
		m.Means[c] = data[r.Choice(dist)]
	}
	return m
}

// em runs the Expectation-Maximisation loop (Algorithm 1) and returns the
// final total log-likelihood.
func em(m *Model, data []float64, minVar float64) (float64, error) {
	n := len(data)
	k := m.K()
	resp := make([]float64, n*k) // responsibilities γ_ik
	terms := make([]float64, k)
	// Per-component constants of ln(π_k N(x|μ_k,σ²_k)), refreshed per
	// iteration: lnπ_k − ½ln(2πσ²_k) and −1/(2σ²_k).
	logConst := make([]float64, k)
	negHalfInvVar := make([]float64, k)
	prevLL := math.Inf(-1)
	for iter := 0; iter < maxIter; iter++ {
		for j := 0; j < k; j++ {
			logConst[j] = math.Log(m.Weights[j]) - 0.5*(log2Pi+math.Log(m.Vars[j]))
			negHalfInvVar[j] = -0.5 / m.Vars[j]
		}
		// E step: γ_ik = π_k N(x_i|θ_k) / Σ_j π_j N(x_i|θ_j).
		ll := 0.0
		for i, x := range data {
			for j := 0; j < k; j++ {
				d := x - m.Means[j]
				terms[j] = logConst[j] + negHalfInvVar[j]*d*d
			}
			lse := logSumExp(terms)
			ll += lse
			for j := 0; j < k; j++ {
				resp[i*k+j] = math.Exp(terms[j] - lse)
			}
		}
		if math.IsNaN(ll) || math.IsInf(ll, 1) {
			return 0, errors.New("gmm: log-likelihood diverged")
		}
		// M step.
		for j := 0; j < k; j++ {
			var nk, muNum float64
			for i, x := range data {
				nk += resp[i*k+j]
				muNum += resp[i*k+j] * x
			}
			if nk < 1e-10 {
				// Dead component: re-seed on the worst-explained point.
				worst, worstLL := 0, math.Inf(1)
				for i, x := range data {
					if l := m.LogLikelihood(x); l < worstLL {
						worst, worstLL = i, l
					}
				}
				m.Means[j] = data[worst]
				m.Vars[j] = math.Max(minVar, 1e-3)
				m.Weights[j] = 1.0 / float64(n)
				continue
			}
			mu := muNum / nk
			var varNum float64
			for i, x := range data {
				d := x - mu
				varNum += resp[i*k+j] * d * d
			}
			m.Means[j] = mu
			m.Vars[j] = math.Max(varNum/nk, minVar)
			m.Weights[j] = nk / float64(n)
		}
		normalizeWeights(m.Weights)
		// Relative convergence: scale the tolerance with the likelihood
		// magnitude so large datasets do not spin for marginal gains.
		if iter > 0 && ll-prevLL < tol*(1+math.Abs(ll)) {
			return ll, nil
		}
		prevLL = ll
	}
	return prevLL, nil
}

// normalizeWeights rescales weights to sum to exactly 1.
func normalizeWeights(w []float64) {
	s := 0.0
	for _, v := range w {
		s += v
	}
	for i := range w {
		w[i] /= s
	}
}

// FitBest fits k = 1..maxK and returns the model with the lowest BIC — the
// paper's model-selection rule.
func FitBest(data []float64, maxK int, cfg Config) (*Model, error) {
	if maxK < 1 {
		return nil, fmt.Errorf("gmm: maxK %d", maxK)
	}
	var best *Model
	bestBIC := math.Inf(1)
	var lastErr error
	for k := 1; k <= maxK && k <= len(data); k++ {
		sub := cfg
		sub.Seed = cfg.Seed + uint64(k)*0x9e37
		m, err := Fit(data, k, sub)
		if err != nil {
			lastErr = err
			continue
		}
		if bic := m.BIC(data); bic < bestBIC {
			best, bestBIC = m, bic
		}
	}
	if best == nil {
		if lastErr == nil {
			lastErr = errors.New("gmm: no model fitted")
		}
		return nil, lastErr
	}
	return best, nil
}
