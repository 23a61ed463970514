package gmm

import (
	"errors"
	"fmt"
	"math"

	"advhunter/internal/rng"
)

// MultiModel is a diagonal-covariance multivariate Gaussian mixture, used by
// the multi-event fusion extension (the paper's per-event models are the
// univariate Model).
type MultiModel struct {
	D       int
	Weights []float64
	Means   [][]float64 // [k][d]
	Vars    [][]float64 // [k][d]
}

// K returns the number of components.
func (m *MultiModel) K() int { return len(m.Weights) }

// logGaussDiag returns ln N(x | mean, diag(vars)).
func logGaussDiag(x, mean, vars []float64) float64 {
	s := 0.0
	for d := range x {
		dd := x[d] - mean[d]
		s += log2Pi + math.Log(vars[d]) + dd*dd/vars[d]
	}
	return -0.5 * s
}

// LogLikelihood returns ln p(x) under the mixture.
func (m *MultiModel) LogLikelihood(x []float64) float64 {
	if len(x) != m.D {
		panic(fmt.Sprintf("gmm: point dimension %d, model dimension %d", len(x), m.D))
	}
	terms := make([]float64, m.K())
	for k := range terms {
		terms[k] = math.Log(m.Weights[k]) + logGaussDiag(x, m.Means[k], m.Vars[k])
	}
	return logSumExp(terms)
}

// NegLogLikelihood returns −ln p(x).
func (m *MultiModel) NegLogLikelihood(x []float64) float64 { return -m.LogLikelihood(x) }

// TotalLogLikelihood sums ln p(x) over the dataset.
func (m *MultiModel) TotalLogLikelihood(data [][]float64) float64 {
	s := 0.0
	for _, x := range data {
		s += m.LogLikelihood(x)
	}
	return s
}

// BIC returns the information criterion with p = K(2D+1)−1 free parameters.
func (m *MultiModel) BIC(data [][]float64) float64 {
	p := float64(m.K()*(2*m.D+1) - 1)
	return -2*m.TotalLogLikelihood(data) + p*math.Log(float64(len(data)))
}

// FitMulti runs diagonal EM with k components on D-dimensional data.
func FitMulti(data [][]float64, k int, cfg Config) (*MultiModel, error) {
	if len(data) == 0 {
		return nil, errors.New("gmm: empty dataset")
	}
	if k <= 0 || len(data) < k {
		return nil, fmt.Errorf("gmm: %d points cannot support %d components", len(data), k)
	}
	dim := len(data[0])
	for _, x := range data {
		if len(x) != dim {
			return nil, errors.New("gmm: ragged dataset")
		}
	}
	// Per-dimension pooled variance, for variance floors and seeding.
	poolVar := make([]float64, dim)
	poolMu := make([]float64, dim)
	for d := 0; d < dim; d++ {
		col := make([]float64, len(data))
		for i, x := range data {
			col[i] = x[d]
		}
		poolMu[d], poolVar[d] = meanVar(col)
	}
	minVar := make([]float64, dim)
	for d := range minVar {
		minVar[d] = math.Max(minVarFraction*poolVar[d], 1e-12)
	}
	r := rng.New(cfg.Seed ^ 0x5bd1e995)
	var best *MultiModel
	bestLL := math.Inf(-1)
	for attempt := 0; attempt < restartCount; attempt++ {
		m := initMulti(data, k, dim, poolVar, minVar, r)
		ll, err := emMulti(m, data, minVar)
		if err != nil {
			continue
		}
		if ll > bestLL {
			best, bestLL = m, ll
		}
	}
	if best == nil {
		return nil, errors.New("gmm: every multivariate EM restart failed")
	}
	return best, nil
}

// initMulti seeds component means on far-apart data points.
func initMulti(data [][]float64, k, dim int, poolVar, minVar []float64, r *rng.Rand) *MultiModel {
	m := &MultiModel{
		D:       dim,
		Weights: make([]float64, k),
		Means:   make([][]float64, k),
		Vars:    make([][]float64, k),
	}
	for j := 0; j < k; j++ {
		m.Weights[j] = 1 / float64(k)
		m.Vars[j] = make([]float64, dim)
		for d := 0; d < dim; d++ {
			m.Vars[j][d] = math.Max(poolVar[d], minVar[d])
		}
	}
	m.Means[0] = append([]float64(nil), data[r.Intn(len(data))]...)
	dist := make([]float64, len(data))
	for c := 1; c < k; c++ {
		for i, x := range data {
			d := math.Inf(1)
			for _, mu := range m.Means[:c] {
				dd := 0.0
				for t := range x {
					diff := (x[t] - mu[t]) / math.Sqrt(math.Max(poolVar[t], 1e-12))
					dd += diff * diff
				}
				if dd < d {
					d = dd
				}
			}
			dist[i] = d
		}
		m.Means[c] = append([]float64(nil), data[r.Choice(dist)]...)
	}
	return m
}

// emMulti is the diagonal-covariance EM loop.
func emMulti(m *MultiModel, data [][]float64, minVar []float64) (float64, error) {
	n := len(data)
	k := m.K()
	dim := m.D
	resp := make([]float64, n*k)
	terms := make([]float64, k)
	prevLL := math.Inf(-1)
	for iter := 0; iter < maxIter; iter++ {
		ll := 0.0
		for i, x := range data {
			for j := 0; j < k; j++ {
				terms[j] = math.Log(m.Weights[j]) + logGaussDiag(x, m.Means[j], m.Vars[j])
			}
			lse := logSumExp(terms)
			ll += lse
			for j := 0; j < k; j++ {
				resp[i*k+j] = math.Exp(terms[j] - lse)
			}
		}
		if math.IsNaN(ll) || math.IsInf(ll, 1) {
			return 0, errors.New("gmm: multivariate log-likelihood diverged")
		}
		for j := 0; j < k; j++ {
			nk := 0.0
			for i := range data {
				nk += resp[i*k+j]
			}
			if nk < 1e-10 {
				m.Weights[j] = 1.0 / float64(n)
				continue
			}
			for d := 0; d < dim; d++ {
				mu := 0.0
				for i, x := range data {
					mu += resp[i*k+j] * x[d]
				}
				mu /= nk
				va := 0.0
				for i, x := range data {
					diff := x[d] - mu
					va += resp[i*k+j] * diff * diff
				}
				m.Means[j][d] = mu
				m.Vars[j][d] = math.Max(va/nk, minVar[d])
			}
			m.Weights[j] = nk / float64(n)
		}
		normalizeWeights(m.Weights)
		if iter > 0 && ll-prevLL < tol*(1+math.Abs(ll)) {
			return ll, nil
		}
		prevLL = ll
	}
	return prevLL, nil
}

// FitBestMulti selects the component count by BIC.
func FitBestMulti(data [][]float64, maxK int, cfg Config) (*MultiModel, error) {
	var best *MultiModel
	bestBIC := math.Inf(1)
	var lastErr error
	for k := 1; k <= maxK && k <= len(data); k++ {
		sub := cfg
		sub.Seed = cfg.Seed + uint64(k)*0x85eb
		m, err := FitMulti(data, k, sub)
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
			lastErr = errors.New("gmm: no multivariate model fitted")
		}
		return nil, lastErr
	}
	return best, nil
}
