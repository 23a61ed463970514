// Package train implements minibatch SGD with momentum and weight decay, an
// epoch loop with step-decayed learning rate, accuracy evaluation, and
// disk-cached training so experiments re-use converged models across runs.
package train

import (
	"fmt"
	"io"
	"os"

	"advhunter/internal/data"
	"advhunter/internal/models"
	"advhunter/internal/nn"
	"advhunter/internal/rng"
)

// Config controls the SGD loop.
type Config struct {
	Epochs       int
	BatchSize    int
	LearningRate float64
	Momentum     float64
	WeightDecay  float64
	// LRDecayEvery halves the learning rate after this many epochs
	// (0 disables decay).
	LRDecayEvery int
	// Seed drives batch shuffling.
	Seed uint64
	// TargetAccuracy stops training early once test accuracy reaches this
	// value (0 disables early stopping). Checked after each epoch.
	TargetAccuracy float64
	// Log receives progress lines; nil silences output.
	Log io.Writer
}

// DefaultConfig returns the settings used by the paper-scale scenarios.
func DefaultConfig() Config {
	return Config{
		Epochs:       12,
		BatchSize:    16,
		LearningRate: 0.05,
		Momentum:     0.9,
		WeightDecay:  1e-4,
		LRDecayEvery: 5,
		Seed:         1,
	}
}

// Result summarises a training run.
type Result struct {
	Epochs        int
	FinalLoss     float64
	TrainAccuracy float64
	TestAccuracy  float64
}

// SGD trains the model in place on the dataset's training split.
func SGD(m *models.Model, ds *data.Dataset, cfg Config) Result {
	if cfg.BatchSize <= 0 || cfg.Epochs <= 0 {
		panic("train: non-positive batch size or epoch count")
	}
	r := rng.New(cfg.Seed)
	params := m.Net.Params()
	velocity := make([][]float64, len(params))
	for i, p := range params {
		velocity[i] = make([]float64, p.Value.Len())
	}
	lr := cfg.LearningRate
	var res Result
	n := len(ds.Train)
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		if cfg.LRDecayEvery > 0 && epoch > 0 && epoch%cfg.LRDecayEvery == 0 {
			lr /= 2
		}
		order := r.Perm(n)
		totalLoss, seen := 0.0, 0
		for start := 0; start < n; start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > n {
				end = n
			}
			batch := make([]data.Sample, 0, end-start)
			for _, idx := range order[start:end] {
				batch = append(batch, ds.Train[idx])
			}
			x, labels := data.Stack(batch)
			nn.ZeroGrads(m.Net)
			logits := m.Net.Forward(x, true)
			loss, grad := nn.SoftmaxCrossEntropy(logits, labels)
			m.Net.Backward(grad)
			totalLoss += loss * float64(len(batch))
			seen += len(batch)
			for i, p := range params {
				v, g, w := velocity[i], p.Grad.Data(), p.Value.Data()
				for j := range w {
					v[j] = cfg.Momentum*v[j] + g[j] + cfg.WeightDecay*w[j]
					w[j] -= lr * v[j]
				}
			}
		}
		res.Epochs = epoch + 1
		res.FinalLoss = totalLoss / float64(seen)
		if cfg.Log != nil {
			fmt.Fprintf(cfg.Log, "epoch %2d: loss %.4f lr %.4f\n", epoch+1, res.FinalLoss, lr)
		}
		if cfg.TargetAccuracy > 0 {
			acc := Evaluate(m, ds.Test)
			if cfg.Log != nil {
				fmt.Fprintf(cfg.Log, "          test accuracy %.2f%%\n", 100*acc)
			}
			if acc >= cfg.TargetAccuracy {
				break
			}
		}
	}
	res.TrainAccuracy = Evaluate(m, ds.Train)
	res.TestAccuracy = Evaluate(m, ds.Test)
	return res
}

// Evaluate returns the model's accuracy over the samples.
func Evaluate(m *models.Model, samples []data.Sample) float64 {
	if len(samples) == 0 {
		return 0
	}
	correct := 0
	const chunk = 32
	for start := 0; start < len(samples); start += chunk {
		end := start + chunk
		if end > len(samples) {
			end = len(samples)
		}
		x, labels := data.Stack(samples[start:end])
		preds := m.PredictBatch(x)
		for i, p := range preds {
			if p == labels[i] {
				correct++
			}
		}
	}
	return float64(correct) / float64(len(samples))
}

// Cached loads the checkpoint at path into m when one exists; otherwise it
// trains m on ds() and saves the checkpoint. It returns whether training
// ran. A load builds no dataset and evaluates nothing, so its Result is the
// zero value: a caller that wants the accuracy runs Evaluate itself.
func Cached(m *models.Model, ds func() *data.Dataset, cfg Config, path string) (Result, bool, error) {
	if _, err := os.Stat(path); err == nil {
		if err := m.Load(path); err != nil {
			return Result{}, false, fmt.Errorf("train: stale checkpoint %s: %w", path, err)
		}
		return Result{}, false, nil
	}
	res := SGD(m, ds(), cfg)
	if err := m.Save(path); err != nil {
		return res, true, err
	}
	return res, true, nil
}
