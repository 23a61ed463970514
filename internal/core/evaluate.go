package core

import (
	"advhunter/internal/data"
	"advhunter/internal/parallel"
	"advhunter/internal/uarch/hpc"
)

// Measurement is one measured image: the hard-label prediction plus the
// R-averaged counter reading. Experiments measure once and evaluate many
// detector variants against the cached measurements.
type Measurement struct {
	Pred int
	// TrueLabel is the ground-truth class (for clean images) or the
	// original class (for adversarial ones); bookkeeping only. Online
	// queries carry -1.
	TrueLabel int
	Counts    hpc.Counts
	// Conf is the softmax confidence of the predicted class. The black-box
	// threat model forbids detectors from using it; it feeds only the
	// soft-label confidence baseline the paper compares against.
	Conf float64
}

// MeasureSet measures every sample, fanning out over m.Workers goroutines.
// Each worker beyond the first measures on its own Clone of m, and every
// sample draws noise from its index-keyed stream, so the returned slice is
// bit-identical for any worker count and any scheduling. TrueLabel carries
// the sample's label.
func MeasureSet(m *Measurer, samples []data.Sample) []Measurement {
	workers := parallel.Workers(m.Workers, len(samples))
	reps := make([]*Measurer, workers)
	reps[0] = m
	for w := 1; w < workers; w++ {
		reps[w] = m.Clone()
	}
	return parallel.MapWorkers(workers, samples, func(worker, i int, s data.Sample) Measurement {
		meas := reps[worker].MeasureAt(uint64(i), s.X)
		meas.TrueLabel = s.Label
		return meas
	})
}
