package detect

import (
	"fmt"
	"math"
	"sort"

	"advhunter/internal/core"
	"advhunter/internal/uarch/hpc"
)

func init() {
	registerPerEvent("knn", "per-(category, event) k-nearest-neighbour distance to the clean template",
		func(e hpc.Event, n int) Scorer { return &knnScorer{Event: e, Index: n} })
}

// knnScorer scores a reading by its mean distance to the k nearest template
// readings of the predicted category — a purely instance-based backend with
// no distributional assumption at all.
type knnScorer struct {
	Event hpc.Event
	Index int
	// K is the neighbour count (clamped per category to the template size).
	K int
	// Samples[c] is category c's template column, sorted ascending
	// (nil when unmodelled).
	Samples [][]float64
}

func (s *knnScorer) Channel() string { return s.Event.String() }

func (s *knnScorer) Fit(t *core.Template, cfg Config) error {
	s.K = knnNeighbours
	s.Samples = make([][]float64, t.Classes)
	return fitColumns(t, s.Event, func(c int, col []float64) error {
		sort.Float64s(col)
		s.Samples[c] = col
		return nil
	})
}

func (s *knnScorer) Score(q core.Measurement) (float64, bool) {
	if q.Pred < 0 || q.Pred >= len(s.Samples) || len(s.Samples[q.Pred]) == 0 {
		return 0, false
	}
	pts := s.Samples[q.Pred]
	x := q.Counts.Get(s.Event)
	k := s.K
	if k > len(pts) {
		k = len(pts)
	}
	// The k nearest values in a sorted column form a contiguous window;
	// slide it from the insertion point instead of sorting all distances.
	lo := sort.SearchFloat64s(pts, x)
	hi := lo
	sum := 0.0
	for n := 0; n < k; n++ {
		left, right := math.Inf(1), math.Inf(1)
		if lo > 0 {
			left = x - pts[lo-1]
		}
		if hi < len(pts) {
			right = pts[hi] - x
		}
		if left <= right {
			sum += left
			lo--
		} else {
			sum += right
			hi++
		}
	}
	return sum / float64(k), true
}

func (s *knnScorer) validate(classes int, _ []hpc.Event) error {
	if s.Event < 0 || s.Event >= hpc.NumEvents {
		return fmt.Errorf("detect: knn scorer has invalid event %d", int(s.Event))
	}
	if s.K <= 0 {
		return fmt.Errorf("detect: knn scorer has non-positive k %d", s.K)
	}
	if len(s.Samples) != classes {
		return fmt.Errorf("detect: knn scorer has %d categories, want %d", len(s.Samples), classes)
	}
	for c, pts := range s.Samples {
		if !sort.Float64sAreSorted(pts) {
			return fmt.Errorf("detect: knn scorer category %d is not sorted", c)
		}
		for _, p := range pts {
			if math.IsNaN(p) || math.IsInf(p, 0) {
				return fmt.Errorf("detect: knn scorer category %d has non-finite sample", c)
			}
		}
	}
	return nil
}
