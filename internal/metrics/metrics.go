// Package metrics provides the binary-classification and distribution
// statistics the evaluation reports: accuracy, precision/recall/F1 (the
// paper's per-category scores), confusion counts, and distribution summaries
// (mean/std, overlap coefficient) used to render the figure data.
package metrics

import (
	"fmt"
	"math"
)

// Confusion tallies binary detection outcomes. Convention: "positive" means
// adversarial.
type Confusion struct {
	TP, FP, TN, FN int
}

// Add records one labelled decision.
func (c *Confusion) Add(actualPositive, predictedPositive bool) {
	switch {
	case actualPositive && predictedPositive:
		c.TP++
	case actualPositive && !predictedPositive:
		c.FN++
	case !actualPositive && predictedPositive:
		c.FP++
	default:
		c.TN++
	}
}

// Total returns the number of recorded decisions.
func (c Confusion) Total() int { return c.TP + c.FP + c.TN + c.FN }

// Accuracy returns (TP+TN)/total.
func (c Confusion) Accuracy() float64 {
	if c.Total() == 0 {
		return 0
	}
	return float64(c.TP+c.TN) / float64(c.Total())
}

// Precision returns TP/(TP+FP).
func (c Confusion) Precision() float64 {
	if c.TP+c.FP == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FP)
}

// Recall returns TP/(TP+FN).
func (c Confusion) Recall() float64 {
	if c.TP+c.FN == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FN)
}

// TPR returns the true-positive rate — an alias of Recall under the name the
// detection tables use.
func (c Confusion) TPR() float64 { return c.Recall() }

// FPR returns FP/(FP+TN), the fraction of clean inputs wrongly flagged.
func (c Confusion) FPR() float64 {
	if c.FP+c.TN == 0 {
		return 0
	}
	return float64(c.FP) / float64(c.FP+c.TN)
}

// F1 returns the harmonic mean of precision and recall.
func (c Confusion) F1() float64 {
	p, r := c.Precision(), c.Recall()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// String renders the counts compactly.
func (c Confusion) String() string {
	return fmt.Sprintf("TP=%d FP=%d TN=%d FN=%d", c.TP, c.FP, c.TN, c.FN)
}

// Merge sums another confusion matrix into c.
func (c *Confusion) Merge(o Confusion) {
	c.TP += o.TP
	c.FP += o.FP
	c.TN += o.TN
	c.FN += o.FN
}

// Summary holds distribution statistics of a sample.
type Summary struct {
	N         int
	Mean, Std float64
	Min, Max  float64
}

// Summarize computes the sample statistics.
func Summarize(xs []float64) Summary {
	s := Summary{N: len(xs), Min: math.Inf(1), Max: math.Inf(-1)}
	if len(xs) == 0 {
		return Summary{}
	}
	for _, x := range xs {
		s.Mean += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean /= float64(len(xs))
	for _, x := range xs {
		d := x - s.Mean
		s.Std += d * d
	}
	s.Std = math.Sqrt(s.Std / float64(len(xs)))
	return s
}

// MeanStd returns the mean and standard deviation of xs.
func MeanStd(xs []float64) (float64, float64) {
	s := Summarize(xs)
	return s.Mean, s.Std
}

// OverlapCoefficient estimates the overlap of two empirical distributions by
// histogram intersection over a common grid: 1 means indistinguishable,
// 0 means disjoint support. This quantifies the figures' visual overlap.
func OverlapCoefficient(a, b []float64, bins int) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, x := range append(append([]float64(nil), a...), b...) {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	if hi == lo {
		return 1
	}
	if bins <= 0 {
		bins = 32
	}
	ha := make([]float64, bins)
	hb := make([]float64, bins)
	w := (hi - lo) / float64(bins)
	bucket := func(x float64) int {
		i := int((x - lo) / w)
		if i >= bins {
			i = bins - 1
		}
		return i
	}
	for _, x := range a {
		ha[bucket(x)] += 1 / float64(len(a))
	}
	for _, x := range b {
		hb[bucket(x)] += 1 / float64(len(b))
	}
	ov := 0.0
	for i := 0; i < bins; i++ {
		ov += math.Min(ha[i], hb[i])
	}
	return ov
}
