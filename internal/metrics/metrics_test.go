package metrics

import (
	"math"
	"testing"
	"testing/quick"

	"advhunter/internal/rng"
)

func TestConfusionCountsAndScores(t *testing.T) {
	var c Confusion
	// 8 adversarial: 6 caught, 2 missed. 12 clean: 11 passed, 1 flagged.
	for i := 0; i < 6; i++ {
		c.Add(true, true)
	}
	for i := 0; i < 2; i++ {
		c.Add(true, false)
	}
	for i := 0; i < 11; i++ {
		c.Add(false, false)
	}
	c.Add(false, true)
	if c.TP != 6 || c.FN != 2 || c.TN != 11 || c.FP != 1 {
		t.Fatalf("counts: %v", c)
	}
	if math.Abs(c.Accuracy()-17.0/20) > 1e-12 {
		t.Fatal("accuracy")
	}
	if math.Abs(c.Precision()-6.0/7) > 1e-12 {
		t.Fatal("precision")
	}
	if math.Abs(c.Recall()-6.0/8) > 1e-12 {
		t.Fatal("recall")
	}
	wantF1 := 2 * (6.0 / 7) * (6.0 / 8) / ((6.0 / 7) + (6.0 / 8))
	if math.Abs(c.F1()-wantF1) > 1e-12 {
		t.Fatal("f1")
	}
}

func TestConfusionEmptyIsZero(t *testing.T) {
	var c Confusion
	if c.Accuracy() != 0 || c.Precision() != 0 || c.Recall() != 0 || c.F1() != 0 {
		t.Fatal("empty confusion must score zero, not NaN")
	}
}

func TestConfusionMerge(t *testing.T) {
	a := Confusion{TP: 1, FP: 2, TN: 3, FN: 4}
	b := Confusion{TP: 10, FP: 20, TN: 30, FN: 40}
	a.Merge(b)
	if a.TP != 11 || a.FP != 22 || a.TN != 33 || a.FN != 44 {
		t.Fatalf("merge: %v", a)
	}
}

// Property: F1 is always within [0,1] and 1 iff perfect.
func TestF1Bounds(t *testing.T) {
	f := func(tp, fp, tn, fn uint8) bool {
		c := Confusion{TP: int(tp), FP: int(fp), TN: int(tn), FN: int(fn)}
		f1 := c.F1()
		if f1 < 0 || f1 > 1 {
			return false
		}
		if tp > 0 && fp == 0 && fn == 0 && f1 != 1 {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N != 8 || s.Mean != 5 || math.Abs(s.Std-2) > 1e-12 {
		t.Fatalf("summary: %+v", s)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Fatalf("min/max: %+v", s)
	}
	if Summarize(nil).N != 0 {
		t.Fatal("empty summary")
	}
}

func TestOverlapCoefficientExtremes(t *testing.T) {
	r := rng.New(1)
	var a, b, c []float64
	for i := 0; i < 3000; i++ {
		a = append(a, r.Normal(0, 1))
		b = append(b, r.Normal(0, 1))
		c = append(c, r.Normal(40, 1))
	}
	same := OverlapCoefficient(a, b, 40)
	if same < 0.8 {
		t.Fatalf("identical distributions overlap %.2f", same)
	}
	disjoint := OverlapCoefficient(a, c, 40)
	if disjoint > 0.05 {
		t.Fatalf("disjoint distributions overlap %.2f", disjoint)
	}
}

// Property: overlap is symmetric and within [0,1].
func TestOverlapProperties(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		var a, b []float64
		for i := 0; i < 100; i++ {
			a = append(a, r.Normal(0, 2))
			b = append(b, r.Normal(1, 2))
		}
		ab := OverlapCoefficient(a, b, 16)
		ba := OverlapCoefficient(b, a, 16)
		return ab >= 0 && ab <= 1 && math.Abs(ab-ba) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestMeanStd(t *testing.T) {
	mean, std := MeanStd([]float64{1, 1, 1})
	if mean != 1 || std != 0 {
		t.Fatal("constant data")
	}
}
