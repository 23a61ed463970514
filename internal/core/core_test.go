package core

import (
	"testing"

	"advhunter/internal/engine"
	"advhunter/internal/rng"
	"advhunter/internal/uarch/hpc"
)

// TestMeasurerCloneAgrees checks the serving contract: a cloned measurer
// answers MeasureAt(i, x) exactly like the original for any shared index.
func TestMeasurerCloneAgrees(t *testing.T) {
	samples, m := detFixture()
	orig := NewMeasurer(engine.NewDefault(m.Clone()), 42)
	clone := orig.Clone()
	for i, s := range samples[:6] {
		a := orig.MeasureAt(uint64(i), s.X)
		b := clone.MeasureAt(uint64(i), s.X)
		if a.Pred != b.Pred || a.Counts != b.Counts || a.Conf != b.Conf {
			t.Fatalf("clone diverged at index %d", i)
		}
	}
}

// TestMeasurementCarriesConfidence checks that the measured confidence is a
// valid softmax probability of the predicted class.
func TestMeasurementCarriesConfidence(t *testing.T) {
	samples, m := detFixture()
	meas := NewMeasurer(engine.NewDefault(m.Clone()), 42)
	mm := meas.Measure(samples[0].X)
	if mm.Conf <= 0 || mm.Conf > 1 {
		t.Fatalf("confidence %v outside (0, 1]", mm.Conf)
	}
	if mm.TrueLabel != -1 {
		t.Fatalf("online Measure should report TrueLabel -1, got %d", mm.TrueLabel)
	}
}

// TestTemplateColumn checks the 𝒟_c^e extraction used by every per-event
// scorer.
func TestTemplateColumn(t *testing.T) {
	tpl := NewTemplate(2, []hpc.Event{hpc.CacheMisses, hpc.Instructions})
	var a, b hpc.Counts
	a[hpc.CacheMisses], a[hpc.Instructions] = 10, 100
	b[hpc.CacheMisses], b[hpc.Instructions] = 20, 200
	tpl.Add(Measurement{Pred: 1, Counts: a, Conf: 0.9})
	tpl.Add(Measurement{Pred: 1, Counts: b, Conf: 0.8})
	col := tpl.Column(1, hpc.CacheMisses)
	if len(col) != 2 || col[0] != 10 || col[1] != 20 {
		t.Fatalf("cache-miss column = %v", col)
	}
	col = tpl.Column(1, hpc.Instructions)
	if col[0] != 100 || col[1] != 200 {
		t.Fatalf("instructions column = %v", col)
	}
	if len(tpl.Rows[0]) != 0 {
		t.Fatal("class 0 should be empty")
	}
}

// TestTemplateMeasurements checks that Add keeps each measurement whole —
// every event, not only the template's, and its confidence — under its
// predicted category, in input order: detector fitting scores these rows
// through the same code path as online queries.
func TestTemplateMeasurements(t *testing.T) {
	tpl := NewTemplate(3, []hpc.Event{hpc.CacheMisses})
	r := rng.New(7)
	var want []Measurement
	for i := 0; i < 5; i++ {
		var c hpc.Counts
		c[hpc.CacheMisses] = r.Normal(1000, 10)
		c[hpc.Branches] = r.Normal(5000, 50)
		m := Measurement{Pred: 2, TrueLabel: i % 3, Counts: c, Conf: 0.5 + 0.1*float64(i%3)}
		tpl.Add(m)
		want = append(want, m)
	}
	got := tpl.Rows[2]
	if len(got) != len(want) {
		t.Fatalf("got %d measurements, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("measurement %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
	if len(tpl.Rows[0]) != 0 || len(tpl.Rows[1]) != 0 {
		t.Fatal("only category 2 should hold measurements")
	}
}
