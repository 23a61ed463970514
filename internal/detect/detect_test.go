package detect

import (
	"strings"
	"testing"

	"advhunter/internal/core"
	"advhunter/internal/rng"
	"advhunter/internal/uarch/hpc"
)

// synthEvents are the two channels of the synthetic fixtures: cache-misses
// separates the classes, instructions does not.
var synthEvents = []hpc.Event{hpc.CacheMisses, hpc.Instructions}

// synthTemplate builds a clean template with per-class cache-miss levels
// 1000, 1200, 1400, … (σ=10) and a class-independent instruction count.
func synthTemplate(classes, perClass int, seed uint64) *core.Template {
	r := rng.New(seed)
	t := core.NewTemplate(classes, synthEvents)
	for c := 0; c < classes; c++ {
		for i := 0; i < perClass; i++ {
			var counts hpc.Counts
			counts[hpc.CacheMisses] = r.Normal(1000+200*float64(c), 10)
			counts[hpc.Instructions] = r.Normal(5e6, 5e4)
			t.Add(core.Measurement{Pred: c, TrueLabel: c, Counts: counts, Conf: 0.9})
		}
	}
	return t
}

// synthMeasurement builds one query for class c with the given cache-miss
// level; instructions stay at the benign level.
func synthMeasurement(r *rng.Rand, c int, cmMean float64) core.Measurement {
	var counts hpc.Counts
	counts[hpc.CacheMisses] = r.Normal(cmMean, 10)
	counts[hpc.Instructions] = r.Normal(5e6, 5e4)
	return core.Measurement{Pred: c, TrueLabel: c, Counts: counts, Conf: 0.9}
}

func mustFit(t *testing.T, kind string, tpl *core.Template, cfg Config) *Fitted {
	t.Helper()
	d, err := Fit(kind, tpl, cfg)
	if err != nil {
		t.Fatalf("Fit(%q): %v", kind, err)
	}
	return d
}

func TestRegistryHasAllBackends(t *testing.T) {
	want := []string{"confidence", "fusion", "gauss", "gmm", "kde", "knn"}
	got := Kinds()
	if len(got) != len(want) {
		t.Fatalf("Kinds() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Kinds() = %v, want %v", got, want)
		}
	}
	for _, k := range want {
		if Describe(k) == "" {
			t.Fatalf("backend %q has no description", k)
		}
		if _, ok := Lookup(k); !ok {
			t.Fatalf("Lookup(%q) missed", k)
		}
	}
	if _, ok := Lookup("nope"); ok {
		t.Fatal("Lookup of unknown backend succeeded")
	}
}

func TestFitUnknownBackend(t *testing.T) {
	tpl := synthTemplate(2, 20, 1)
	if _, err := Fit("nope", tpl, DefaultConfig()); err == nil || !strings.Contains(err.Error(), "unknown backend") {
		t.Fatalf("err = %v, want unknown-backend error", err)
	}
}

func TestFitRejectsEmptyTemplate(t *testing.T) {
	tpl := core.NewTemplate(3, synthEvents)
	for _, kind := range Kinds() {
		if _, err := Fit(kind, tpl, DefaultConfig()); err == nil {
			t.Fatalf("backend %q fitted an empty template", kind)
		}
	}
}

// TestEveryBackendSeparatesTheSyntheticWorkload: each backend, through the
// same Fit/Detect path, must flag far-off cache-miss readings and pass
// benign ones on its own fused decision. The confidence backend is exempt
// from the separation requirement — its channel never sees the counters —
// but must still run and stay silent on benign confidences.
func TestEveryBackendSeparatesTheSyntheticWorkload(t *testing.T) {
	tpl := synthTemplate(3, 60, 7)
	r := rng.New(99)
	var clean, adv []core.Measurement
	for i := 0; i < 50; i++ {
		clean = append(clean, synthMeasurement(r, 1, 1200))
		adv = append(adv, synthMeasurement(r, 1, 1800))
	}
	for _, kind := range Kinds() {
		d := mustFit(t, kind, tpl, DefaultConfig())
		if d.Kind() != kind {
			t.Fatalf("Kind() = %q, want %q", d.Kind(), kind)
		}
		conf := Evaluate(d, clean, adv, 0)
		if conf.Total() != len(clean)+len(adv) {
			t.Fatalf("%s: scored %d of %d", kind, conf.Total(), len(clean)+len(adv))
		}
		if kind == "confidence" {
			if conf.FPR() > 0.1 {
				t.Fatalf("confidence: FPR %.2f on identical benign confidences", conf.FPR())
			}
			continue
		}
		if f1 := conf.F1(); f1 < 0.9 {
			t.Fatalf("%s: F1 %.3f < 0.9 on a trivially separable workload (%v)", kind, f1, conf)
		}
	}
}

// TestEvaluateEventPerChannel: the discriminative event scores high, the
// uninformative one low — the Table 2 protocol on synthetic data.
func TestEvaluateEventPerChannel(t *testing.T) {
	tpl := synthTemplate(2, 60, 3)
	d := mustFit(t, "gmm", tpl, DefaultConfig())
	r := rng.New(5)
	var clean, adv []core.Measurement
	for i := 0; i < 50; i++ {
		clean = append(clean, synthMeasurement(r, 0, 1000))
		adv = append(adv, synthMeasurement(r, 0, 1600))
	}
	cm := EvaluateEvent(d, hpc.CacheMisses, clean, adv, 0)
	if cm.Total() != 100 {
		t.Fatalf("cache-misses evaluation scored %d decisions", cm.Total())
	}
	if cm.F1() < 0.9 {
		t.Fatalf("cache-misses F1 %.3f, want >= 0.9 (%v)", cm.F1(), cm)
	}
	ins := EvaluateEvent(d, hpc.Instructions, clean, adv, 0)
	if ins.F1() > 0.3 {
		t.Fatalf("instructions F1 %.3f, want <= 0.3 — it carries no signal", ins.F1())
	}
	// Events outside the detector never flag.
	none := EvaluateEvent(d, hpc.BranchMisses, clean, adv, 0)
	if none.TP != 0 || none.FP != 0 {
		t.Fatalf("absent channel flagged: %v", none)
	}
}

func TestDetectUnmodelledClassNeverFlags(t *testing.T) {
	tpl := synthTemplate(3, 30, 11)
	// Class 2 gets too few rows to model.
	tpl.Rows[2] = tpl.Rows[2][:2]
	for _, kind := range Kinds() {
		d := mustFit(t, kind, tpl, DefaultConfig())
		r := rng.New(1)
		v := d.Detect(synthMeasurement(r, 2, 1e9))
		if v.Modelled || v.Fused || v.AnyFlag() {
			t.Fatalf("%s: unmodelled class flagged: %+v", kind, v)
		}
		// Out-of-range predictions are equally silent.
		for _, pred := range []int{-1, 3, 99} {
			q := synthMeasurement(r, 0, 1e9)
			q.Pred = pred
			if v := d.Detect(q); v.Modelled || v.Fused {
				t.Fatalf("%s: out-of-range class %d flagged", kind, pred)
			}
		}
	}
}

// TestMinTemplateRowsBoundary pins canModel's cut-off: under every backend
// a category with 3 template rows is unmodelled and never flags, and one
// with 4 rows is modelled and flags a far-off reading (the confidence
// backend never sees the counters, so it only has to model it).
func TestMinTemplateRowsBoundary(t *testing.T) {
	tpl := synthTemplate(3, 30, 13)
	tpl.Rows[1] = tpl.Rows[1][:4]
	tpl.Rows[2] = tpl.Rows[2][:3]
	for _, kind := range Kinds() {
		d := mustFit(t, kind, tpl, DefaultConfig())
		if got := d.ModelledClasses(); got != 2 {
			t.Fatalf("%s: %d modelled categories, want 2", kind, got)
		}
		r := rng.New(3)
		if v := d.Detect(synthMeasurement(r, 2, 1e9)); v.Modelled || v.Fused || v.AnyFlag() {
			t.Fatalf("%s: 3-row category modelled or flagged: %+v", kind, v)
		}
		v := d.Detect(synthMeasurement(r, 1, 1e9))
		if !v.Modelled || (kind != "confidence" && !v.Fused) {
			t.Fatalf("%s: 4-row category unmodelled or silent: %+v", kind, v)
		}
	}
}

func TestThreeSigmaFalsePositiveRateLow(t *testing.T) {
	tpl := synthTemplate(2, 80, 29)
	d := mustFit(t, "gmm", tpl, DefaultConfig())
	r := rng.New(31)
	flagged := 0
	const n = 200
	for i := 0; i < n; i++ {
		if d.Detect(synthMeasurement(r, 0, 1000)).FlaggedBy(hpc.CacheMisses) {
			flagged++
		}
	}
	if rate := float64(flagged) / n; rate > 0.1 {
		t.Fatalf("3σ false-positive rate %.2f on in-distribution queries", rate)
	}
}

// TestForceKMatchesGaussBaseline: a ForceK=1 GMM and the gauss backend model
// the same distribution, so their decisions agree on a clearly separable
// workload even though their score scales differ.
func TestForceKMatchesGaussBaseline(t *testing.T) {
	tpl := synthTemplate(2, 60, 41)
	cfg := DefaultConfig()
	cfg.ForceK = 1
	g1 := mustFit(t, "gmm", tpl, cfg)
	ga := mustFit(t, "gauss", tpl, DefaultConfig())
	r := rng.New(43)
	agree, total := 0, 0
	for i := 0; i < 60; i++ {
		for _, level := range []float64{1000, 1700} {
			q := synthMeasurement(r, 0, level)
			a := g1.Detect(q).FlaggedBy(hpc.CacheMisses)
			b := ga.Detect(q).FlaggedBy(hpc.CacheMisses)
			total++
			if a == b {
				agree++
			}
		}
	}
	// Score scales differ (EM-fit NLL vs closed-form Mahalanobis), so
	// thresholds land at slightly different quantiles; demand near-total
	// agreement rather than bit-exactness.
	if rate := float64(agree) / float64(total); rate < 0.9 {
		t.Fatalf("ForceK=1 gmm and gauss agree on only %.0f%% of queries", 100*rate)
	}
}

func TestGMMConfigPropagates(t *testing.T) {
	tpl := synthTemplate(2, 40, 47)
	a := mustFit(t, "gmm", tpl, DefaultConfig())
	cfg := DefaultConfig()
	cfg.GMM.Seed = 999
	b := mustFit(t, "gmm", tpl, cfg)
	// Different EM seeds may land different local optima; the detectors must
	// at least be independently usable. Same seed → identical scores.
	c := mustFit(t, "gmm", tpl, DefaultConfig())
	q := synthMeasurement(rng.New(1), 0, 1100)
	va, vb, vc := a.Detect(q), b.Detect(q), c.Detect(q)
	if va.Scores[0] != vc.Scores[0] {
		t.Fatalf("same config produced different scores: %g vs %g", va.Scores[0], vc.Scores[0])
	}
	_ = vb // the reseeded fit just has to complete
}

func TestFusionBackendRespectsEventSubset(t *testing.T) {
	tpl := synthTemplate(2, 60, 53)
	cfg := DefaultConfig()
	cfg.FusionEvents = []hpc.Event{hpc.CacheMisses}
	d := mustFit(t, "fusion", tpl, cfg)
	if got := d.Channels(); len(got) != 1 || got[0] != "fusion" {
		t.Fatalf("fusion channels = %v", got)
	}
	r := rng.New(59)
	var clean, adv []core.Measurement
	for i := 0; i < 50; i++ {
		clean = append(clean, synthMeasurement(r, 0, 1000))
		adv = append(adv, synthMeasurement(r, 0, 1700))
	}
	if f1 := Evaluate(d, clean, adv, 0).F1(); f1 < 0.9 {
		t.Fatalf("fusion-on-subset F1 %.3f", f1)
	}
	// An event absent from the template is a fit error, not a panic.
	bad := DefaultConfig()
	bad.FusionEvents = []hpc.Event{hpc.BranchMisses}
	if _, err := Fit("fusion", tpl, bad); err == nil {
		t.Fatal("expected error for fusion event missing from template")
	}
}

func TestConfidenceBackendFlagsLowConfidence(t *testing.T) {
	tpl := synthTemplate(2, 60, 61)
	d := mustFit(t, "confidence", tpl, DefaultConfig())
	r := rng.New(67)
	sure := synthMeasurement(r, 0, 1000)
	sure.Conf = 0.9
	unsure := synthMeasurement(r, 0, 1000)
	unsure.Conf = 1e-6
	if d.Detect(sure).Fused {
		t.Fatal("confidence backend flagged a high-confidence input")
	}
	if !d.Detect(unsure).Fused {
		t.Fatal("confidence backend passed a near-zero-confidence input")
	}
}

func TestVerdictHelpers(t *testing.T) {
	tpl := synthTemplate(2, 40, 71)
	d := mustFit(t, "gmm", tpl, DefaultConfig())
	v := d.Detect(synthMeasurement(rng.New(73), 0, 1000))
	if v.Channels[0] != hpc.CacheMisses.String() {
		t.Fatalf("channel 0 is %q, want cache-misses", v.Channels[0])
	}
	if v.FlaggedBy(hpc.BranchMisses) {
		t.Fatal("FlaggedBy on an absent channel")
	}
	if len(v.Channels) != len(synthEvents) {
		t.Fatalf("verdict channels %v", v.Channels)
	}
	// The decision channel follows the config.
	cfg := DefaultConfig()
	cfg.DecisionEvent = hpc.Instructions
	d2 := mustFit(t, "gmm", tpl, cfg)
	var q core.Measurement
	q = synthMeasurement(rng.New(79), 0, 1000)
	q.Counts[hpc.Instructions] = 9e9 // wildly anomalous instructions only
	v2 := d2.Detect(q)
	if !v2.FlaggedBy(hpc.Instructions) || !v2.Fused {
		t.Fatalf("decision-event override ignored: %+v", v2)
	}
}

func TestEvaluateWorkerIndependence(t *testing.T) {
	tpl := synthTemplate(3, 50, 83)
	d := mustFit(t, "gmm", tpl, DefaultConfig())
	r := rng.New(89)
	var clean, adv []core.Measurement
	for i := 0; i < 40; i++ {
		clean = append(clean, synthMeasurement(r, i%3, 1000+200*float64(i%3)))
		adv = append(adv, synthMeasurement(r, i%3, 1900))
	}
	base := Evaluate(d, clean, adv, 1)
	for _, workers := range []int{2, 8} {
		if got := Evaluate(d, clean, adv, workers); got != base {
			t.Fatalf("workers=%d changed the confusion: %v vs %v", workers, got, base)
		}
	}
}
