package experiments

import (
	"fmt"
	"io"
	"math"

	"advhunter/internal/core"
	"advhunter/internal/detect"
	"advhunter/internal/engine"
	"advhunter/internal/metrics"
	"advhunter/internal/parallel"
	"advhunter/internal/tensor"
	"advhunter/internal/twin"
	"advhunter/internal/uarch/hpc"
)

// TwinProbes is the canonical probe workload for profiling this scenario's
// twin table: the validation pool plus two perturbation rounds — the clean
// manifold's immediate neighbourhood (ε=0.1) and the adversarial-strength
// region (ε=0.5, where targeted FGSM/MIM inputs live). Without the second
// round the table extrapolates exactly where the twin screens hardest.
// TwinBackend and the twin-profile command both profile from this workload,
// so a precomputed table and an on-demand one are interchangeable.
func (e *Env) TwinProbes() []*tensor.Tensor {
	pool := e.ValidationPool()
	return append(twin.Probes(pool, 1, 0.1, e.Scn.Seed^0x7717),
		twin.Probes(pool, 1, 0.5, e.Scn.Seed^0x2ee7)...)
}

// TwinBackend assembles the analytical-twin stack for this scenario: the
// count tables (loaded from tablePath when fresh, profiled over the
// validation pool's perturbed neighbourhood otherwise), the twin measurer
// shadowing e.Meas, and a detector of the given kind calibrated on
// twin-measured validation counts. The twin-calibrated detector matters: the
// table predictions carry a small systematic bias relative to the exact
// simulator, so thresholds fitted on exact counts would misfire on twin
// readings.
func (e *Env) TwinBackend(tablePath string, knots int, kind string, cfg detect.Config) (*core.Measurer, *detect.Fitted, bool, error) {
	tab, loaded, err := twin.LoadOrProfile(tablePath, e.Meas.Engine.Clone(), e.TwinProbes, knots, e.Opts.Workers)
	if err != nil {
		return nil, nil, false, err
	}
	if loaded {
		e.Opts.logf("[%s] twin table loaded (%d layers × %d knots)", e.Scn.ID, len(tab.Layers), tab.Knots)
	} else {
		e.Opts.logf("[%s] twin table profiled from %d probes (%d layers × %d knots)",
			e.Scn.ID, tab.Probes, len(tab.Layers), tab.Knots)
	}
	tm, err := twin.FromMeasurer(e.Meas, tab)
	if err != nil {
		return nil, nil, false, err
	}
	tms := core.MeasureSet(tm, e.ValidationPool())
	tpl := TemplateFromMeasurements(tms, e.Classes(), e.Scn.TemplateM, hpc.AllEvents())
	tdet, err := detect.Fit(kind, tpl, cfg)
	if err != nil {
		return nil, nil, false, err
	}
	return tm, tdet, loaded, nil
}

// TwinEventError is the twin's count-prediction error for one event over the
// evaluation workload, relative to freshly simulated exact counts.
type TwinEventError struct {
	Event   string
	MeanRel float64
	MaxRel  float64
}

// TwinModeRow is the detection quality of one serving mode.
type TwinModeRow struct {
	Mode string
	TPR  float64
	FPR  float64
}

// TwinAccuracyResult validates the analytical twin end to end on scenario
// S2: per-event relative prediction error, and TPR/FPR of twin-only and
// two-tier serving against the exact-only reference on a clean + FGSM + MIM
// workload.
type TwinAccuracyResult struct {
	Scenario       string
	Knots          int
	TableLoaded    bool
	Margin         float64
	Positives      int
	Negatives      int
	Events         []TwinEventError
	Modes          []TwinModeRow
	EscalationRate float64
	// TPRDelta/FPRDelta are |two-tier − exact-only|, the deployment-accuracy
	// headline (acceptance: both within 0.01).
	TPRDelta float64
	FPRDelta float64
}

// twinItem is one evaluation input with its exact measurement and the noise
// index that produced it (so the twin reading shares the same noise draw).
type twinItem struct {
	x     *tensor.Tensor
	idx   uint64
	exact core.Measurement
	adv   bool
}

// TwinAccuracy runs the twin-accuracy experiment.
func TwinAccuracy(opts Options) (*TwinAccuracyResult, error) {
	env, err := LoadEnv("S2", opts)
	if err != nil {
		return nil, err
	}
	det, err := env.Detector()
	if err != nil {
		return nil, err
	}
	knots := twin.DefaultKnots
	tm, tdet, loaded, err := env.TwinBackend(
		env.cachePath(fmt.Sprintf("twin-k%d.gob", knots)), knots, "gmm", detect.DefaultConfig())
	if err != nil {
		return nil, err
	}

	// Negatives: clean test images predicted as the target class — measured
	// with noise index = position in the test split, exactly how
	// TestMeasurements keyed them, so the twin readings share the noise draw.
	testMs, err := env.TestMeasurements()
	if err != nil {
		return nil, err
	}
	var items []twinItem
	for i, s := range env.Data().Test {
		m := testMs[i]
		if m.Pred == env.Scn.TargetClass && m.TrueLabel == env.Scn.TargetClass {
			items = append(items, twinItem{x: s.X, idx: uint64(i), exact: m})
		}
	}
	negatives := len(items)

	// Positives: successful targeted FGSM and MIM examples, with the same
	// (position-keyed) noise indices the cached measurements used.
	n := 120
	if opts.Quick {
		n = 40
	}
	for _, spec := range []AttackSpec{
		{Kind: "fgsm", Eps: 0.5, Targeted: true},
		{Kind: "mim", Eps: 0.5, Targeted: true},
	} {
		set, err := env.Craft(spec, n)
		if err != nil {
			return nil, err
		}
		meas, err := env.measureCrafted(set, n)
		if err != nil {
			return nil, err
		}
		samples := set.samples()
		for j := range samples {
			items = append(items, twinItem{x: samples[j].X, idx: uint64(j), exact: meas[j], adv: true})
		}
	}
	if negatives == 0 || len(items) == negatives {
		return nil, fmt.Errorf("experiments: twin-accuracy workload degenerate (%d negatives, %d items)", negatives, len(items))
	}

	// Twin readings and fresh exact truths, in parallel over replicas.
	type evalOut struct {
		twinM     core.Measurement
		predicted hpc.Counts // twin's noise-free prediction
		truth     hpc.Counts // exact simulator's noise-free counts
	}
	workers := parallel.Workers(env.Opts.Workers, len(items))
	twins := make([]*core.Measurer, workers)
	engines := make([]*engine.Engine, workers)
	twins[0] = tm
	engines[0] = env.Meas.Engine
	for w := 1; w < workers; w++ {
		twins[w] = tm.Clone()
		engines[w] = env.Meas.Engine.Clone()
	}
	env.Opts.logf("[%s] twin-measuring %d items (%d clean, %d adversarial)…",
		env.Scn.ID, len(items), negatives, len(items)-negatives)
	outs := parallel.MapWorkers(workers, items, func(w, _ int, it twinItem) evalOut {
		pred := twins[w].Truth(it.x)
		_, truth := engines[w].Infer(it.x)
		return evalOut{twinM: twins[w].MeasureAt(it.idx, it.x), predicted: pred.Counts, truth: truth}
	})

	res := &TwinAccuracyResult{
		Scenario:    env.Scn.ID,
		Knots:       knots,
		TableLoaded: loaded,
		Margin:      detect.DefaultMargin,
		Positives:   len(items) - negatives,
		Negatives:   negatives,
	}
	for _, ev := range hpc.CoreEvents() {
		e := TwinEventError{Event: ev.String()}
		for _, o := range outs {
			rel := math.Abs(o.predicted.Get(ev)-o.truth.Get(ev)) / math.Max(o.truth.Get(ev), 1)
			e.MeanRel += rel
			if rel > e.MaxRel {
				e.MaxRel = rel
			}
		}
		e.MeanRel /= float64(len(outs))
		res.Events = append(res.Events, e)
	}

	// Verdicts per mode. The two-tier rule is the serve auto tier's at its
	// default margin, so the experiment validates the deployment
	// configuration: the twin decides unless its verdict sits inside the
	// uncertainty band, in which case the exact verdict stands.
	var exactC, twinC, tierC metrics.Confusion
	escalated := 0
	for i, it := range items {
		exactV := det.Detect(it.exact)
		twinV := tdet.Detect(outs[i].twinM)
		tierV := twinV
		if tdet.Uncertain(twinV, detect.DefaultMargin) {
			tierV = exactV
			escalated++
		}
		exactC.Add(it.adv, exactV.Fused)
		twinC.Add(it.adv, twinV.Fused)
		tierC.Add(it.adv, tierV.Fused)
	}
	res.EscalationRate = float64(escalated) / float64(len(items))
	res.Modes = []TwinModeRow{
		{Mode: "exact-only", TPR: exactC.TPR(), FPR: exactC.FPR()},
		{Mode: "twin-only", TPR: twinC.TPR(), FPR: twinC.FPR()},
		{Mode: "two-tier", TPR: tierC.TPR(), FPR: tierC.FPR()},
	}
	res.TPRDelta = math.Abs(tierC.TPR() - exactC.TPR())
	res.FPRDelta = math.Abs(tierC.FPR() - exactC.FPR())
	return res, nil
}

// Render writes the twin-accuracy report.
func (r *TwinAccuracyResult) Render(w io.Writer) {
	heading(w, "Twin accuracy: analytical twin vs exact simulator, %s (%d knots, margin %.2f)",
		r.Scenario, r.Knots, r.Margin)
	fmt.Fprintf(w, "Workload: %d clean negatives, %d adversarial positives (targeted FGSM + MIM ε=0.5).\n",
		r.Negatives, r.Positives)
	et := newTable("event", "mean rel err", "max rel err")
	for _, e := range r.Events {
		et.addf(e.Event, f4(e.MeanRel), f4(e.MaxRel))
	}
	et.render(w)
	mt := newTable("mode", "TPR", "FPR")
	for _, m := range r.Modes {
		mt.addf(m.Mode, pct(m.TPR), pct(m.FPR))
	}
	mt.render(w)
	fmt.Fprintf(w, "Two-tier escalation rate %.1f%%; |two-tier − exact| TPR %.4f, FPR %.4f (acceptance: ≤ 0.01).\n",
		100*r.EscalationRate, r.TPRDelta, r.FPRDelta)
}
