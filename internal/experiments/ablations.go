package experiments

import (
	"fmt"
	"io"

	"advhunter/internal/core"
	"advhunter/internal/data"
	"advhunter/internal/detect"
	"advhunter/internal/engine"
	"advhunter/internal/metrics"
	"advhunter/internal/parallel"
	"advhunter/internal/uarch/cache"
	"advhunter/internal/uarch/hpc"
)

// ablationSpec is the shared attack workload for the hardware ablations: a
// mid-strength untargeted FGSM on S2.
var ablationSpec = AttackSpec{Kind: "fgsm", Eps: 0.1}

// ablationSources returns the source-image budget for ablation workloads.
func ablationSources(opts Options) int {
	if opts.Quick {
		return 30
	}
	return 100
}

// AblationRow is one configuration's detection outcome.
type AblationRow struct {
	Config string
	Event  hpc.Event
	F1     float64
	Acc    float64
}

// AblationResult is a generic named list of configuration outcomes.
type AblationResult struct {
	Title string
	Note  string
	Rows  []AblationRow
}

// Render writes the ablation table.
func (r *AblationResult) Render(w io.Writer) {
	heading(w, "%s", r.Title)
	t := newTable("configuration", "event", "accuracy", "F1")
	for _, row := range r.Rows {
		t.addf(row.Config, row.Event.String(), pct(row.Acc), f4(row.F1))
	}
	t.render(w)
	if r.Note != "" {
		fmt.Fprintln(w, r.Note)
	}
}

// machineRow is one configuration of a machine sweep: its table label, the
// tag that keys its measurement caches, and its edit of the default machine.
// A row without an edit is the scenario's own measurement stack.
type machineRow struct {
	label string
	tag   string
	edit  func(*engine.MachineConfig)
}

// machineSweep re-measures the ablation workload on each row's machine, refits
// the default detector there — as a defender calibrating on the deployed
// machine would — and scores it on each event.
func machineSweep(opts Options, title, note string, events []hpc.Event, rows []machineRow) (*AblationResult, error) {
	env, err := LoadEnv("S2", opts)
	if err != nil {
		return nil, err
	}
	res := &AblationResult{Title: title + " (S2, " + ablationSpec.String() + ")", Note: note}
	for _, row := range rows {
		v := env
		if row.edit != nil {
			v = env.machine(row.tag, row.edit)
		}
		det, err := v.Detector()
		if err != nil {
			return nil, err
		}
		clean, err := v.CleanMeasurements(ablationSpec.Targeted)
		if err != nil {
			return nil, err
		}
		ar, err := v.Attack(ablationSpec, ablationSources(opts))
		if err != nil {
			return nil, err
		}
		for _, ev := range events {
			conf := detect.EvaluateEvent(det, ev, clean, ar.Meas, opts.Workers)
			res.Rows = append(res.Rows, AblationRow{Config: row.label, Event: ev, F1: conf.F1(), Acc: conf.Accuracy()})
		}
	}
	return res, nil
}

// AblationReplacement sweeps the LLC replacement policy (beyond the paper:
// does the side channel survive non-LRU caches?).
func AblationReplacement(opts Options) (*AblationResult, error) {
	rows := []machineRow{{label: "LLC policy " + cache.LRU.String()}}
	for _, pol := range []cache.Policy{cache.PLRU, cache.SRRIP, cache.Random} {
		rows = append(rows, machineRow{"LLC policy " + pol.String(), "llc-" + pol.String(), func(m *engine.MachineConfig) {
			m.Hierarchy.LLC.Policy = pol
			m.Hierarchy.LLC.Seed = 42
		}})
	}
	return machineSweep(opts, "Ablation: LLC replacement policy vs detection",
		"The signal is traffic-volume driven, so it should survive any reasonable policy.",
		[]hpc.Event{hpc.CacheMisses}, rows)
}

// AblationPrefetch sweeps L1D prefetchers (beyond the paper: prefetching
// perturbs demand-miss counts — does it mask the channel?).
func AblationPrefetch(opts Options) (*AblationResult, error) {
	return machineSweep(opts, "Ablation: L1D prefetcher vs detection",
		"Prefetchers move fills earlier but do not hide value-dependent traffic volume.",
		[]hpc.Event{hpc.CacheMisses}, []machineRow{
			{label: "prefetcher none"},
			{"prefetcher next-line", "pf-next-line", func(m *engine.MachineConfig) {
				m.Hierarchy.L1DPrefetcher = &cache.NextLinePrefetcher{LineB: 64}
			}},
			{"prefetcher stride(2)", "pf-stride(2)", func(m *engine.MachineConfig) {
				m.Hierarchy.L1DPrefetcher = &cache.StridePrefetcher{LineB: 64, Degree: 2}
			}},
		})
}

// AblationQuant sweeps the deployed storage precision (beyond the paper:
// how much sparsity must the runtime expose for the channel to work?).
func AblationQuant(opts Options) (*AblationResult, error) {
	var rows []machineRow
	for _, q := range []struct {
		levels int
		name   string
	}{
		{0, "float (exact zeros only)"},
		{127, "int8"},
		{15, "int4"},
	} {
		rows = append(rows, machineRow{q.name, fmt.Sprintf("quant-%d", q.levels), func(m *engine.MachineConfig) {
			m.QuantLevels = q.levels
		}})
	}
	rows = append(rows, machineRow{label: "int3 (default)"})
	return machineSweep(opts, "Ablation: tensor storage precision vs detection",
		"Lower-precision storage zeroes more activations, widening the data-flow side channel.",
		[]hpc.Event{hpc.CacheMisses}, rows)
}

// AblationBranchy compares SIMD (branchless) kernels against naive scalar
// kernels: with per-element branches, branch-misses become a side channel of
// their own (beyond the paper).
func AblationBranchy(opts Options) (*AblationResult, error) {
	return machineSweep(opts, "Ablation: kernel style vs branch-miss leakage",
		"Production SIMD kernels leave branch-misses uninformative (the paper's finding);\n"+
			"naively compiled scalar kernels leak the activation pattern through the predictor too.",
		[]hpc.Event{hpc.BranchMisses, hpc.CacheMisses}, []machineRow{
			{label: "SIMD kernels (default)"},
			{"scalar branchy kernels", "branchy-true", func(m *engine.MachineConfig) { m.BranchyKernels = true }},
		})
}

// NoisePoint is one cell of the measurement-protocol sweep.
type NoisePoint struct {
	NoiseScale float64
	R          int
	F1         float64
}

// NoiseAblationResult sweeps background-noise intensity and the repetition
// count R, quantifying why the paper repeats each measurement (R=10).
type NoiseAblationResult struct {
	Points []NoisePoint
}

// AblationNoise runs the protocol sweep on cached noise-free counts.
func AblationNoise(opts Options) (*NoiseAblationResult, error) {
	env, err := LoadEnv("S2", opts)
	if err != nil {
		return nil, err
	}
	truth := env.truth()
	valTruth, err := truth.ValidationMeasurements()
	if err != nil {
		return nil, err
	}
	testTruth, err := truth.TestMeasurements()
	if err != nil {
		return nil, err
	}
	aeTruth, err := truth.Attack(ablationSpec, ablationSources(opts))
	if err != nil {
		return nil, err
	}
	scales := []float64{0.5, 1, 2, 4}
	repeats := []int{1, 5, 10, 20}
	if opts.Quick {
		scales = []float64{1, 4}
		repeats = []int{1, 10}
	}
	type cell struct {
		sc  float64
		rep int
	}
	var cells []cell
	for _, sc := range scales {
		for _, rep := range repeats {
			cells = append(cells, cell{sc, rep})
		}
	}
	// Every grid cell refits its own detector from independently resampled
	// truth, so the sweep fans out per cell; the inner passes stay serial.
	type outcome struct {
		p   NoisePoint
		err error
	}
	outs := parallel.Map(opts.Workers, cells, func(_ int, c cell) outcome {
		noise := hpc.DefaultNoise()
		noise.Rel *= c.sc
		for e := range noise.EventRel {
			noise.EventRel[e] *= c.sc
			noise.AbsFloor[e] *= c.sc
		}
		seed := uint64(c.sc*1000) ^ uint64(c.rep)<<8
		val := resampleNoise(valTruth, noise, c.rep, seed^1, 1)
		tpl := TemplateFromMeasurements(val, env.Classes(), env.Scn.TemplateM, hpc.AllEvents())
		det, err := detect.Fit("gmm", tpl, detect.DefaultConfig())
		if err != nil {
			return outcome{err: err}
		}
		clean := env.negatives(resampleNoise(testTruth, noise, c.rep, seed^2, 1), ablationSpec.Targeted)
		adv := resampleNoise(aeTruth.Meas, noise, c.rep, seed^3, 1)
		conf := detect.EvaluateEvent(det, hpc.CacheMisses, clean, adv, 1)
		return outcome{p: NoisePoint{NoiseScale: c.sc, R: c.rep, F1: conf.F1()}}
	})
	res := &NoiseAblationResult{}
	for _, o := range outs {
		if o.err != nil {
			return nil, o.err
		}
		res.Points = append(res.Points, o.p)
	}
	return res, nil
}

// Render writes the grid.
func (r *NoiseAblationResult) Render(w io.Writer) {
	heading(w, "Ablation: measurement noise scale × repetition count R (S2, %s)", ablationSpec)
	t := newTable("noise scale", "R", "F1 (cache-misses)")
	for _, p := range r.Points {
		t.addf(fmt.Sprintf("%.1fx", p.NoiseScale), fmt.Sprintf("%d", p.R), f4(p.F1))
	}
	t.render(w)
	fmt.Fprintln(w, "Repeating measurements (the paper's R=10) recovers detection quality lost to")
	fmt.Fprintln(w, "background contamination; heavy noise with R=1 degrades the detector most.")
}

// DetectorComparisonResult compares detector variants on the same workload.
type DetectorComparisonResult struct {
	Rows []AblationRow
}

// AblationDetectors compares the paper's BIC-selected GMM against a
// single-Gaussian template, OR-fusion over all events, a joint multivariate
// GMM, and the soft-label confidence baseline the paper argues vendors
// cannot deploy.
func AblationDetectors(opts Options) (*DetectorComparisonResult, error) {
	env, err := LoadEnv("S2", opts)
	if err != nil {
		return nil, err
	}
	n := ablationSources(opts)
	valMeas, err := env.ValidationMeasurements()
	if err != nil {
		return nil, err
	}
	tpl := TemplateFromMeasurements(valMeas, env.Classes(), env.Scn.TemplateM, hpc.AllEvents())
	clean, err := env.CleanMeasurements(ablationSpec.Targeted)
	if err != nil {
		return nil, err
	}
	ar, err := env.Attack(ablationSpec, n)
	if err != nil {
		return nil, err
	}
	res := &DetectorComparisonResult{}
	add := func(name string, ev hpc.Event, conf metrics.Confusion) {
		res.Rows = append(res.Rows, AblationRow{Config: name, Event: ev, F1: conf.F1(), Acc: conf.Accuracy()})
	}

	// Paper detector: BIC-selected GMM on cache-misses.
	det, err := detect.Fit("gmm", tpl, detect.DefaultConfig())
	if err != nil {
		return nil, err
	}
	add("GMM + BIC (paper)", hpc.CacheMisses, detect.EvaluateEvent(det, hpc.CacheMisses, clean, ar.Meas, env.Opts.Workers))

	// Single-Gaussian template.
	cfg1 := detect.DefaultConfig()
	cfg1.ForceK = 1
	det1, err := detect.Fit("gmm", tpl, cfg1)
	if err != nil {
		return nil, err
	}
	add("single Gaussian (K=1)", hpc.CacheMisses, detect.EvaluateEvent(det1, hpc.CacheMisses, clean, ar.Meas, env.Opts.Workers))

	// OR-fusion across all events: the same per-event GMM detector, decided
	// by any channel exceeding its threshold.
	anyFlag := func(v detect.Verdict) bool { return v.AnyFlag() }
	add("OR over all events", hpc.NumEvents, detect.EvaluateBy(det, anyFlag, clean, ar.Meas, env.Opts.Workers))

	// Joint multivariate GMM over the data-cache events.
	cfgF := detect.DefaultConfig()
	cfgF.FusionEvents = []hpc.Event{hpc.CacheMisses, hpc.L1DLoadMisses, hpc.LLCLoadMisses}
	fus, err := detect.Fit("fusion", tpl, cfgF)
	if err != nil {
		return nil, err
	}
	add("multivariate GMM fusion", hpc.NumEvents, detect.Evaluate(fus, clean, ar.Meas, env.Opts.Workers))

	// Soft-label confidence baseline (requires access the threat model
	// forbids; shown to quantify the cost of hard-label-only detection).
	cd, err := detect.Fit("confidence", tpl, detect.DefaultConfig())
	if err != nil {
		return nil, err
	}
	add("confidence baseline (soft-label)", hpc.NumEvents, detect.Evaluate(cd, clean, ar.Meas, env.Opts.Workers))
	return res, nil
}

// Render writes the comparison.
func (r *DetectorComparisonResult) Render(w io.Writer) {
	heading(w, "Ablation: detector variants (S2, %s)", ablationSpec)
	t := newTable("detector", "signal", "accuracy", "F1")
	for _, row := range r.Rows {
		sig := row.Event.String()
		if row.Event == hpc.NumEvents {
			sig = "(multiple)"
		}
		t.addf(row.Config, sig, pct(row.Acc), f4(row.F1))
	}
	t.render(w)
}

// AblationCoRunner sweeps mechanically injected shared-LLC contention from a
// co-located process (beyond the paper: can a noisy neighbour mask the
// channel?). The detector's template is refitted under each contention
// level.
func AblationCoRunner(opts Options) (*AblationResult, error) {
	rows := []machineRow{{label: "idle machine"}}
	for _, c := range []struct {
		name   string
		everyN int
		burst  int
	}{
		{"light co-runner (1/64 accesses)", 64, 2},
		{"busy co-runner (1/16 accesses)", 16, 4},
		{"thrashing co-runner (1/4 accesses)", 4, 8},
	} {
		rows = append(rows, machineRow{c.name, fmt.Sprintf("corun-%d-%d", c.everyN, c.burst), func(m *engine.MachineConfig) {
			m.CoRunner = engine.CoRunnerConfig{EveryN: c.everyN, Burst: c.burst, FootprintB: 1 << 20, Seed: 7}
		}})
	}
	return machineSweep(opts, "Ablation: co-runner LLC contention vs detection",
		"Contention inflates and jitters the LLC counters; the template absorbs the mean\n"+
			"shift, so detection degrades only once the jitter rivals the class signal.",
		[]hpc.Event{hpc.CacheMisses}, rows)
}

// ControlNoiseResult is the random-perturbation control: noisy-but-benign
// inputs must not trip the detector the way adversarial ones do.
type ControlNoiseResult struct {
	Eps            float64
	FlipRate       float64 // how often noise alone changes the prediction
	NoiseFlagRate  float64 // detector flag rate on noisy benign inputs
	CleanFlagRate  float64 // detector flag rate on unmodified clean inputs
	AttackFlagRate float64 // detector flag rate on real AEs (reference)
}

// ControlNoise runs the control experiment.
func ControlNoise(opts Options) (*ControlNoiseResult, error) {
	env, err := LoadEnv("S2", opts)
	if err != nil {
		return nil, err
	}
	det, err := env.Detector()
	if err != nil {
		return nil, err
	}
	n := ablationSources(opts)
	// share is the fraction of ms for which hit holds.
	share := func(ms []core.Measurement, hit func(core.Measurement) bool) float64 {
		if len(ms) == 0 {
			return 0
		}
		k := 0
		for _, m := range ms {
			if hit(m) {
				k++
			}
		}
		return float64(k) / float64(len(ms))
	}
	flagged := func(m core.Measurement) bool { return det.Detect(m).FlaggedBy(hpc.CacheMisses) }

	eps := ablationSpec.Eps
	// The control measures ALL noisy images (not just "successful" ones —
	// noise has no goal).
	noisy := noisyImages(env, eps, n)
	noisyAll, err := env.measureCached(fmt.Sprintf("noisy-all-%g-n%d", eps, n), len(noisy), given(noisy))
	if err != nil {
		return nil, err
	}
	clean, err := env.CleanMeasurements(ablationSpec.Targeted)
	if err != nil {
		return nil, err
	}
	ar, err := env.Attack(ablationSpec, n)
	if err != nil {
		return nil, err
	}
	return &ControlNoiseResult{
		Eps:            eps,
		FlipRate:       share(noisyAll, func(m core.Measurement) bool { return m.Pred != m.TrueLabel }),
		NoiseFlagRate:  share(noisyAll, flagged),
		CleanFlagRate:  share(clean, flagged),
		AttackFlagRate: share(ar.Meas, flagged),
	}, nil
}

// noisyImages perturbs n attack-source images with bounded uniform noise.
func noisyImages(env *Env, eps float64, n int) []data.Sample {
	atk, _ := AttackSpec{Kind: "noise", Eps: eps}.build(0, env.Scn.Seed^0x1234)
	var out []data.Sample
	for _, s := range env.attackSources(false, n) {
		out = append(out, data.Sample{X: atk.Perturb(env.Model, s.X, s.Label), Label: s.Label})
	}
	return out
}

// Render writes the control summary.
func (r *ControlNoiseResult) Render(w io.Writer) {
	heading(w, "Control: bounded random noise (ε=%g) vs the detector (S2)", r.Eps)
	t := newTable("input population", "detector flag rate")
	t.addf("clean test images", pct(r.CleanFlagRate))
	t.addf(fmt.Sprintf("clean + uniform ±%g noise", r.Eps), pct(r.NoiseFlagRate))
	t.addf("adversarial examples (FGSM)", pct(r.AttackFlagRate))
	t.render(w)
	fmt.Fprintf(w, "random noise changed the prediction on %.1f%% of images (vs a gradient attack)\n", 100*r.FlipRate)
	fmt.Fprintln(w, "A sound detector separates 'adversarial' from merely 'noisy': the noise flag")
	fmt.Fprintln(w, "rate should sit near the clean rate and far below the attack rate.")
}
