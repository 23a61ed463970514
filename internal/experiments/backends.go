package experiments

import (
	"fmt"
	"io"

	"advhunter/internal/detect"
	"advhunter/internal/uarch/hpc"
)

// BackendRow is one detector backend's outcome on the shared workload.
type BackendRow struct {
	Backend     string
	Description string
	TPR         float64
	FPR         float64
	Acc         float64
	F1          float64
}

// BackendComparisonResult puts every registered detector backend through the
// identical fit-and-evaluate protocol: same template, same clean negatives,
// same adversarial positives, each backend's own fused decision. It is the
// registry's proof of uniformity — one detect.Fit + detect.Evaluate pair,
// parameterised only by the backend name.
type BackendComparisonResult struct {
	Scenario string
	Attack   string
	Rows     []BackendRow
}

// BackendComparison runs the sweep on the ablation workload (S2, untargeted
// FGSM at the ablation strength).
func BackendComparison(opts Options) (*BackendComparisonResult, error) {
	env, err := LoadEnv("S2", opts)
	if err != nil {
		return nil, err
	}
	clean, err := env.CleanMeasurements(ablationSpec.Targeted)
	if err != nil {
		return nil, err
	}
	ar, err := env.Attack(ablationSpec, ablationSources(opts))
	if err != nil {
		return nil, err
	}
	res := &BackendComparisonResult{Scenario: env.Scn.ID, Attack: ablationSpec.String()}
	cfg := detect.DefaultConfig()
	cfg.FusionEvents = []hpc.Event{hpc.CacheMisses, hpc.L1DLoadMisses, hpc.LLCLoadMisses}
	for _, kind := range detect.Kinds() {
		det, err := env.DetectorKind(kind, cfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: backend %q: %w", kind, err)
		}
		conf := detect.Evaluate(det, clean, ar.Meas, env.Opts.Workers)
		res.Rows = append(res.Rows, BackendRow{
			Backend:     kind,
			Description: detect.Describe(kind),
			TPR:         conf.TPR(),
			FPR:         conf.FPR(),
			Acc:         conf.Accuracy(),
			F1:          conf.F1(),
		})
	}
	return res, nil
}

// Render writes the comparison table.
func (r *BackendComparisonResult) Render(w io.Writer) {
	heading(w, "Backend comparison: every registered detector on %s, %s", r.Scenario, r.Attack)
	t := newTable("backend", "TPR", "FPR", "accuracy", "F1")
	for _, row := range r.Rows {
		t.addf(row.Backend, pct(row.TPR), pct(row.FPR), pct(row.Acc), f4(row.F1))
	}
	t.render(w)
	fmt.Fprintln(w, "All rows run through the same detect.Fit/detect.Evaluate path, selected only")
	fmt.Fprintln(w, "by backend name; each backend decides with its own fused rule.")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "  %-12s %s\n", row.Backend, row.Description)
	}
}
