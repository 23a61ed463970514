package experiments

import (
	"fmt"
	"io"

	"advhunter/internal/core"
	"advhunter/internal/metrics"
	"advhunter/internal/uarch/hpc"
)

// EventDistribution summarises one HPC event's clean and adversarial
// measurement distributions — the data behind the paper's histogram panels.
type EventDistribution struct {
	Event      hpc.Event
	Clean, Adv metrics.Summary
	Overlap    float64 // histogram overlap: 1 = indistinguishable
	SigmaGap   float64 // (adv mean − clean mean) / clean std
}

// distributionsOf computes per-event summaries for clean vs adversarial
// measurement sets.
func distributionsOf(events []hpc.Event, clean, adv []core.Measurement) []EventDistribution {
	out := make([]EventDistribution, 0, len(events))
	for _, e := range events {
		var cv, av []float64
		for _, m := range clean {
			cv = append(cv, m.Counts.Get(e))
		}
		for _, m := range adv {
			av = append(av, m.Counts.Get(e))
		}
		cs, as := metrics.Summarize(cv), metrics.Summarize(av)
		gap := 0.0
		if cs.Std > 0 {
			gap = (as.Mean - cs.Mean) / cs.Std
		}
		out = append(out, EventDistribution{
			Event:    e,
			Clean:    cs,
			Adv:      as,
			Overlap:  metrics.OverlapCoefficient(cv, av, 24),
			SigmaGap: gap,
		})
	}
	return out
}

// renderDistributions writes the shared distribution table.
func renderDistributions(w io.Writer, dists []EventDistribution) {
	t := newTable("HPC event", "clean mean±std", "AE mean±std", "overlap", "gap (σ)")
	for _, d := range dists {
		t.addf(d.Event.String(),
			fmt.Sprintf("%.0f ± %.0f", d.Clean.Mean, d.Clean.Std),
			fmt.Sprintf("%.0f ± %.0f", d.Adv.Mean, d.Adv.Std),
			fmt.Sprintf("%.3f", d.Overlap),
			fmt.Sprintf("%+.1f", d.SigmaGap))
	}
	t.render(w)
}

// Fig3Result reproduces Figure 3: distributions of branches, branch-misses,
// cache-references and cache-misses for clean inputs and corresponding AEs
// in scenario S2 under targeted FGSM with ε=0.5.
type Fig3Result struct {
	Spec          AttackSpec
	TargetedAcc   float64
	Distributions []EventDistribution
}

// Figure3 measures and summarises the four distributions.
func Figure3(opts Options) (*Fig3Result, error) {
	env, err := LoadEnv("S2", opts)
	if err != nil {
		return nil, err
	}
	spec := AttackSpec{Kind: "fgsm", Eps: 0.5, Targeted: true}
	n := 120
	if opts.Quick {
		n = 40
	}
	ar, err := env.Attack(spec, n)
	if err != nil {
		return nil, err
	}
	clean, err := env.CleanMeasurements(spec.Targeted)
	if err != nil {
		return nil, err
	}
	events := []hpc.Event{hpc.Branches, hpc.BranchMisses, hpc.CacheReferences, hpc.CacheMisses}
	return &Fig3Result{
		Spec:          spec,
		TargetedAcc:   ar.SuccessRate,
		Distributions: distributionsOf(events, clean, ar.Meas),
	}, nil
}

// Render writes the summary.
func (r *Fig3Result) Render(w io.Writer) {
	heading(w, "Figure 3: HPC event distributions, S2, %s (targeted adversarial accuracy %.2f%%)",
		r.Spec, 100*r.TargetedAcc)
	renderDistributions(w, r.Distributions)
	fmt.Fprintln(w, "Paper shape: branches/branch-misses overlap almost completely; cache-references")
	fmt.Fprintln(w, "overlap slightly less; cache-misses separate clearly.")
}

// Fig5Result reproduces Figure 5: distributions of the four cache-miss
// sub-events in S2 under untargeted FGSM at the lowest attack strength.
type Fig5Result struct {
	Spec          AttackSpec
	Distributions []EventDistribution
}

// Figure5 measures and summarises the cache-event distributions.
func Figure5(opts Options) (*Fig5Result, error) {
	env, err := LoadEnv("S2", opts)
	if err != nil {
		return nil, err
	}
	spec := AttackSpec{Kind: "fgsm", Eps: untargetedEps[0], Targeted: false}
	n := 120
	if opts.Quick {
		n = 40
	}
	ar, err := env.Attack(spec, n)
	if err != nil {
		return nil, err
	}
	clean, err := env.CleanMeasurements(spec.Targeted)
	if err != nil {
		return nil, err
	}
	return &Fig5Result{
		Spec:          spec,
		Distributions: distributionsOf(hpc.CacheAblationEvents(), clean, ar.Meas),
	}, nil
}

// Render writes the summary.
func (r *Fig5Result) Render(w io.Writer) {
	heading(w, "Figure 5: cache-miss sub-event distributions, S2, %s", r.Spec)
	renderDistributions(w, r.Distributions)
	fmt.Fprintln(w, "Paper shape: L1-icache-load-misses overlap heavily (program flow is input-")
	fmt.Fprintln(w, "independent); the data-side events separate to varying degrees.")
}
