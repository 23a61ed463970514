package experiments

import (
	"fmt"
	"io"

	"advhunter/internal/core"
	"advhunter/internal/detect"
	"advhunter/internal/metrics"
	"advhunter/internal/parallel"
	"advhunter/internal/rng"
	"advhunter/internal/uarch/hpc"
)

// Fig6Point is one (scenario, M) cell: detection F1 over resampled
// validation sets of size M per category.
type Fig6Point struct {
	Scenario string
	M        int
	MeanF1   float64
	StdF1    float64
}

// Fig6Result reproduces Figure 6: AdvHunter F1 (cache-misses, untargeted
// FGSM at the middle strength of the sweep) as a function of the per-category validation
// size M, with mean and standard deviation over independently resampled
// validation sets.
type Fig6Result struct {
	Sizes    []int
	Resample int
	Points   []Fig6Point
}

// Figure6 runs the validation-size sweep. The paper reports saturation
// around M≈30 (S1), M≈40 (S2) and M≈60 (S3, more classes).
func Figure6(opts Options) (*Fig6Result, error) {
	scenarios := []string{"S1", "S2", "S3"}
	resamples := 30
	sizes := []int{5, 10, 20, 30, 40, 60, 80}
	nAE := 120
	if opts.Quick {
		scenarios = []string{"S1"}
		resamples = 6
		sizes = []int{5, 20, 40}
		nAE = 40
	}
	res := &Fig6Result{Sizes: sizes, Resample: resamples}
	for _, id := range scenarios {
		env, err := LoadEnv(id, opts)
		if err != nil {
			return nil, err
		}
		valMeas, err := env.ValidationMeasurements()
		if err != nil {
			return nil, err
		}
		clean, err := env.CleanMeasurements(false)
		if err != nil {
			return nil, err
		}
		ar, err := env.Attack(AttackSpec{Kind: "fgsm", Eps: untargetedEps[1]}, nAE)
		if err != nil {
			return nil, err
		}
		// Bucket validation measurements by predicted class once.
		byClass := make([][]core.Measurement, env.Classes())
		for _, m := range valMeas {
			if m.Pred >= 0 && m.Pred < env.Classes() {
				byClass[m.Pred] = append(byClass[m.Pred], m)
			}
		}
		base := rng.New(env.Scn.Seed ^ 0xf16)
		for si, m := range sizes {
			// Each draw forks its own stream keyed by (size index, draw), so
			// the refits are pure per draw and fan out over the worker pool
			// without changing any number.
			f1s := make([]float64, resamples)
			fitted := make([]bool, resamples)
			parallel.ForEach(opts.Workers, resamples, func(draw int) {
				r := base.Fork(uint64(si)<<32 | uint64(draw))
				// Only the cache-misses GMMs are evaluated, so the template
				// carries just that event — a 10x fit-time saving per draw.
				tpl := core.NewTemplate(env.Classes(), []hpc.Event{hpc.CacheMisses})
				for c := 0; c < env.Classes(); c++ {
					pool := byClass[c]
					if len(pool) == 0 {
						continue
					}
					perm := r.Perm(len(pool))
					take := m
					if take > len(pool) {
						take = len(pool)
					}
					for _, idx := range perm[:take] {
						tpl.Add(pool[idx])
					}
				}
				cfg := detect.DefaultConfig()
				cfg.GMM.Seed = uint64(draw)*7919 + 13
				det, err := detect.Fit("gmm", tpl, cfg)
				if err != nil {
					return // tiny M can leave categories unmodelled
				}
				f1s[draw] = detect.EvaluateEvent(det, hpc.CacheMisses, clean, ar.Meas, 1).F1()
				fitted[draw] = true
			})
			var kept []float64
			for draw, ok := range fitted {
				if ok {
					kept = append(kept, f1s[draw])
				}
			}
			mean, std := metrics.MeanStd(kept)
			res.Points = append(res.Points, Fig6Point{Scenario: id, M: m, MeanF1: mean, StdF1: std})
		}
	}
	return res, nil
}

// Render writes the series.
func (r *Fig6Result) Render(w io.Writer) {
	heading(w, "Figure 6: F1 (cache-misses) vs per-category validation size M (%d resamples)", r.Resample)
	t := newTable("scenario", "M", "mean F1", "std")
	for _, p := range r.Points {
		t.addf(p.Scenario, fmt.Sprintf("%d", p.M), f4(p.MeanF1), f4(p.StdF1))
	}
	t.render(w)
	fmt.Fprintln(w, "Paper shape: F1 rises with M and saturates near M≈30 (S1), M≈40 (S2); the")
	fmt.Fprintln(w, "43-class S3 needs more (M≈60). Standard deviation shrinks as M grows.")
}
