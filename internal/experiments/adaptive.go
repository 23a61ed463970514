package experiments

import (
	"fmt"
	"io"

	"advhunter/internal/attack"
	"advhunter/internal/data"
	"advhunter/internal/detect"
	"advhunter/internal/tensor"
	"advhunter/internal/uarch/hpc"
)

// AdaptiveRow is one stealth-weight setting of the adaptive attacker.
type AdaptiveRow struct {
	Lambda      float64
	SuccessRate float64
	// FeatureDist is the mean distance of successful AEs from the target
	// class's typical feature (the attacker's stealth objective).
	FeatureDist float64
	F1          float64
	Recall      float64
}

// AdaptiveResult sweeps an AdvHunter-aware attacker that trades attack
// strength for data-flow stealth (beyond the paper, which assumes a
// detector-oblivious adversary). It charts the detector's limits: as λ
// grows the adversary imitates benign data flow and recall must fall —
// while the attack itself gets harder to land.
type AdaptiveResult struct {
	Eps  float64
	Rows []AdaptiveRow
}

// AblationAdaptive runs the sweep on S2.
func AblationAdaptive(opts Options) (*AdaptiveResult, error) {
	env, err := LoadEnv("S2", opts)
	if err != nil {
		return nil, err
	}
	det, err := env.Detector()
	if err != nil {
		return nil, err
	}
	clean, err := env.CleanMeasurements(true)
	if err != nil {
		return nil, err
	}
	// Target-class exemplars (the attacker is white-box: it can source
	// clean target images).
	var exemplars []*tensor.Tensor
	for _, s := range env.Data().Train {
		if s.Label == env.Scn.TargetClass {
			exemplars = append(exemplars, s.X)
		}
		if len(exemplars) == 10 {
			break
		}
	}
	const eps = 0.5
	lambdas := []float64{0, 1, 5, 20}
	n := 80
	if opts.Quick {
		lambdas = []float64{0, 5}
		n = 24
	}
	res := &AdaptiveResult{Eps: eps}
	for _, lambda := range lambdas {
		atk, err := attack.NewAdaptivePGD(env.Model, eps, env.Scn.TargetClass, lambda, exemplars)
		if err != nil {
			return nil, err
		}
		key := fmt.Sprintf("adaptive-%g-n%d", lambda, n)
		// The crafted set is cached like any other attack workload.
		var succ []data.Sample
		var successRate float64
		path := env.cachePath("aes-" + key + ".gob")
		var cached craftedSet
		if path != "" && loadGob(path, &cached) == nil {
			succ, successRate = cached.samples(), cached.SuccessRate
		} else {
			sources := env.attackSources(true, n)
			env.Opts.logf("[%s] crafting adaptive PGD λ=%g on %d sources…", env.Scn.ID, lambda, len(sources))
			crafted := attack.Craft(env.Model, atk, sources)
			succ, successRate = attack.Successful(atk, crafted), crafted.SuccessRate
			if path != "" {
				set := craftedSet{Spec: AttackSpec{Kind: "adaptive", Eps: eps, Targeted: true},
					SuccessRate: crafted.SuccessRate, ModelAccuracy: crafted.ModelAccuracy,
					Successful: toDTOs(succ)}
				if err := saveGob(path, &set); err != nil {
					return nil, err
				}
			}
		}
		meas, err := env.measureCached("ae-"+key, len(succ), given(succ))
		if err != nil {
			return nil, err
		}
		conf := detect.EvaluateEvent(det, hpc.CacheMisses, clean, meas, env.Opts.Workers)
		res.Rows = append(res.Rows, AdaptiveRow{
			Lambda:      lambda,
			SuccessRate: successRate,
			FeatureDist: meanFeatureDist(atk, succ),
			F1:          conf.F1(),
			Recall:      conf.Recall(),
		})
	}
	return res, nil
}

// meanFeatureDist averages the attacker's stealth objective over images.
func meanFeatureDist(atk *attack.AdaptivePGD, samples []data.Sample) float64 {
	if len(samples) == 0 {
		return 0
	}
	sum := 0.0
	for _, s := range samples {
		sum += atk.FeatureDistance(s.X)
	}
	return sum / float64(len(samples))
}

// Render writes the sweep.
func (r *AdaptiveResult) Render(w io.Writer) {
	heading(w, "Extension: AdvHunter-aware adaptive attacker (S2, PGD ε=%g + feature matching)", r.Eps)
	t := newTable("stealth weight λ", "attack success", "feature distance", "detector recall", "F1")
	for _, row := range r.Rows {
		t.addf(fmt.Sprintf("%g", row.Lambda), pct(row.SuccessRate),
			fmt.Sprintf("%.2f", row.FeatureDist), pct(row.Recall), f4(row.F1))
	}
	t.render(w)
	fmt.Fprintln(w, "λ=0 is a plain targeted PGD. The stealth term does shrink the feature distance,")
	fmt.Fprintln(w, "but matching the class centroid in penultimate-feature space does NOT reproduce")
	fmt.Fprintln(w, "the class's typical activation-sparsity pattern in earlier layers — data-flow")
	fmt.Fprintln(w, "detectability is not reduced. The detector's real weak spot is the λ=0 column:")
	fmt.Fprintln(w, "minimal-perturbation iterative attacks stay closer to benign data flow than")
	fmt.Fprintln(w, "single-step attacks, and recall drops accordingly.")
}
