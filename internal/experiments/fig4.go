package experiments

import (
	"fmt"
	"io"

	"advhunter/internal/detect"
	"advhunter/internal/uarch/hpc"
)

// Fig4Point is one (scenario, attack, strength) cell of Figure 4.
type Fig4Point struct {
	Scenario string
	Spec     AttackSpec
	// ModelAccuracy is the model's accuracy on the attacked inputs
	// (untargeted attacks drive it down); SuccessRate is the targeted
	// adversarial accuracy (targeted attacks drive it up).
	ModelAccuracy float64
	SuccessRate   float64
	// F1 is AdvHunter's detection score using cache-misses.
	F1 float64
	// AEs is the number of successful adversarial examples evaluated.
	AEs int
}

// Fig4Result reproduces Figure 4: attack effectiveness and AdvHunter F1
// (cache-misses) across FGSM/PGD/DeepFool × {untargeted, targeted} ×
// strengths × scenarios S1–S3.
type Fig4Result struct {
	Points []Fig4Point
}

// fig4Specs enumerates the attack grid of the figure.
func fig4Specs() []AttackSpec {
	var specs []AttackSpec
	for _, eps := range untargetedEps {
		specs = append(specs, AttackSpec{Kind: "fgsm", Eps: eps})
	}
	for _, eps := range targetedEps {
		specs = append(specs, AttackSpec{Kind: "fgsm", Eps: eps, Targeted: true})
	}
	for _, eps := range untargetedEps {
		specs = append(specs, AttackSpec{Kind: "pgd", Eps: eps})
	}
	for _, eps := range targetedEps {
		specs = append(specs, AttackSpec{Kind: "pgd", Eps: eps, Targeted: true})
	}
	specs = append(specs,
		AttackSpec{Kind: "deepfool"},
		AttackSpec{Kind: "deepfool", Targeted: true},
	)
	return specs
}

// Figure4 runs the full grid.
func Figure4(opts Options) (*Fig4Result, error) {
	scenarios := []string{"S1", "S2", "S3"}
	n := 60
	if opts.Quick {
		scenarios = []string{"S1"}
		n = 24
	}
	res := &Fig4Result{}
	for _, id := range scenarios {
		env, err := LoadEnv(id, opts)
		if err != nil {
			return nil, err
		}
		det, err := env.Detector()
		if err != nil {
			return nil, err
		}
		test, err := env.TestMeasurements()
		if err != nil {
			return nil, err
		}
		for _, spec := range fig4Specs() {
			ar, err := env.Attack(spec, n)
			if err != nil {
				return nil, err
			}
			f1 := 0.0
			if len(ar.Meas) > 0 {
				clean := env.negatives(test, spec.Targeted)
				f1 = detect.EvaluateEvent(det, hpc.CacheMisses, clean, ar.Meas, env.Opts.Workers).F1()
			}
			res.Points = append(res.Points, Fig4Point{
				Scenario:      id,
				Spec:          spec,
				ModelAccuracy: ar.ModelAccuracy,
				SuccessRate:   ar.SuccessRate,
				F1:            f1,
				AEs:           len(ar.Meas),
			})
		}
	}
	return res, nil
}

// Render writes the figure's series as a table.
func (r *Fig4Result) Render(w io.Writer) {
	heading(w, "Figure 4: attack effectiveness and AdvHunter F1 (cache-misses) across scenarios")
	t := newTable("scenario", "attack", "model acc under attack", "attack success", "AEs", "AdvHunter F1")
	for _, p := range r.Points {
		t.addf(p.Scenario, p.Spec.String(), pct(p.ModelAccuracy), pct(p.SuccessRate),
			fmt.Sprintf("%d", p.AEs), f4(p.F1))
	}
	t.render(w)
	fmt.Fprintln(w, "Paper shape: rising strength lowers accuracy (untargeted) or raises targeted")
	fmt.Fprintln(w, "success, while AdvHunter's F1 stays high for every attack type and scenario.")
}
