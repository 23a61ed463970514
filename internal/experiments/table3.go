package experiments

import (
	"fmt"
	"io"

	"advhunter/internal/detect"
	"advhunter/internal/uarch/hpc"
)

// Table3Result reproduces Table 3: AdvHunter F1 for the four cache-miss
// sub-events in S2 under untargeted FGSM across attack strengths.
type Table3Result struct {
	Eps []float64
	// F1[event][i] corresponds to Eps[i].
	F1 map[hpc.Event][]float64
}

// Table3 runs the cache-event ablation.
func Table3(opts Options) (*Table3Result, error) {
	env, err := LoadEnv("S2", opts)
	if err != nil {
		return nil, err
	}
	det, err := env.Detector()
	if err != nil {
		return nil, err
	}
	clean, err := env.CleanMeasurements(false)
	if err != nil {
		return nil, err
	}
	n := 120
	if opts.Quick {
		n = 40
	}
	res := &Table3Result{Eps: untargetedEps, F1: map[hpc.Event][]float64{}}
	for _, eps := range untargetedEps {
		ar, err := env.Attack(AttackSpec{Kind: "fgsm", Eps: eps}, n)
		if err != nil {
			return nil, err
		}
		for _, e := range hpc.CacheAblationEvents() {
			f1 := 0.0
			if len(ar.Meas) > 0 {
				f1 = detect.EvaluateEvent(det, e, clean, ar.Meas, env.Opts.Workers).F1()
			}
			res.F1[e] = append(res.F1[e], f1)
		}
	}
	return res, nil
}

// Render writes the paper-style table.
func (r *Table3Result) Render(w io.Writer) {
	heading(w, "Table 3: F1 per cache-miss sub-event, S2, untargeted FGSM")
	header := []string{"event"}
	for _, eps := range r.Eps {
		header = append(header, fmt.Sprintf("ε=%g", eps))
	}
	t := newTable(header...)
	for _, e := range hpc.CacheAblationEvents() {
		cells := []string{e.String()}
		for _, v := range r.F1[e] {
			cells = append(cells, f4(v))
		}
		t.addf(cells...)
	}
	t.render(w)
	fmt.Fprintln(w, "Paper shape: L1-icache-load-misses ≈ 0 (instruction flow is input-independent);")
	fmt.Fprintln(w, "the data-cache events (L1-dcache, LLC-load, LLC-store) carry usable signal.")
}
