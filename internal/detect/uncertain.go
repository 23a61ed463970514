package detect

import "math"

// Uncertain implements Detector.Uncertain for every fitted backend. An
// unmodelled verdict is never uncertain: no tier has a template for its
// category, so every tier returns the identical (empty) verdict and
// escalating buys nothing. The margin is relative with a unit floor — margin·(1+|Δ|) — so it
// reads as "within margin×" for the large thresholds of count channels and
// stays meaningful for thresholds near zero (log-likelihood channels).
func (d *Fitted) Uncertain(v Verdict, margin float64) bool {
	if !v.Modelled {
		return false
	}
	thr := d.thresholds[d.decision][v.PredictedClass]
	return math.Abs(v.Scores[d.decision]-thr) <= margin*(1+math.Abs(thr))
}
