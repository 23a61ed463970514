package detect

import "math"

// Uncertain implements Detector.Uncertain for every fitted backend. An
// unmodelled verdict is never uncertain: no tier has a template for its
// category, so every tier returns the identical (empty) verdict and
// escalating buys nothing. The margin is relative with a unit floor — margin·(1+|Δ|) — so it
// reads as "within margin×" for the large thresholds of count channels and
// stays meaningful for thresholds near zero (log-likelihood channels).
func (d *Fitted) Uncertain(v Verdict, channel int, margin float64) bool {
	if !v.Modelled {
		return false
	}
	if channel < 0 {
		channel = d.decision
	}
	if channel >= 0 && channel < len(d.scorers) {
		return d.nearThreshold(v, channel, margin)
	}
	for si := range d.scorers {
		if d.nearThreshold(v, si, margin) {
			return true
		}
	}
	return false
}

func (d *Fitted) nearThreshold(v Verdict, si int, margin float64) bool {
	thr := d.thresholds[si][v.PredictedClass]
	return math.Abs(v.Scores[si]-thr) <= margin*(1+math.Abs(thr))
}
