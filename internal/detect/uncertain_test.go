package detect

import (
	"math"
	"testing"

	"advhunter/internal/core"
	"advhunter/internal/rng"
	"advhunter/internal/uarch/hpc"
)

// TestUncertainBand verifies the escalation predicate's geometry: scores far
// below or far above the decision threshold are certain, scores inside the
// margin band on either side are not, and widening the margin only adds
// uncertainty.
func TestUncertainBand(t *testing.T) {
	tpl := synthTemplate(3, 60, 7)
	d := mustFit(t, "gmm", tpl, DefaultConfig())
	ci := channelOf(t, d, hpc.CacheMisses)
	thr := d.thresholds[ci][0]

	// Build verdicts with a pinned score on the decision channel.
	at := func(score float64) Verdict {
		v := d.Detect(synthMeasurement(rng.New(1), 0, 1000))
		v.Scores[ci] = score
		return v
	}
	band := 0.1 * (1 + math.Abs(thr))
	cases := []struct {
		score float64
		want  bool
	}{
		{thr - 10*band, false},
		{thr - 0.5*band, true},
		{thr, true},
		{thr + 0.5*band, true},
		{thr + 10*band, false},
	}
	for _, tc := range cases {
		if got := d.Uncertain(at(tc.score), 0.1); got != tc.want {
			t.Errorf("Uncertain(score=%v, thr=%v, margin=0.1) = %v, want %v", tc.score, thr, got, tc.want)
		}
	}
	// Monotone in the margin: anything uncertain at 0.1 stays uncertain at 0.5.
	for _, tc := range cases {
		if d.Uncertain(at(tc.score), 0.1) && !d.Uncertain(at(tc.score), 0.5) {
			t.Errorf("score %v uncertain at margin 0.1 but certain at 0.5", tc.score)
		}
	}
}

// TestUncertainUnmodelledAndChannelSelection covers the two special cases:
// unmodelled verdicts are never uncertain (every tier returns the identical
// empty verdict), and only the decision channel's score counts — a score in
// the band on another channel does not escalate.
func TestUncertainUnmodelledAndChannelSelection(t *testing.T) {
	tpl := synthTemplate(3, 60, 7)
	// Class 2 gets too few rows to be modelled.
	tpl.Rows[2] = tpl.Rows[2][:2]
	d := mustFit(t, "gmm", tpl, DefaultConfig())

	un := d.Detect(core.Measurement{Pred: 2, TrueLabel: 2, Conf: 0.9})
	if un.Modelled {
		t.Fatal("class 2 unexpectedly modelled")
	}
	if d.Uncertain(un, 1e9) {
		t.Error("unmodelled verdict reported uncertain")
	}

	// Under DefaultConfig cache-misses decides; instructions does not.
	cm, in := channelOf(t, d, hpc.CacheMisses), channelOf(t, d, hpc.Instructions)
	v := d.Detect(synthMeasurement(rng.New(2), 0, 1000))
	cmThr, inThr := d.thresholds[cm][0], d.thresholds[in][0]
	v.Scores[cm] = cmThr - 10*0.1*(1+math.Abs(cmThr)) // certain
	v.Scores[in] = inThr                              // inside any band
	if d.Uncertain(v, 0.1) {
		t.Error("a score in the band on a non-decision channel escalated")
	}
	v.Scores[cm] = cmThr
	if !d.Uncertain(v, 0.1) {
		t.Error("a score on the decision threshold did not escalate")
	}
}

// channelOf locates an event's channel among d's channels.
func channelOf(t *testing.T, d *Fitted, e hpc.Event) int {
	t.Helper()
	for i, ch := range d.Channels() {
		if ch == e.String() {
			return i
		}
	}
	t.Fatalf("%s detector has no %v channel", d.Kind(), e)
	return -1
}
