package detect

import (
	"fmt"

	"advhunter/internal/core"
	"advhunter/internal/metrics"
	"advhunter/internal/parallel"
	"advhunter/internal/uarch/hpc"
)

// Fitted is the generic fitted detector every backend produces: the
// backend's scorers plus per-(channel, category) thresholds derived from
// the template scores by the kσ rule. It is the only Detector
// implementation; backends differ purely in the scorers they contribute.
type Fitted struct {
	kind     string
	events   []hpc.Event
	channels []string
	scorers  []Scorer
	// thresholds[ch][c] is Δ_c for channel ch (0 for unmodelled categories).
	thresholds [][]float64
	// modelled[c] reports whether canModel accepted category c's rows.
	modelled []bool
	classes  int
	// decision is the channel deciding Verdict.Fused (see decisionChannel).
	decision int
	// eventIdx maps events to channel indices, shared with every Verdict.
	eventIdx map[hpc.Event]int
}

// Fit runs the offline phase of the named backend on a measured template:
// the backend fits its scorers concurrently, then every (channel, category)
// threshold is derived the same way — mean + 3·std of the channel's
// scores over the category's own template rows. A template that
// leaves a multi-channel backend without cfg.DecisionEvent's channel is an
// error, caught before any scorer is fitted.
func Fit(kind string, t *core.Template, cfg Config) (*Fitted, error) {
	b, ok := Lookup(kind)
	if !ok {
		return nil, fmt.Errorf("detect: unknown backend %q (have %v)", kind, Kinds())
	}
	scorers, err := b.New(t, cfg)
	if err != nil {
		return nil, err
	}
	if len(scorers) == 0 {
		return nil, fmt.Errorf("detect: backend %q produced no scorers", kind)
	}
	d := &Fitted{kind: kind, events: t.Events, scorers: scorers, classes: t.Classes}
	if err := d.finish(cfg.DecisionEvent); err != nil {
		return nil, err
	}
	// Each scorer fits from its own (category, channel) seeds into its own
	// fields, so the fan-out is bit-identical to a serial loop; the
	// lowest-index scorer's error wins, as it would serially.
	errs := parallel.Map(0, scorers, func(_ int, s Scorer) error { return s.Fit(t, cfg) })
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	modelled := make([]bool, t.Classes)
	fitted := 0
	for c := 0; c < t.Classes; c++ {
		if canModel(t.Rows[c]) {
			modelled[c] = true
			fitted++
		}
	}
	if fitted == 0 {
		return nil, fmt.Errorf("detect: no category had %d or more template rows", minTemplateRows)
	}

	thresholds := make([][]float64, len(scorers))
	for si := range scorers {
		thresholds[si] = make([]float64, t.Classes)
	}
	for c := 0; c < t.Classes; c++ {
		if !modelled[c] {
			continue
		}
		rows := t.Rows[c]
		for si, s := range scorers {
			scores := make([]float64, 0, len(rows))
			for _, q := range rows {
				if score, ok := s.Score(q); ok {
					scores = append(scores, score)
				}
			}
			if len(scores) == 0 {
				continue
			}
			mu, sigma := metrics.MeanStd(scores)
			thresholds[si][c] = mu + thresholdSigmas*sigma
		}
	}

	d.thresholds, d.modelled = thresholds, modelled
	return d, nil
}

// canModel is the one rule for whether a category's template rows are
// enough to model it: Fit and every fitted scorer ask it.
func canModel(rows []core.Measurement) bool {
	return len(rows) >= minTemplateRows
}

// finish derives the channel names, event index and decision channel from
// the scorers — shared by Fit and Load.
func (d *Fitted) finish(decisionEvent hpc.Event) error {
	d.channels = make([]string, len(d.scorers))
	d.eventIdx = make(map[hpc.Event]int, len(d.scorers))
	for si, s := range d.scorers {
		d.channels[si] = s.Channel()
		if e, err := hpc.ParseEvent(s.Channel()); err == nil {
			d.eventIdx[e] = si
		}
	}
	var err error
	d.decision, err = d.decisionChannel(decisionEvent)
	return err
}

// decisionChannel is the one rule for which channel decides Verdict.Fused
// under decision event e: e's channel or, for a single-channel combinator
// (fusion, confidence), its only channel. A detector with event channels
// but none for e has no decision channel.
func (d *Fitted) decisionChannel(e hpc.Event) (int, error) {
	if si, ok := d.eventIdx[e]; ok {
		return si, nil
	}
	if len(d.channels) == 1 && len(d.eventIdx) == 0 {
		return 0, nil
	}
	return 0, fmt.Errorf("detect: %s detector has no %v channel to decide by (channels %v)", d.kind, e, d.channels)
}

// DecidesBy reports an error, naming the channel d decides by, unless that
// is the channel a fit under decision event e would decide by — so a loaded
// artifact is served only under the decision rule it was fitted and
// evaluated with.
func (d *Fitted) DecidesBy(e hpc.Event) error {
	if si, err := d.decisionChannel(e); err != nil || si != d.decision {
		return fmt.Errorf("detect: %s detector decides by %s, not by %v", d.kind, d.channels[d.decision], e)
	}
	return nil
}

// Kind is the backend name the detector was fitted under.
func (d *Fitted) Kind() string { return d.kind }

// Events lists the template events the detector was fitted on.
func (d *Fitted) Events() []hpc.Event { return d.events }

// Channels names the score streams, aligned with Verdict.Scores/Flags.
func (d *Fitted) Channels() []string { return d.channels }

// Classes is the number of output categories of the guarded model.
func (d *Fitted) Classes() int { return d.classes }

// ModelledClasses counts the categories with a fitted template.
func (d *Fitted) ModelledClasses() int {
	n := 0
	for _, m := range d.modelled {
		if m {
			n++
		}
	}
	return n
}

// Detect runs the online phase on a measured reading.
func (d *Fitted) Detect(q core.Measurement) Verdict {
	v := Verdict{
		PredictedClass: q.Pred,
		Channels:       d.channels,
		Scores:         make([]float64, len(d.scorers)),
		Flags:          make([]bool, len(d.scorers)),
		eventIdx:       d.eventIdx,
	}
	if q.Pred < 0 || q.Pred >= d.classes || !d.modelled[q.Pred] {
		return v
	}
	v.Modelled = true
	for si, s := range d.scorers {
		score, ok := s.Score(q)
		if !ok {
			continue
		}
		v.Scores[si] = score
		v.Flags[si] = score > d.thresholds[si][q.Pred]
	}
	v.Fused = v.Flags[d.decision]
	return v
}
