package obs

import (
	"encoding/json"
	"log/slog"
	"math"
	"net/http"
	"strings"
	"sync"
	"time"
)

// RuleStatus is one rule evaluation's outcome.
type RuleStatus struct {
	// Value is the measured quantity (a latency quantile in seconds, an
	// error fraction, a flag rate).
	Value float64
	// Threshold is the level Value is judged against at this evaluation.
	Threshold float64
	// Breach reports Value beyond Threshold.
	Breach bool
	// Ready reports the rule had enough data to judge. A not-ready
	// evaluation leaves the alert state unchanged — short history is not
	// evidence of health.
	Ready bool
}

// Rule is one declarative alert condition evaluated against the flight
// recorder. Rules may carry evaluation state (a drift baseline, delta
// cursors), so one Rule value belongs to exactly one AlertEngine.
type Rule interface {
	// Name labels the rule in gauges, logs and /alerts ("latency-p99").
	Name() string
	// Describe is the human-readable condition for /alerts.
	Describe() string
	// Eval judges the rule against the recorder's history now.
	Eval(rec *Recorder, now time.Time) RuleStatus
}

// The stock rules' fixed tuning.
const (
	// ruleWindow is the evaluation window of the latency and error rules.
	ruleWindow = time.Minute
	// minErrorRuleRate gates ErrorRateRule's readiness: below this total
	// req/s the error fraction is too noisy to judge.
	minErrorRuleRate = 1.0
	// driftFitRounds is the number of qualifying evaluations the drift
	// baseline averages over before judging begins.
	driftFitRounds = 3
	// driftSigmas is the drift deviation multiplier: fire when the observed
	// flag rate exceeds mean + driftSigmas·max(std, driftMinStd).
	driftSigmas = 3.0
	// driftMinStd keeps the band open when clean traffic is so uniform its
	// fitted deviation collapses to ~0.
	driftMinStd = 0.02
	// driftMinDecisions is the minimum new decisions per judged drift
	// evaluation.
	driftMinDecisions = 20.0
)

// LatencyBurnRule fires when a latency quantile over the last minute exceeds
// a threshold — the burn-rate shape of a latency SLO: not one slow request,
// but a window's worth of them.
type LatencyBurnRule struct {
	RuleName  string
	Family    string  // histogram family (advhunter_request_duration_seconds)
	Q         float64 // quantile in (0,1), e.g. 0.99
	Threshold float64 // seconds
}

// Name implements Rule.
func (r *LatencyBurnRule) Name() string { return r.RuleName }

// Describe implements Rule.
func (r *LatencyBurnRule) Describe() string {
	return "p" + formatFloat(r.Q*100) + "(" + r.Family + ") > " + formatFloat(r.Threshold) + "s over " + ruleWindow.String()
}

// Eval implements Rule.
func (r *LatencyBurnRule) Eval(rec *Recorder, _ time.Time) RuleStatus {
	v := rec.Quantile(r.Family, r.Q, ruleWindow)
	if math.IsNaN(v) {
		return RuleStatus{Threshold: r.Threshold}
	}
	return RuleStatus{Value: v, Threshold: r.Threshold, Breach: v > r.Threshold, Ready: true}
}

// ErrorRateRule fires when the rejected-or-failed fraction of requests over
// the last minute exceeds a threshold. It counts 429s and every 5xx —
// backpressure and server faults — against the family's total rate, and
// judges only once that rate reaches 1 req/s.
type ErrorRateRule struct {
	RuleName  string
	Family    string  // counter family with a code label (advhunter_requests_total)
	Threshold float64 // error fraction in (0,1)
}

// Name implements Rule.
func (r *ErrorRateRule) Name() string { return r.RuleName }

// Describe implements Rule.
func (r *ErrorRateRule) Describe() string {
	return "429/5xx fraction of " + r.Family + " > " + formatFloat(r.Threshold) + " over " + ruleWindow.String()
}

// Eval implements Rule.
func (r *ErrorRateRule) Eval(rec *Recorder, _ time.Time) RuleStatus {
	total := rec.RateFamily(r.Family, ruleWindow)
	if total < minErrorRuleRate {
		return RuleStatus{Threshold: r.Threshold}
	}
	prefix := r.Family + "{"
	bad := rec.Rate(ruleWindow, func(key string) bool {
		if !strings.HasPrefix(key, prefix) {
			return false
		}
		code, ok := labelValue(key, "code")
		return ok && (code == "429" || strings.HasPrefix(code, "5"))
	})
	frac := bad / total
	return RuleStatus{Value: frac, Threshold: r.Threshold, Breach: frac > r.Threshold, Ready: true}
}

// DriftRule is the attack-campaign signal: it watches the flag rate —
// flagged decisions over total decisions — per evaluation and fires when it
// exceeds a clean-traffic baseline by more than driftSigmas deviations. The
// baseline is fitted online from the first driftFitRounds qualifying
// evaluations, which must therefore see clean traffic — the same
// trust-on-first-use assumption every learned baseline makes.
//
// Each evaluation differences the recorder's latest cumulative totals
// against the previous evaluation's, so the judged window is the evaluation
// interval itself (a tumbling window) — timing-free and exact, where a
// wall-clock window would be sensitive to sampler phase. Evaluations seeing
// fewer than driftMinDecisions new decisions do not judge (and do not
// advance the cursors), so quiet periods accumulate instead of diluting.
type DriftRule struct {
	RuleName string
	Scans    string // counter family of total decisions (advhunter_scans_total)
	Flagged  string // counter family of adversarial decisions (advhunter_flagged_total)

	mu          sync.Mutex
	started     bool
	lastScans   float64
	lastFlagged float64
	fitN        int
	fitMean     float64
	fitM2       float64
	frozen      bool
}

// Name implements Rule.
func (r *DriftRule) Name() string { return r.RuleName }

// Describe implements Rule.
func (r *DriftRule) Describe() string {
	return "flag rate (" + r.Flagged + "/" + r.Scans + ") above clean baseline + " + formatFloat(driftSigmas) + "σ"
}

// baseline returns the rule's current clean baseline (mean, std) and
// whether it is established yet.
func (r *DriftRule) baseline() (mean, std float64, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.baselineLocked()
}

func (r *DriftRule) baselineLocked() (mean, std float64, ok bool) {
	if !r.frozen {
		return 0, 0, false
	}
	variance := 0.0
	if r.fitN > 1 {
		variance = r.fitM2 / float64(r.fitN-1)
	}
	return r.fitMean, math.Sqrt(variance), true
}

// Eval implements Rule.
func (r *DriftRule) Eval(rec *Recorder, _ time.Time) RuleStatus {
	r.mu.Lock()
	defer r.mu.Unlock()

	scans := rec.LatestFamily(r.Scans)
	flagged := rec.LatestFamily(r.Flagged)
	if !r.started {
		r.started = true
		r.lastScans, r.lastFlagged = scans, flagged
		return RuleStatus{}
	}
	ds, df := scans-r.lastScans, flagged-r.lastFlagged
	if ds < driftMinDecisions {
		return RuleStatus{} // too few new decisions: accumulate, don't judge
	}
	r.lastScans, r.lastFlagged = scans, flagged
	rate := df / ds

	mean, std, ok := r.baselineLocked()
	if !ok {
		// Online fitting (Welford) over the first driftFitRounds qualifying
		// evaluations; judging starts once the baseline freezes.
		r.fitN++
		delta := rate - r.fitMean
		r.fitMean += delta / float64(r.fitN)
		r.fitM2 += delta * (rate - r.fitMean)
		if r.fitN >= driftFitRounds {
			r.frozen = true
		}
		return RuleStatus{Value: rate}
	}
	thr := mean + driftSigmas*math.Max(std, driftMinStd)
	return RuleStatus{Value: rate, Threshold: thr, Breach: rate > thr, Ready: true}
}

// labelValue extracts one label's value from a rendered series key
// ({name="value",...}). Good enough for the label values this package deals
// in (status codes, rule names) — none contain escaped quotes.
func labelValue(key, label string) (string, bool) {
	i := strings.Index(key, label+`="`)
	if i < 0 {
		return "", false
	}
	rest := key[i+len(label)+2:]
	j := strings.IndexByte(rest, '"')
	if j < 0 {
		return "", false
	}
	return rest[:j], true
}

// Alert states.
const (
	AlertOK      = "ok"
	AlertPending = "pending" // breaching, waiting out the For hysteresis
	AlertFiring  = "firing"
)

// AlertConfig tunes an AlertEngine.
type AlertConfig struct {
	// For is the hysteresis: a rule must breach continuously this long
	// before it fires (0 fires on the first breach).
	For time.Duration
	// Logger receives alert transition records ("alert firing",
	// "alert resolved"). nil disables transition logging.
	Logger *slog.Logger
}

// alertState is one rule's lifecycle state inside the engine.
type alertState struct {
	rule    Rule
	state   string
	since   time.Time // entered current state
	last    RuleStatus
	lastAt  time.Time
	fired   uint64
	active  *Gauge
	firedCt *Counter
}

// AlertEngine evaluates rules against a flight recorder and owns their
// ok → pending → firing lifecycle. Active alerts surface as the
// advhunter_alert_active{rule} gauge (1 while firing), transitions as the
// advhunter_alert_fired_total{rule} counter and structured log records, and
// the full state as the /alerts JSON endpoint — so alerts are visible to a
// scraper, a log pipeline, and a human, from one evaluation path. It runs no
// goroutine of its own: the recorder's Run evaluates it after each sample.
type AlertEngine struct {
	rec *Recorder
	cfg AlertConfig

	mu     sync.Mutex
	states []*alertState
}

// NewAlertEngine builds an engine over rec, registering its gauges on reg.
func NewAlertEngine(reg *Registry, rec *Recorder, rules []Rule, cfg AlertConfig) *AlertEngine {
	e := &AlertEngine{rec: rec, cfg: cfg}
	activeVec := reg.Gauge("advhunter_alert_active",
		"1 while the alert rule is firing, 0 otherwise.", "rule")
	firedVec := reg.Counter("advhunter_alert_fired_total",
		"Alert rule ok/pending→firing transitions.", "rule")
	for _, rule := range rules {
		st := &alertState{
			rule:    rule,
			state:   AlertOK,
			active:  activeVec.With(rule.Name()),
			firedCt: firedVec.With(rule.Name()),
		}
		st.active.Set(0)
		e.states = append(e.states, st)
	}
	return e
}

// EvalOnce evaluates every rule against the recorder at now and applies
// state transitions. Run calls it after each sample; tests call it directly.
func (e *AlertEngine) EvalOnce(now time.Time) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, st := range e.states {
		status := st.rule.Eval(e.rec, now)
		st.last, st.lastAt = status, now
		if !status.Ready {
			continue // not enough data: hold the current state
		}
		switch {
		case status.Breach && st.state == AlertOK:
			if e.cfg.For > 0 {
				st.state, st.since = AlertPending, now
				continue
			}
			e.fire(st, now)
		case status.Breach && st.state == AlertPending:
			if now.Sub(st.since) >= e.cfg.For {
				e.fire(st, now)
			}
		case !status.Breach && st.state != AlertOK:
			prev := st.state
			st.state, st.since = AlertOK, now
			st.active.Set(0)
			if e.cfg.Logger != nil && prev == AlertFiring {
				e.cfg.Logger.Info("alert resolved",
					slog.String("rule", st.rule.Name()),
					slog.Float64("value", status.Value),
					slog.Float64("threshold", status.Threshold))
			}
		}
	}
}

// fire transitions one rule to firing. Caller holds e.mu.
func (e *AlertEngine) fire(st *alertState, now time.Time) {
	st.state, st.since = AlertFiring, now
	st.fired++
	st.active.Set(1)
	st.firedCt.Inc()
	if e.cfg.Logger != nil {
		e.cfg.Logger.Warn("alert firing",
			slog.String("rule", st.rule.Name()),
			slog.Float64("value", st.last.Value),
			slog.Float64("threshold", st.last.Threshold))
	}
}

// AlertView is one rule's state on the /alerts page.
type AlertView struct {
	Rule       string    `json:"rule"`
	Describe   string    `json:"describe"`
	State      string    `json:"state"`
	Value      float64   `json:"value"`
	Threshold  float64   `json:"threshold"`
	Ready      bool      `json:"ready"`
	Since      time.Time `json:"since,omitempty"`
	FiredTotal uint64    `json:"fired_total"`
}

// Snapshot returns every rule's current state.
func (e *AlertEngine) Snapshot() []AlertView {
	e.mu.Lock()
	defer e.mu.Unlock()
	views := make([]AlertView, len(e.states))
	for i, st := range e.states {
		views[i] = AlertView{
			Rule:       st.rule.Name(),
			Describe:   st.rule.Describe(),
			State:      st.state,
			Value:      st.last.Value,
			Threshold:  st.last.Threshold,
			Ready:      st.last.Ready,
			Since:      st.since,
			FiredTotal: st.fired,
		}
	}
	return views
}

// Handler serves the engine's current rule states as /alerts JSON.
func (e *AlertEngine) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", " ")
		enc.Encode(struct {
			Now    time.Time   `json:"now"`
			Alerts []AlertView `json:"alerts"`
		}{time.Now(), e.Snapshot()})
	})
}
