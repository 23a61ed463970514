package obs

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"math"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestLatencyBurnRule: not ready without observations; breaches when the
// windowed quantile crosses the threshold.
func TestLatencyBurnRule(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("advhunter_request_duration_seconds", "lat.", []float64{0.01, 0.1, 1}).With()
	rec := NewRecorder(RecorderConfig{}, reg)

	rule := &LatencyBurnRule{RuleName: "latency-p99", Family: "advhunter_request_duration_seconds",
		Q: 0.99, Threshold: 0.05}

	if st := rule.Eval(rec, time.Now()); st.Ready {
		t.Fatalf("ready with no observations: %+v", st)
	}

	time.Sleep(2 * time.Millisecond)
	for i := 0; i < 20; i++ {
		h.Observe(0.005) // all under 0.01: p99 ≈ 0.0099 < 0.05
	}
	rec.Sample()
	if st := rule.Eval(rec, time.Now()); !st.Ready || st.Breach {
		t.Fatalf("fast traffic judged breaching: %+v", st)
	}

	time.Sleep(2 * time.Millisecond)
	for i := 0; i < 200; i++ {
		h.Observe(0.5) // p99 lands in (0.1, 1]
	}
	rec.Sample()
	if st := rule.Eval(rec, time.Now()); !st.Ready || !st.Breach {
		t.Fatalf("slow traffic not breaching: %+v", st)
	}
}

// TestErrorRateRule: the 429/5xx fraction judges deterministically (both
// rates share the window) and is not ready without traffic.
func TestErrorRateRule(t *testing.T) {
	reg := NewRegistry()
	req := reg.Counter("advhunter_requests_total", "reqs.", "code")
	// Materialise the children before the recorder's first sample: a series
	// needs two samples in the window before it contributes a rate.
	for _, code := range []string{"200", "429", "503", "418"} {
		req.With(code)
	}
	rec := NewRecorder(RecorderConfig{}, reg)

	rule := &ErrorRateRule{RuleName: "error-rate", Family: "advhunter_requests_total",
		Threshold: 0.1}

	if st := rule.Eval(rec, time.Now()); st.Ready {
		t.Fatalf("ready with no traffic: %+v", st)
	}

	time.Sleep(2 * time.Millisecond)
	req.With("200").Add(95)
	req.With("429").Add(3)
	req.With("503").Add(2)
	rec.Sample()
	st := rule.Eval(rec, time.Now())
	if !st.Ready || st.Breach {
		t.Fatalf("5%% errors judged breaching: %+v", st)
	}
	if st.Value < 0.049 || st.Value > 0.051 {
		t.Fatalf("error fraction = %v, want 0.05", st.Value)
	}

	time.Sleep(2 * time.Millisecond)
	req.With("429").Add(100)
	rec.Sample()
	if st := rule.Eval(rec, time.Now()); !st.Ready || !st.Breach {
		t.Fatalf("429 flood not breaching: %+v", st)
	}
}

// TestDriftRule: the attack signal — fits a clean baseline over the first
// qualifying evaluations, fires when the flag rate ramps, resolves when
// traffic cleans up, and refuses to judge starved evaluations.
func TestDriftRule(t *testing.T) {
	reg := NewRegistry()
	scans := reg.Counter("advhunter_scans_total", "scans.", "backend").With("gmm")
	flagged := reg.Counter("advhunter_flagged_total", "flagged.", "backend").With("gmm")
	rec := NewRecorder(RecorderConfig{}, reg)

	rule := &DriftRule{RuleName: "detect-drift",
		Scans: "advhunter_scans_total", Flagged: "advhunter_flagged_total"}
	now := time.Now()

	// First eval only anchors the cursors.
	if st := rule.Eval(rec, now); st.Ready {
		t.Fatalf("first eval judged: %+v", st)
	}

	// Starved eval: 5 new scans < 20 — no judgement, no cursor move.
	scans.Add(5)
	rec.Sample()
	if st := rule.Eval(rec, now); st.Ready {
		t.Fatalf("starved eval judged: %+v", st)
	}

	// Three clean rounds at a 5% flag rate fit the baseline.
	for i := 0; i < 3; i++ {
		scans.Add(100)
		flagged.Add(5)
		rec.Sample()
		if st := rule.Eval(rec, now); st.Ready {
			t.Fatalf("fit round %d judged: %+v", i, st)
		}
	}
	mean, std, ok := rule.baseline()
	if !ok {
		t.Fatal("baseline not frozen after 3 fit rounds")
	}
	// Round 1 includes the 5 unflagged starved scans: 5/105 ≈ 0.0476; the
	// rest are exactly 0.05. Mean sits just under 0.05, std near zero.
	if mean < 0.04 || mean > 0.06 || std > 0.01 {
		t.Fatalf("baseline = %v ± %v", mean, std)
	}

	// Clean traffic after the fit: within mean + 3·max(std, 0.02), which
	// the floor sets to mean + 3·0.02 on this near-constant clean rate.
	scans.Add(100)
	flagged.Add(6)
	rec.Sample()
	st := rule.Eval(rec, now)
	if !st.Ready || st.Breach {
		t.Fatalf("clean round judged breaching: %+v", st)
	}
	if want := mean + 3*0.02; math.Abs(st.Threshold-want) > 1e-12 {
		t.Fatalf("threshold = %v, want %v", st.Threshold, want)
	}

	// Attack ramp: 40% flag rate, far above the band.
	scans.Add(100)
	flagged.Add(40)
	rec.Sample()
	if st := rule.Eval(rec, now); !st.Ready || !st.Breach {
		t.Fatalf("attack ramp not breaching: %+v", st)
	}

	// Back to clean: resolves.
	scans.Add(100)
	flagged.Add(5)
	rec.Sample()
	if st := rule.Eval(rec, now); !st.Ready || st.Breach {
		t.Fatalf("post-attack clean round still breaching: %+v", st)
	}
}

// fakeRule drives the engine deterministically.
type fakeRule struct {
	name   string
	status RuleStatus
}

func (r *fakeRule) Name() string                         { return r.name }
func (r *fakeRule) Describe() string                     { return "fake" }
func (r *fakeRule) Eval(*Recorder, time.Time) RuleStatus { return r.status }
func (r *fakeRule) set(breach, ready bool, v, thr float64) {
	r.status = RuleStatus{Value: v, Threshold: thr, Breach: breach, Ready: ready}
}

// TestAlertEngineTransitions: ok → pending → firing with For hysteresis,
// resolve on recovery, gauge/counter/log side effects, and not-ready holds.
func TestAlertEngineTransitions(t *testing.T) {
	reg := NewRegistry()
	rec := NewRecorder(RecorderConfig{}, NewRegistry())
	var logBuf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&logBuf, nil))
	rule := &fakeRule{name: "r1"}
	eng := NewAlertEngine(reg, rec, []Rule{rule}, AlertConfig{For: 10 * time.Millisecond, Logger: logger})

	now := time.Now()
	rule.set(true, true, 0.5, 0.1)
	eng.EvalOnce(now)
	if eng.Snapshot()[0].State == AlertFiring {
		t.Fatal("fired before For elapsed")
	}
	views := eng.Snapshot()
	if views[0].State != AlertPending {
		t.Fatalf("state = %q, want pending", views[0].State)
	}

	// Not-ready mid-pending holds the state rather than resetting it.
	rule.set(false, false, 0, 0)
	eng.EvalOnce(now.Add(5 * time.Millisecond))
	if eng.Snapshot()[0].State != AlertPending {
		t.Fatal("not-ready eval reset pending")
	}

	rule.set(true, true, 0.5, 0.1)
	eng.EvalOnce(now.Add(15 * time.Millisecond))
	if eng.Snapshot()[0].State != AlertFiring {
		t.Fatal("did not fire after For elapsed")
	}
	if !strings.Contains(logBuf.String(), "alert firing") {
		t.Fatalf("no firing transition log:\n%s", logBuf.String())
	}

	var b strings.Builder
	WriteMerged(&b, reg)
	out := b.String()
	for _, want := range []string{
		`advhunter_alert_active{rule="r1"} 1`,
		`advhunter_alert_fired_total{rule="r1"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}

	rule.set(false, true, 0.01, 0.1)
	eng.EvalOnce(now.Add(20 * time.Millisecond))
	if eng.Snapshot()[0].State == AlertFiring {
		t.Fatal("did not resolve")
	}
	if !strings.Contains(logBuf.String(), "alert resolved") {
		t.Fatalf("no resolved transition log:\n%s", logBuf.String())
	}
	b.Reset()
	WriteMerged(&b, reg)
	if !strings.Contains(b.String(), `advhunter_alert_active{rule="r1"} 0`) {
		t.Fatalf("active gauge not cleared:\n%s", b.String())
	}
}

// TestAlertEngineImmediateFire: For = 0 fires on the first breaching eval.
func TestAlertEngineImmediateFire(t *testing.T) {
	reg := NewRegistry()
	rec := NewRecorder(RecorderConfig{}, NewRegistry())
	rule := &fakeRule{name: "fast"}
	eng := NewAlertEngine(reg, rec, []Rule{rule}, AlertConfig{})
	rule.set(true, true, 1, 0.1)
	eng.EvalOnce(time.Now())
	if eng.Snapshot()[0].State != AlertFiring {
		t.Fatal("For=0 did not fire immediately")
	}
}

// TestAlertEngineBackground: the recorder's Run evaluates the engine after
// each sample, so a breaching rule fires — and its advhunter_alert_active
// gauge reads 1 — with no /alerts request; stop halts the loop and returns
// twice.
func TestAlertEngineBackground(t *testing.T) {
	reg := NewRegistry()
	rec := NewRecorder(RecorderConfig{}, NewRegistry())
	rule := &fakeRule{name: "hot"}
	rule.set(true, true, 1, 0.1) // before the loop starts reading it
	eng := NewAlertEngine(reg, rec, []Rule{rule}, AlertConfig{})
	stop := rec.Run(time.Millisecond, eng)
	deadline := time.Now().Add(2 * time.Second)
	for {
		var b strings.Builder
		WriteMerged(&b, reg)
		if strings.Contains(b.String(), `advhunter_alert_active{rule="hot"} 1`) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("Run never fired the breaching rule:\n%s", b.String())
		}
		time.Sleep(time.Millisecond)
	}
	stop()
	stop() // idempotent
}

// TestAlertsHandler: /alerts serves the rule states the last evaluation
// left, as JSON.
func TestAlertsHandler(t *testing.T) {
	reg := NewRegistry()
	rec := NewRecorder(RecorderConfig{}, reg)
	rule := &fakeRule{name: "drift"}
	eng := NewAlertEngine(reg, rec, []Rule{rule}, AlertConfig{})

	get := func() []AlertView {
		t.Helper()
		rr := httptest.NewRecorder()
		eng.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/alerts", nil))
		var page struct {
			Alerts []AlertView `json:"alerts"`
		}
		if err := json.Unmarshal(rr.Body.Bytes(), &page); err != nil {
			t.Fatalf("alerts page not JSON: %v\n%s", err, rr.Body.String())
		}
		return page.Alerts
	}

	// tick is what Run does on each tick; the handler only renders the
	// states it leaves.
	tick := func() {
		rec.Sample()
		eng.EvalOnce(time.Now())
	}
	tick()
	if alerts := get(); len(alerts) != 1 || alerts[0].State != AlertOK {
		t.Fatalf("initial page = %+v", alerts)
	}
	rule.set(true, true, 0.4, 0.11)
	tick()
	alerts := get()
	if alerts[0].State != AlertFiring || alerts[0].FiredTotal != 1 {
		t.Fatalf("after ramp = %+v", alerts)
	}
	if alerts[0].Describe == "" {
		t.Fatal("rule description missing from page")
	}
}
