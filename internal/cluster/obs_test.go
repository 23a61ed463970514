package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"advhunter/internal/obs"
	"advhunter/internal/serve"
	"advhunter/internal/tensor"
	"advhunter/internal/workload"
)

// lockedBuffer serialises log writes from the router and replica goroutines.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// postWithID posts one detection request carrying an X-Request-ID header
// (empty id sends none) and returns the response with its body read.
func postWithID(t *testing.T, url, id string, req serve.Request) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hreq, err := http.NewRequest(http.MethodPost, url+"/detect", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	if id != "" {
		hreq.Header.Set("X-Request-ID", id)
	}
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// TestClusterRequestIDPropagation is the cross-hop identity regression test:
// one request id — caller-supplied or cluster-minted — appears on the routed
// log record, the replica's request log record, the replica's trace record,
// and the response header. Greping the fleet's logs for one id follows the
// request across both layers.
func TestClusterRequestIDPropagation(t *testing.T) {
	f := getFixture(t)
	var logs lockedBuffer
	logger, err := obs.NewLogger(&logs, slog.LevelDebug, "json")
	if err != nil {
		t.Fatal(err)
	}
	c := New(Config{Replicas: 2, Logger: logger}, func(int) *serve.Server {
		return serve.New(f.meas.Clone(), f.det, serve.Config{Workers: 1, Logger: logger, TraceRing: 8})
	})
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		c.Shutdown(ctx)
		ts.Close()
	})

	// Caller-supplied id passes through the hop untouched.
	resp, body := postWithID(t, ts.URL, "hop-42", serve.NewRequest(f.inputs[0], 7))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Request-ID"); got != "hop-42" {
		t.Fatalf("response id = %q, want hop-42", got)
	}
	// No id: the cluster mints one and the replica adopts it.
	resp, body = postWithID(t, ts.URL, "", serve.NewRequest(f.inputs[1], 8))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	minted := resp.Header.Get("X-Request-ID")
	if !strings.HasPrefix(minted, "c") {
		t.Fatalf("cluster-minted id = %q, want c-prefix", minted)
	}

	// Both layers logged both requests under the same ids.
	idsByMsg := map[string]map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(logs.String()), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line is not JSON: %q (%v)", line, err)
		}
		msg, _ := rec["msg"].(string)
		id, _ := rec["request_id"].(string)
		if idsByMsg[msg] == nil {
			idsByMsg[msg] = map[string]bool{}
		}
		idsByMsg[msg][id] = true
	}
	for _, id := range []string{"hop-42", minted} {
		if !idsByMsg["routed"][id] {
			t.Errorf("no routed record for id %q (routed ids: %v)", id, idsByMsg["routed"])
		}
		if !idsByMsg["request"][id] {
			t.Errorf("no replica request record for id %q (request ids: %v)", id, idsByMsg["request"])
		}
	}

	// The replica's trace record and the cluster's merged /debug/trace page
	// carry the id too.
	var traced bool
	for _, s := range c.Replicas() {
		for _, tv := range s.Traces().Last(8) {
			if tv.ID == "hop-42" {
				traced = true
			}
		}
	}
	if !traced {
		t.Fatal("hop-42 missing from every replica trace ring")
	}
	r, err := http.Get(ts.URL + "/debug/trace?last=10")
	if err != nil {
		t.Fatal(err)
	}
	page, _ := io.ReadAll(r.Body)
	r.Body.Close()
	if !strings.Contains(string(page), `"hop-42"`) || !strings.Contains(string(page), `"`+minted+`"`) {
		t.Fatalf("merged /debug/trace missing the hop ids:\n%s", page)
	}
}

// TestClusterDriftAlertEndToEnd is the attack-campaign demo on a two-replica
// fleet: the drift rule fits its clean baseline from rounds of known-benign
// traffic, fires when a cohort of adversarially-scored queries ramps, and
// resolves when traffic cleans up again — all through the public HTTP
// surface (/detect, /alerts, /metrics). The test samples the recorder and
// evaluates the engine itself before each /alerts read, exactly as the
// serving loop does on each tick, which keeps the cadence deterministic.
func TestClusterDriftAlertEndToEnd(t *testing.T) {
	f := getFixture(t)
	rule := &obs.DriftRule{
		RuleName: "detect-drift",
		Scans:    "advhunter_scans_total",
		Flagged:  "advhunter_flagged_total",
	}
	flight, alerts, ts := newClusterObs(t, f, rule)

	// Probe phase: classify (input, index) pairs by their served verdict.
	// Determinism makes the classification durable — a replayed pair always
	// re-scores identically, whichever replica serves it — so the probe's
	// benign pairs are a guaranteed-clean cohort and its flagged pairs a
	// guaranteed-adversarial one. Perturbed variants (clean inputs plus
	// seeded uniform noise of growing amplitude) supply the flagged pool.
	type pair struct {
		x   *tensor.Tensor
		idx uint64
	}
	var benign, flagged []pair
	idx := uint64(10_000)
	probe := func(x *tensor.Tensor) {
		t.Helper()
		p := pair{x: x, idx: idx}
		idx++
		resp, body := post(t, ts.URL, serve.NewRequest(p.x, p.idx))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("probe: status %d: %s", resp.StatusCode, body)
		}
		var out struct {
			Adversarial bool `json:"adversarial"`
		}
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		if out.Adversarial {
			flagged = append(flagged, p)
		} else {
			benign = append(benign, p)
		}
	}
	for i := 0; i < 12 && len(benign) < 12; i++ {
		probe(f.inputs[i])
	}
	rng := rand.New(rand.NewSource(1))
	for _, amp := range []float64{1, 2, 4, 8, 16} {
		if len(flagged) >= 10 {
			break
		}
		for i := 0; i < 12 && len(flagged) < 10; i++ {
			x := f.inputs[i].Clone()
			for j, v := range x.Data() {
				x.Data()[j] = v + amp*(2*rng.Float64()-1)
			}
			probe(x)
		}
	}
	if len(benign) < 12 || len(flagged) < 10 {
		t.Fatalf("probe found %d benign / %d flagged pairs; fixture cannot demo drift", len(benign), len(flagged))
	}

	replay := func(pairs []pair) {
		t.Helper()
		for _, p := range pairs {
			resp, body := post(t, ts.URL, serve.NewRequest(p.x, p.idx))
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("replay: status %d: %s", resp.StatusCode, body)
			}
		}
	}
	// getAlert runs one tick of the serving loop, then reads /alerts.
	getAlert := func() obs.AlertView {
		t.Helper()
		flight.Sample()
		alerts.EvalOnce(time.Now())
		resp, err := http.Get(ts.URL + "/alerts")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var page struct {
			Alerts []obs.AlertView `json:"alerts"`
		}
		if err := json.Unmarshal(body, &page); err != nil {
			t.Fatalf("alerts page not JSON: %v\n%s", err, body)
		}
		if len(page.Alerts) != 1 {
			t.Fatalf("alerts page = %+v", page)
		}
		return page.Alerts[0]
	}

	// The drift rule judges an evaluation only once it has seen 20 new
	// decisions, so each round replays the 12-pair benign cohort twice.
	cleanRound := func() {
		t.Helper()
		replay(benign[:12])
		replay(benign[:12])
	}
	// Anchor the rule's cursors past the probe traffic, then fit the clean
	// baseline over three rounds of the benign cohort: every replay
	// re-scores to the probed verdict, so the fitted flag rate is exactly
	// zero.
	getAlert()
	for round := 0; round < 3; round++ {
		cleanRound()
		if a := getAlert(); a.State != obs.AlertOK {
			t.Fatalf("fit round %d: state %q, want ok", round, a.State)
		}
	}
	// Steady state: clean traffic stays clean.
	cleanRound()
	if a := getAlert(); a.State != obs.AlertOK || !a.Ready {
		t.Fatalf("steady state = %+v, want ready ok", a)
	}

	// Attack ramp: twenty guaranteed-flagged queries dominate the window.
	replay(flagged[:10])
	replay(flagged[:10])
	replay(benign[:2])
	a := getAlert()
	if a.State != obs.AlertFiring {
		t.Fatalf("attack ramp: state %q (value %.3f threshold %.3f), want firing", a.State, a.Value, a.Threshold)
	}
	if alerts.Snapshot()[0].State != obs.AlertFiring {
		t.Fatal("engine does not report detect-drift firing")
	}
	// The alert is scrape-visible on the merged /metrics page too.
	snap, err := workload.Scrape(nil, ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if got := snap.Sum("advhunter_alert_active"); got != 1 {
		t.Fatalf("advhunter_alert_active = %v, want 1", got)
	}
	if got := snap.Sum("advhunter_alert_fired_total"); got != 1 {
		t.Fatalf("advhunter_alert_fired_total = %v, want 1", got)
	}

	// Traffic cleans up: the alert resolves and the gauge clears.
	cleanRound()
	if a := getAlert(); a.State != obs.AlertOK {
		t.Fatalf("post-attack: state %q, want ok", a.State)
	}
	snap, err = workload.Scrape(nil, ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if got := snap.Sum("advhunter_alert_active"); got != 0 {
		t.Fatalf("advhunter_alert_active after recovery = %v, want 0", got)
	}
}

// newClusterObs boots a two-replica cluster whose replicas carry trace
// rings, with a fleet recorder over Registries() and, given rules, an alert
// engine over it, both mounted beside the cluster's own endpoints the way
// cmd/advhunter mounts them. No loop runs: tests sample and evaluate
// themselves. The engine is nil without rules.
func newClusterObs(t *testing.T, f *fixture, rules ...obs.Rule) (*obs.Recorder, *obs.AlertEngine, *httptest.Server) {
	t.Helper()
	c := New(Config{Replicas: 2}, func(int) *serve.Server {
		return serve.New(f.meas.Clone(), f.det, serve.Config{Workers: 1, TraceRing: 16})
	})
	mux := http.NewServeMux()
	mux.Handle("/", c.Handler())
	regs := c.Registries()
	flight := obs.NewRecorder(obs.RecorderConfig{}, regs...)
	mux.Handle("/debug/flight", flight.Handler())
	var alerts *obs.AlertEngine
	if len(rules) > 0 {
		alerts = obs.NewAlertEngine(regs[0], flight, rules, obs.AlertConfig{})
		mux.Handle("/alerts", alerts.Handler())
	}
	ts := httptest.NewServer(mux)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		c.Shutdown(ctx)
		ts.Close()
	})
	return flight, alerts, ts
}

// TestClusterFlightMergesReplicas: the fleet recorder holds both replicas'
// series side by side (replica-labelled keys) and family queries aggregate
// them; /debug/flight serves the merged view.
func TestClusterFlightMergesReplicas(t *testing.T) {
	f := getFixture(t)
	flight, _, ts := newClusterObs(t, f)
	for i := 0; i < 4; i++ {
		resp, body := post(t, ts.URL, serve.NewRequest(f.inputs[i], uint64(i)))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query %d: status %d: %s", i, resp.StatusCode, body)
		}
		flight.Sample()
		if total := flight.LatestFamily("advhunter_requests_total"); total != float64(i+1) {
			t.Fatalf("fleet requests via recorder after query %d = %v, want %d", i, total, i+1)
		}
	}
	for _, key := range []string{
		`advhunter_requests_total{code="200",replica="0"}`,
		`advhunter_requests_total{code="200",replica="1"}`,
	} {
		if _, ok := flight.Latest(key); !ok {
			t.Errorf("recorder missing per-replica series %q", key)
		}
	}

	resp, err := http.Get(ts.URL + "/debug/flight?series=advhunter_requests_total")
	if err != nil {
		t.Fatal(err)
	}
	page, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(page), `replica=\"0\"`) && !strings.Contains(string(page), `replica="0"`) {
		t.Fatalf("/debug/flight missing replica-labelled series:\n%s", page)
	}
}
