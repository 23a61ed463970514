package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"advhunter/internal/obs"
)

// lockedBuffer serialises log writes from handler goroutines and the
// observability loop so the test can read complete JSON lines.
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

func scrape(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics Content-Type = %q", ct)
	}
	return body
}

// TestMetricsExposition drives real traffic through the server and then holds
// the full /metrics output to the strict exposition-format linter, checking
// that one scrape carries series from every instrumented layer: HTTP,
// admission queue, worker pool, engine measurement, and pipeline stages. The
// measure and score stages are timed once per decision, and no second timer
// of them is exported.
func TestMetricsExposition(t *testing.T) {
	f := getFixture(t)
	_, ts := newServer(t, f, Config{Workers: 2})

	for i := 0; i < 5; i++ {
		resp, body := post(t, ts.URL, NewRequest(f.clean[i].X, uint64(i)))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query %d: status %d: %s", i, resp.StatusCode, body)
		}
	}
	// One malformed request so a non-200 code series exists too.
	resp, err := http.Post(ts.URL+"/detect", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	body := scrape(t, ts.URL)
	if err := obs.Lint(body); err != nil {
		t.Fatalf("/metrics failed the exposition linter: %v\n%s", err, body)
	}

	text := string(body)
	perLayer := map[string][]string{
		"http": {
			`advhunter_requests_total{code="200"} 5`,
			`advhunter_requests_total{code="400"} 1`,
			"advhunter_request_duration_seconds_bucket",
			"advhunter_batch_size_count",
		},
		"queue": {
			"advhunter_queue_capacity 64",
			"advhunter_queue_depth 0",
		},
		"pool": {
			"advhunter_pool_workers 2",
			"advhunter_pool_busy_workers 0",
		},
		"engine": {
			`advhunter_hpc_event_count{event="cache-misses"}`,
		},
		"stages": {
			`advhunter_stage_duration_seconds_bucket{stage="decode"`,
			`advhunter_stage_duration_seconds_bucket{stage="queue"`,
			`advhunter_stage_duration_seconds_bucket{stage="measure"`,
			`advhunter_stage_duration_seconds_bucket{stage="score"`,
			`advhunter_stage_duration_seconds_bucket{stage="verdict"`,
			`advhunter_stage_duration_seconds_count{stage="measure"} 5` + "\n",
			`advhunter_stage_duration_seconds_count{stage="score"} 5` + "\n",
		},
		"detection": {
			`advhunter_scans_total{backend="gmm"} 5`,
		},
	}
	for layer, wants := range perLayer {
		for _, want := range wants {
			if !strings.Contains(text, want) {
				t.Errorf("layer %s: /metrics missing %q", layer, want)
			}
		}
	}
	// The exact pool sets the event gauges from each reading it scores.
	if v := series(text, `advhunter_hpc_event_count{event="cache-misses"}`); v == "0" || v == "absent" {
		t.Errorf("advhunter_hpc_event_count{event=\"cache-misses\"} = %s after 5 readings", v)
	}
	for _, gone := range []string{
		"advhunter_inference_duration_seconds",
		"advhunter_tier_duration_seconds",
		"advhunter_pool_task_duration_seconds",
		"advhunter_pool_tasks_total",
	} {
		if strings.Contains(text, gone) {
			t.Errorf("/metrics still exports %s", gone)
		}
	}
	if t.Failed() {
		t.Logf("full scrape:\n%s", text)
	}
}

// TestObsIsObserveOnly is the determinism guard for the observability layer:
// a server with every observability surface enabled — debug-level JSON
// logging (which also emits every span record), the trace ring with a JSONL
// sink, and a flight recorder and alert engine over its registry, sampled
// and evaluated by the one loop at 1 ms throughout the traffic — must return
// byte-identical /detect responses to a server with all of it off.
// Instrumentation observes the pipeline; it never steers it.
func TestObsIsObserveOnly(t *testing.T) {
	f := getFixture(t)
	var logs, traceLog lockedBuffer
	verbose, err := obs.NewLogger(&logs, slog.LevelDebug, "json")
	if err != nil {
		t.Fatal(err)
	}
	_, quietTS := newServer(t, f, Config{Workers: 2})
	loud, loudTS := newServer(t, f, Config{
		Workers:   2,
		Logger:    verbose,
		TraceRing: 32,
		TraceLog:  &traceLog,
	})
	flight := obs.NewRecorder(obs.RecorderConfig{}, loud.Registry())
	alerts := obs.NewAlertEngine(loud.Registry(), flight, DefaultAlertRules(), obs.AlertConfig{Logger: verbose})
	stop := flight.Run(time.Millisecond, alerts)
	defer stop()

	queries := make([]Request, 0, 8)
	for i := 0; i < 4; i++ {
		queries = append(queries, NewRequest(f.clean[i].X, uint64(i)))
		queries = append(queries, NewRequest(f.adv[i].X, uint64(500+i)))
	}
	for qi, q := range queries {
		resp1, body1 := post(t, quietTS.URL, q)
		resp2, body2 := post(t, loudTS.URL, q)
		if resp1.StatusCode != http.StatusOK || resp2.StatusCode != http.StatusOK {
			t.Fatalf("query %d: statuses %d/%d", qi, resp1.StatusCode, resp2.StatusCode)
		}
		if !bytes.Equal(body1, body2) {
			t.Fatalf("query %d: responses diverged with observability enabled:\nquiet: %s\nloud:  %s",
				qi, body1, body2)
		}
		if id := resp2.Header.Get("X-Request-ID"); !strings.HasPrefix(id, "r") {
			t.Fatalf("query %d: loud server echoed no request id (got %q)", qi, id)
		}
	}

	// The trace ring captured every request as one wide event: id, status,
	// backend, verdict, and the pipeline stages, with the queue wait split out.
	traces := loud.Traces().Last(len(queries))
	if len(traces) != len(queries) {
		t.Fatalf("trace ring holds %d records, want %d", len(traces), len(queries))
	}
	for _, tr := range traces {
		if !strings.HasPrefix(tr.ID, "r") || tr.Status != http.StatusOK {
			t.Fatalf("trace = %+v", tr)
		}
		if tr.Backend != "gmm" || (tr.Verdict != "adversarial" && tr.Verdict != "benign") {
			t.Fatalf("trace missing routing fields: %+v", tr)
		}
		got := map[string]bool{}
		for _, st := range tr.Stages {
			got[st.Stage] = true
		}
		for _, stage := range []string{"decode", "queue", "measure", "score", "verdict"} {
			if !got[stage] {
				t.Fatalf("trace %s missing stage %q: %+v", tr.ID, stage, tr.Stages)
			}
		}
		if tr.TotalMs <= 0 {
			t.Fatalf("trace %s has no total duration: %+v", tr.ID, tr)
		}
	}

	// The JSONL sink mirrored the ring, one TraceView per line.
	sunk := strings.Split(strings.TrimSpace(traceLog.String()), "\n")
	if len(sunk) != len(queries) {
		t.Fatalf("trace sink holds %d lines, want %d", len(sunk), len(queries))
	}
	var tv obs.TraceView
	if err := json.Unmarshal([]byte(sunk[0]), &tv); err != nil {
		t.Fatalf("sink line not a TraceView: %v %q", err, sunk[0])
	}

	// The observability endpoints answer: /debug/trace serves the ring,
	// /debug/flight holds the traffic's series, /alerts the default rules.
	resp, err := http.Get(loudTS.URL + "/debug/trace")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"traces"`) {
		t.Fatalf("GET /debug/trace = %d:\n%s", resp.StatusCode, body)
	}
	flight.Sample()
	if v, ok := flight.Latest(`advhunter_requests_total{code="200"}`); !ok || v != float64(len(queries)) {
		t.Fatalf("recorder holds %v 200s (ok %t), want %d", v, ok, len(queries))
	}
	for want, h := range map[string]http.Handler{
		`"series_count"`: flight.Handler(),
		`"detect-drift"`: alerts.Handler(),
	} {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/", nil))
		if rr.Code != http.StatusOK || !strings.Contains(rr.Body.String(), want) {
			t.Fatalf("handler = %d, missing %s:\n%s", rr.Code, want, rr.Body.String())
		}
	}

	// The loud server's log is a stream of JSON records, every one carrying
	// the propagated request_id, span records included.
	var requests, spans int
	stages := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(logs.String()), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line is not JSON: %q (%v)", line, err)
		}
		id, _ := rec["request_id"].(string)
		if !strings.HasPrefix(id, "r") {
			t.Fatalf("log line missing request_id: %q", line)
		}
		switch rec["msg"] {
		case "request":
			requests++
			if rec["status"] != float64(200) {
				t.Fatalf("unexpected request status in %q", line)
			}
		case "span":
			spans++
			if stage, _ := rec["stage"].(string); stage != "" {
				stages[stage] = true
			}
		}
	}
	if requests != len(queries) {
		t.Fatalf("logged %d request records, want %d", requests, len(queries))
	}
	for _, stage := range []string{"decode", "queue", "measure", "score", "verdict"} {
		if !stages[stage] {
			t.Fatalf("no span record for stage %q (saw %v, %d spans)", stage, stages, spans)
		}
	}
}

// TestRequestIDEcho: a well-formed caller-supplied X-Request-ID is adopted —
// echoed on the response and stamped on the request's trace record — while a
// malformed one is replaced by a server-generated id. Error paths echo too.
func TestRequestIDEcho(t *testing.T) {
	f := getFixture(t)
	s, ts := newServer(t, f, Config{Workers: 1, TraceRing: 8})

	send := func(id string, body []byte) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/detect", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		if id != "" {
			req.Header.Set("X-Request-ID", id)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}
	raw, err := json.Marshal(NewRequest(f.clean[0].X, 1))
	if err != nil {
		t.Fatal(err)
	}

	if got := send("edge-abc.1", raw).Header.Get("X-Request-ID"); got != "edge-abc.1" {
		t.Fatalf("valid inbound id not adopted: got %q", got)
	}
	if got := send("bad id!", raw).Header.Get("X-Request-ID"); !strings.HasPrefix(got, "r") || strings.Contains(got, " ") {
		t.Fatalf("malformed inbound id not replaced: got %q", got)
	}
	if got := send("", raw).Header.Get("X-Request-ID"); !strings.HasPrefix(got, "r") {
		t.Fatalf("absent inbound id not generated: got %q", got)
	}
	// Error paths carry the id too: a malformed body still answers with one.
	if got := send("err-path-7", []byte("{")).Header.Get("X-Request-ID"); got != "err-path-7" {
		t.Fatalf("error response dropped the id: got %q", got)
	}

	// The adopted id is the trace record's identity.
	var seen bool
	for _, tr := range s.Traces().Last(8) {
		if tr.ID == "edge-abc.1" && tr.Status == http.StatusOK {
			seen = true
		}
	}
	if !seen {
		t.Fatalf("adopted id missing from trace ring: %+v", s.Traces().Last(8))
	}
}

// TestDebugBuildEndpoint: /debug/build answers JSON build metadata.
func TestDebugBuildEndpoint(t *testing.T) {
	f := getFixture(t)
	_, ts := newServer(t, f, Config{Workers: 1})
	resp, err := http.Get(ts.URL + "/debug/build")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var info obs.BuildInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatalf("body %q: %v", body, err)
	}
	if info.GoVersion == "" {
		t.Fatalf("build info missing go version: %s", body)
	}
}
