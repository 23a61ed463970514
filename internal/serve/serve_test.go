package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"advhunter/internal/attack"
	"advhunter/internal/core"
	"advhunter/internal/data"
	"advhunter/internal/detect"
	"advhunter/internal/engine"
	"advhunter/internal/models"
	"advhunter/internal/train"
	"advhunter/internal/twin"
	"advhunter/internal/uarch/hpc"
)

// fixture is the shared serving fixture: a trained classifier, a fitted
// detector, clean + adversarial query sets, and the analytical-twin stack
// (profiled table, twin measurer, twin-calibrated detector). Built once per
// package run (training dominates the cost).
type fixture struct {
	ds      *data.Dataset
	meas    *core.Measurer
	tpl     *core.Template
	det     *detect.Fitted
	clean   []data.Sample // clean test images
	adv     []data.Sample // successful targeted FGSM examples
	twinTab *twin.Table
	twin    *twin.Measurer
	twinDet *detect.Fitted // fitted on twin-measured validation counts
}

var (
	fixOnce sync.Once
	fix     *fixture
)

const fixTarget = 6 // 'shirt'

func getFixture(t testing.TB) *fixture {
	t.Helper()
	fixOnce.Do(func() {
		ds := data.MustSynth("fashionmnist", 77, 40, 20)
		m := models.MustBuild("simplecnn", ds.C, ds.H, ds.W, ds.Classes, 9)
		cfg := train.DefaultConfig()
		cfg.Epochs = 30
		cfg.LearningRate = 0.02
		cfg.TargetAccuracy = 0.999
		if res := train.SGD(m, ds, cfg); res.TestAccuracy < 0.85 {
			return
		}
		meas := core.NewMeasurer(engine.NewDefault(m), 1234)
		tpl := core.BuildTemplate(meas.Clone(), ds.Train, ds.Classes, hpc.CoreEvents())
		det, err := detect.Fit("gmm", tpl, detect.DefaultConfig())
		if err != nil {
			return
		}
		atk := attack.NewTargetedFGSM(0.5, fixTarget)
		var sources []data.Sample
		for _, s := range ds.Test {
			if s.Label != fixTarget && len(sources) < 60 {
				sources = append(sources, s)
			}
		}
		adv := attack.Successful(atk, attack.Craft(m, atk, sources))
		if len(adv) < 20 {
			return
		}
		tab, err := twin.Profile(engine.NewDefault(m), twin.Probes(ds.Train, 1, 0.1, 11), 12, 0)
		if err != nil {
			return
		}
		tm, err := twin.FromMeasurer(meas, tab)
		if err != nil {
			return
		}
		// The twin screens with a detector calibrated on twin-measured
		// validation counts: the table predictions carry a small systematic
		// bias, so thresholds fitted on exact counts would misfire.
		twinTpl := core.NewTemplate(ds.Classes, hpc.CoreEvents())
		for _, mm := range twin.MeasureSet(tm.Clone(), ds.Train, 0) {
			twinTpl.Add(mm.Pred, mm.Counts, mm.Conf)
		}
		twinDet, err := detect.Fit("gmm", twinTpl, detect.DefaultConfig())
		if err != nil {
			return
		}
		fix = &fixture{ds: ds, meas: meas, tpl: tpl, det: det, clean: ds.Test, adv: adv,
			twinTab: tab, twin: tm, twinDet: twinDet}
	})
	if fix == nil {
		t.Fatal("serve fixture failed to build (training or attack collapsed)")
	}
	return fix
}

// tierConfig returns cfg with the fixture's twin stack plugged in for the
// given tier, leaving the caller's other knobs intact.
func (f *fixture) tierConfig(tier string, cfg Config) Config {
	cfg.Tier = tier
	cfg.Twin = f.twin.Clone()
	cfg.TwinDetector = f.twinDet
	return cfg
}

// newServer builds a server (and cleanup) around a fresh measurer clone so
// tests never share engine state.
func newServer(t *testing.T, f *fixture, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(f.meas.Clone(), f.det, cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
		ts.Close()
	})
	return s, ts
}

// post sends one detection request and returns the HTTP response with its
// body fully read.
func post(t *testing.T, url string, req Request) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/detect", "application/json", bytes.NewReader(raw))
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

// TestServeEndToEnd is the acceptance path: fit + persist a detector, load
// it into a server, score a batch of clean and FGSM queries over HTTP, and
// require the adversarial flag rate to exceed the clean false-positive
// rate, with /metrics reflecting the traffic.
func TestServeEndToEnd(t *testing.T) {
	f := getFixture(t)

	// Fit once, serve many: the server loads the persisted artifact.
	path := filepath.Join(t.TempDir(), "detector.gob")
	if err := detect.Save(path, f.det); err != nil {
		t.Fatalf("Save: %v", err)
	}
	det, ok := detect.TryLoad(path)
	if !ok {
		t.Fatal("TryLoad missed a fresh artifact")
	}
	s := New(f.meas.Clone(), det, Config{Workers: 2, ClassName: func(c int) string {
		return data.ClassName("fashionmnist", c)
	}})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Shutdown(context.Background())

	nClean, nAdv := 40, 20
	if nClean > len(f.clean) {
		nClean = len(f.clean)
	}
	if nAdv > len(f.adv) {
		nAdv = len(f.adv)
	}
	cleanFlags := 0
	for i := 0; i < nClean; i++ {
		resp, body := post(t, ts.URL, NewRequest(f.clean[i].X, uint64(i)))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("clean query %d: status %d: %s", i, resp.StatusCode, body)
		}
		var r Response
		if err := json.Unmarshal(body, &r); err != nil {
			t.Fatalf("clean query %d: %v", i, err)
		}
		if r.Index != uint64(i) {
			t.Fatalf("clean query %d echoed index %d", i, r.Index)
		}
		if r.Adversarial {
			cleanFlags++
		}
	}
	advFlags := 0
	for i := 0; i < nAdv; i++ {
		resp, body := post(t, ts.URL, NewRequest(f.adv[i].X, uint64(1_000_000+i)))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("adv query %d: status %d: %s", i, resp.StatusCode, body)
		}
		var r Response
		if err := json.Unmarshal(body, &r); err != nil {
			t.Fatalf("adv query %d: %v", i, err)
		}
		if r.Adversarial {
			advFlags++
		}
	}
	cleanRate := float64(cleanFlags) / float64(nClean)
	advRate := float64(advFlags) / float64(nAdv)
	t.Logf("clean flag rate %.2f (%d/%d), adversarial flag rate %.2f (%d/%d)",
		cleanRate, cleanFlags, nClean, advRate, advFlags, nAdv)
	if advRate <= cleanRate {
		t.Fatalf("adversarial flag rate %.2f must exceed clean false-positive rate %.2f", advRate, cleanRate)
	}
	if advRate < 0.5 {
		t.Fatalf("adversarial flag rate %.2f is too weak for the e2e fixture", advRate)
	}

	// /metrics must reflect the traffic.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	metricsText := string(mbody)
	want200 := fmt.Sprintf("advhunter_requests_total{code=\"200\"} %d", nClean+nAdv)
	if !strings.Contains(metricsText, want200) {
		t.Fatalf("/metrics missing %q:\n%s", want200, metricsText)
	}
	wantScans := fmt.Sprintf(`advhunter_scans_total{backend="gmm"} %d`, nClean+nAdv)
	if !strings.Contains(metricsText, wantScans) {
		t.Fatalf("/metrics missing %q:\n%s", wantScans, metricsText)
	}
	wantFlagged := fmt.Sprintf(`advhunter_flagged_total{backend="gmm"} %d`, cleanFlags+advFlags)
	if !strings.Contains(metricsText, wantFlagged) {
		t.Fatalf("/metrics missing %q:\n%s", wantFlagged, metricsText)
	}
	if !strings.Contains(metricsText, `advhunter_flags_total{backend="gmm",channel="cache-misses"}`) {
		t.Fatalf("/metrics missing per-channel flag counter:\n%s", metricsText)
	}
	if !strings.Contains(metricsText, "advhunter_queue_capacity 64") {
		t.Fatalf("/metrics missing queue capacity gauge:\n%s", metricsText)
	}
}

// TestServeAnyBackend: every registered detector backend serves through the
// same HTTP path — the server is generic over detect.Detector, and each
// response and metric series is labelled with the backend's kind.
func TestServeAnyBackend(t *testing.T) {
	f := getFixture(t)
	for _, kind := range detect.Kinds() {
		kind := kind
		t.Run(kind, func(t *testing.T) {
			var det *detect.Fitted
			if kind == "gmm" {
				det = f.det // reuse the fixture's fit; the others are cheap
			} else {
				var err error
				if det, err = detect.Fit(kind, f.tpl, detect.DefaultConfig()); err != nil {
					t.Fatalf("Fit(%q): %v", kind, err)
				}
			}
			s := New(f.meas.Clone(), det, Config{Workers: 1})
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()
			defer s.Shutdown(context.Background())

			resp, body := post(t, ts.URL, NewRequest(f.clean[0].X, 0))
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d: %s", resp.StatusCode, body)
			}
			var r Response
			if err := json.Unmarshal(body, &r); err != nil {
				t.Fatal(err)
			}
			if r.Backend != kind {
				t.Fatalf("response backend %q, want %q", r.Backend, kind)
			}
			for _, ch := range det.Channels() {
				if _, ok := r.Scores[ch]; !ok {
					t.Fatalf("response missing score channel %q: %s", ch, body)
				}
			}
			mresp, err := http.Get(ts.URL + "/metrics")
			if err != nil {
				t.Fatal(err)
			}
			mbody, _ := io.ReadAll(mresp.Body)
			mresp.Body.Close()
			want := fmt.Sprintf(`advhunter_scans_total{backend=%q} 1`, kind)
			if !strings.Contains(string(mbody), want) {
				t.Fatalf("/metrics missing %q:\n%s", want, mbody)
			}
		})
	}
}

// TestServeBackpressure: with the worker pool gated shut, concurrent
// requests overflow the bounded queue and the overflow answers 429 with a
// Retry-After hint; releasing the gate completes the admitted requests.
func TestServeBackpressure(t *testing.T) {
	f := getFixture(t)
	gate := make(chan struct{})
	s := New(f.meas.Clone(), f.det, Config{
		QueueSize: 1, Workers: 1, RetryAfter: 7, gate: gate,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Shutdown(context.Background())

	const n = 10
	type outcome struct {
		status     int
		retryAfter string
	}
	results := make(chan outcome, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, _ := post(t, ts.URL, NewRequest(f.clean[0].X, uint64(i)))
			results <- outcome{resp.StatusCode, resp.Header.Get("Retry-After")}
		}(i)
	}

	// At most 1 request is held by the dispatcher, 1 sits in the queue, and
	// a third may slip in as the dispatcher dequeues; everything else must
	// be rejected immediately. Wait for those rejections, then release.
	rejected := 0
	var sawRetryAfter bool
	timeout := time.After(30 * time.Second)
	for rejected < n-3 {
		select {
		case o := <-results:
			if o.status != http.StatusTooManyRequests {
				t.Fatalf("got status %d before the gate opened", o.status)
			}
			if o.retryAfter == "7" {
				sawRetryAfter = true
			}
			rejected++
		case <-timeout:
			t.Fatalf("only %d rejections before timeout", rejected)
		}
	}
	if !sawRetryAfter {
		t.Fatal("429 responses must carry the configured Retry-After header")
	}
	close(gate)
	wg.Wait()
	close(results)
	completed := 0
	for o := range results {
		switch o.status {
		case http.StatusOK:
			completed++
		case http.StatusTooManyRequests:
			rejected++
		default:
			t.Fatalf("unexpected status %d", o.status)
		}
	}
	if completed < 1 || completed+rejected != n {
		t.Fatalf("completed %d rejected %d of %d", completed, rejected, n)
	}
}

// TestServeMaxInflight: the connection-level cap rejects over-concurrent
// clients even when the admission queue has plenty of room — the knob is
// independent of QueueSize (queued jobs are only part of in-flight work; a
// closed-loop client also holds its connection through measurement and the
// response write).
func TestServeMaxInflight(t *testing.T) {
	f := getFixture(t)
	gate := make(chan struct{})
	s := New(f.meas.Clone(), f.det, Config{
		QueueSize: 32, Workers: 1, MaxInflight: 2, RetryAfter: 3, gate: gate,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Shutdown(context.Background())

	const n = 10
	type outcome struct {
		status     int
		retryAfter string
	}
	results := make(chan outcome, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, _ := post(t, ts.URL, NewRequest(f.clean[0].X, uint64(i)))
			results <- outcome{resp.StatusCode, resp.Header.Get("Retry-After")}
		}(i)
	}

	// The queue (capacity 32) can hold every request, so all rejections here
	// are the in-flight cap's: exactly 2 requests may be admitted, the other
	// 8 must answer 429 while the pool is gated shut.
	rejected := 0
	var sawRetryAfter bool
	timeout := time.After(30 * time.Second)
	for rejected < n-2 {
		select {
		case o := <-results:
			if o.status != http.StatusTooManyRequests {
				t.Fatalf("got status %d before the gate opened", o.status)
			}
			if o.retryAfter == "3" {
				sawRetryAfter = true
			}
			rejected++
		case <-timeout:
			t.Fatalf("only %d in-flight rejections before timeout", rejected)
		}
	}
	if !sawRetryAfter {
		t.Fatal("in-flight 429s must carry the configured Retry-After header")
	}
	close(gate)
	wg.Wait()
	close(results)
	completed := 0
	for o := range results {
		if o.status == http.StatusOK {
			completed++
		}
	}
	if completed != 2 {
		t.Fatalf("completed %d requests, want exactly the 2 admitted ones", completed)
	}

	// The cap is observable: the server exports the in-flight gauges.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "advhunter_inflight_capacity 2") {
		t.Fatalf("/metrics missing advhunter_inflight_capacity 2:\n%s", body)
	}
}

// TestServeConsumersWorkConserving: every replica runs its own consumer, so a
// request admitted while one replica is busy is picked up by an idle replica
// instead of waiting behind the busy one, and a consumer takes one job at a
// time: a backlog of 2·k jobs is never held on one replica while the other
// could take it, so every decision covers exactly one job.
func TestServeConsumersWorkConserving(t *testing.T) {
	f := getFixture(t)
	const k = 4
	gate := make(chan struct{})
	s, ts := newServer(t, f, Config{Workers: 2, QueueSize: 2 * k, gate: gate})
	var open sync.Once
	release := func() { open.Do(func() { close(gate) }) }
	t.Cleanup(release)

	await := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}
	var wg sync.WaitGroup
	send := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if resp, body := post(t, ts.URL, NewRequest(f.clean[i].X, uint64(i))); resp.StatusCode != http.StatusOK {
				t.Errorf("request %d: status %d: %s", i, resp.StatusCode, body)
			}
		}()
	}

	// Two requests admitted one after the other: the first holds one replica
	// at the gate, so the second must be held by the other.
	for i := 0; i < 2; i++ {
		send(i)
		await(fmt.Sprintf("%d busy replicas", i+1), func() bool { return s.stats.poolBusy.Value() == float64(i+1) })
	}
	for i := 2; i < 2+2*k; i++ {
		send(i)
	}
	await("a full backlog", func() bool { return s.adm.QueueDepth() == 2*k })
	release()
	wg.Wait()

	// Every decision after the two gated singletons came out of the backlog,
	// one job each.
	series := func(text, name string) string {
		for _, line := range strings.Split(text, "\n") {
			if v, ok := strings.CutPrefix(line, name+" "); ok {
				return v
			}
		}
		return "absent"
	}
	text := string(scrape(t, ts.URL))
	total, single := series(text, "advhunter_batch_size_count"), series(text, `advhunter_batch_size_bucket{le="1"}`)
	if want := strconv.Itoa(2 + 2*k); total != want || single != want {
		t.Fatalf("%s of %s batches held one job; want all %s batches to hold exactly one", single, total, want)
	}
	if got := s.stats.batchSizes.Sum(); got != 2+2*k {
		t.Fatalf("batches held %v jobs, want %d", got, 2+2*k)
	}
}

// TestServeTimeout: a request whose budget expires while the pool is gated
// answers 504 and is dropped before it is decided.
func TestServeTimeout(t *testing.T) {
	f := getFixture(t)
	gate := make(chan struct{})
	s := New(f.meas.Clone(), f.det, Config{
		QueueSize: 4, Workers: 1, Timeout: 50 * time.Millisecond, gate: gate,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer func() {
		s.Shutdown(context.Background())
	}()

	resp, body := post(t, ts.URL, NewRequest(f.clean[0].X, 0))
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d (%s), want 504", resp.StatusCode, body)
	}
	close(gate)
}

// TestServeDrain: Shutdown completes queued work, flips /readyz to 503, and
// rejects new detection requests with 503.
func TestServeDrain(t *testing.T) {
	f := getFixture(t)
	s := New(f.meas.Clone(), f.det, Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if resp, _ := http.Get(ts.URL + "/readyz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz before drain: %d", resp.StatusCode)
	}
	if resp, body := post(t, ts.URL, NewRequest(f.clean[0].X, 0)); resp.StatusCode != http.StatusOK {
		t.Fatalf("detect before drain: %d (%s)", resp.StatusCode, body)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if resp, _ := http.Get(ts.URL + "/readyz"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz after drain: %d", resp.StatusCode)
	}
	if resp, _ := post(t, ts.URL, NewRequest(f.clean[0].X, 1)); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("detect after drain: %d", resp.StatusCode)
	}
	// healthz stays 200: the process is alive, just not accepting work.
	if resp, _ := http.Get(ts.URL + "/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after drain: %d", resp.StatusCode)
	}
	// Shutdown is idempotent.
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("second Shutdown: %v", err)
	}
}

// TestServeRejectsMalformed: handler-level 400s for the decode failures the
// fuzzer explores structurally.
func TestServeRejectsMalformed(t *testing.T) {
	f := getFixture(t)
	_, ts := newServer(t, f, Config{Workers: 1})

	good := NewRequest(f.clean[0].X, 0)
	shape := good.Shape
	n := len(good.Data)
	cases := []struct {
		name string
		body string
	}{
		{"empty", ""},
		{"not json", "][ nonsense"},
		{"wrong type", `{"shape":"x","data":[1]}`},
		{"unknown field", `{"shape":[1,28,28],"data":[],"extra":1}`},
		{"shape rank", fmt.Sprintf(`{"shape":[%d],"data":[0.5]}`, n)},
		{"shape mismatch", `{"shape":[3,32,32],"data":[]}`},
		{"short data", fmt.Sprintf(`{"shape":[%d,%d,%d],"data":[0.5,0.5]}`, shape[0], shape[1], shape[2])},
		{"trailing garbage", `{"shape":[1,28,28],"data":[]}{"again":true}`},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/detect", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d (%s), want 400", tc.name, resp.StatusCode, body)
		}
		var e errorResponse
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			t.Fatalf("%s: 400 body %q is not an error object", tc.name, body)
		}
	}

	// GET is not allowed on /detect.
	resp, err := http.Get(ts.URL + "/detect")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /detect: status %d, want 405", resp.StatusCode)
	}
}
