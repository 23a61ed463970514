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
	"advhunter/internal/tensor"
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
	twin    *core.Measurer
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
		for _, mm := range core.MeasureSet(tm.Clone(), ds.Train) {
			twinTpl.Add(mm)
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

// autoConfig returns cfg serving the auto tier: the fixture's twin stack
// plugged in, the caller's other knobs left intact.
func (f *fixture) autoConfig(cfg Config) Config {
	cfg.Twin = f.twin.Clone()
	cfg.TwinDetector = f.twinDet
	return cfg
}

// twinOnlyConfig returns cfg serving the auto tier with a negative margin,
// so the twin decides every query.
func (f *fixture) twinOnlyConfig(cfg Config) Config {
	cfg.EscalationMargin = -1
	return f.autoConfig(cfg)
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
	// flagCounts posts the clean and adversarial queries and counts the
	// flagged responses of each set.
	flagCounts := func(t *testing.T, url string) (cleanFlags, advFlags int) {
		t.Helper()
		flagged := func(x *tensor.Tensor, idx uint64) bool {
			resp, body := post(t, url, NewRequest(x, idx))
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("query %d: status %d: %s", idx, resp.StatusCode, body)
			}
			var r Response
			if err := json.Unmarshal(body, &r); err != nil {
				t.Fatalf("query %d: %v", idx, err)
			}
			if r.Index != idx {
				t.Fatalf("query %d echoed index %d", idx, r.Index)
			}
			return r.Adversarial
		}
		for i := 0; i < nClean; i++ {
			if flagged(f.clean[i].X, uint64(i)) {
				cleanFlags++
			}
		}
		for i := 0; i < nAdv; i++ {
			if flagged(f.adv[i].X, uint64(1_000_000+i)) {
				advFlags++
			}
		}
		return cleanFlags, advFlags
	}

	// Detection quality over HTTP, per tier: adversarial queries must be
	// flagged more often than clean ones on exact, on auto, and on auto with
	// a negative margin ("twin"), where the twin decides every query.
	var cleanFlags, advFlags int // the exact server's, for the /metrics checks
	for _, tier := range []string{TierExact, TierAuto, TierTwin} {
		t.Run(tier, func(t *testing.T) {
			url := ts.URL
			switch tier {
			case TierAuto:
				_, tts := newServer(t, f, f.autoConfig(Config{Workers: 2}))
				url = tts.URL
			case TierTwin:
				_, tts := newServer(t, f, f.twinOnlyConfig(Config{Workers: 2}))
				url = tts.URL
			}
			c, a := flagCounts(t, url)
			cleanRate, advRate := float64(c)/float64(nClean), float64(a)/float64(nAdv)
			t.Logf("clean flag rate %.2f (%d/%d), adversarial flag rate %.2f (%d/%d)",
				cleanRate, c, nClean, advRate, a, nAdv)
			if advRate <= cleanRate {
				t.Fatalf("adversarial flag rate %.2f must exceed clean false-positive rate %.2f", advRate, cleanRate)
			}
			if tier == TierExact {
				if advRate < 0.5 {
					t.Fatalf("adversarial flag rate %.2f is too weak for the e2e fixture", advRate)
				}
				cleanFlags, advFlags = c, a
			}
		})
	}
	if t.Failed() {
		return
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

// TestServeBackpressure: with the replica gated shut, Workers+QueueSize
// requests are admitted and every other concurrent request answers 429 with
// a Retry-After hint before its body is read; opening the gate completes the
// admitted ones.
func TestServeBackpressure(t *testing.T) {
	f := getFixture(t)
	gate := make(chan struct{})
	s := New(f.meas.Clone(), f.det, Config{
		QueueSize: 1, Workers: 1, gate: gate,
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

	// The 2 admitted requests are held until the gate opens, so the other 8
	// must answer 429 while it is shut.
	timeout := time.After(30 * time.Second)
	for rejected := 0; rejected < n-2; rejected++ {
		select {
		case o := <-results:
			if o.status != http.StatusTooManyRequests {
				t.Fatalf("got status %d before the gate opened", o.status)
			}
			if o.retryAfter != RetryAfter {
				t.Fatalf("429 carries Retry-After %q, want %q", o.retryAfter, RetryAfter)
			}
		case <-timeout:
			t.Fatalf("only %d rejections before timeout", rejected)
		}
	}
	close(gate)
	wg.Wait()
	close(results)
	for o := range results {
		if o.status != http.StatusOK {
			t.Fatalf("admitted request answered %d, want 200", o.status)
		}
	}
	// The server's counters agree with the clients, and only the admitted
	// requests had their bodies decoded.
	m := string(scrape(t, ts.URL))
	for _, want := range []string{
		`advhunter_requests_total{code="200"} 2` + "\n",
		`advhunter_requests_total{code="429"} 8` + "\n",
		`advhunter_stage_duration_seconds_count{stage="decode"} 2` + "\n",
	} {
		if !strings.Contains(m, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, m)
		}
	}
}

// await polls cond until it holds, failing the test after 10 s.
func await(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// series returns the value of one series on an exposition page, or "absent".
func series(page, name string) string {
	for _, line := range strings.Split(page, "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			return v
		}
	}
	return "absent"
}

// TestServeReplicasWorkConserving: a request admitted while one replica is
// busy is decided on the idle one instead of waiting behind the busy one,
// and a replica decides one request at a time: with two gated requests
// holding both replicas and 2·k more waiting, every one of the 2+2·k is
// decided on its own once the gate opens.
func TestServeReplicasWorkConserving(t *testing.T) {
	f := getFixture(t)
	const k = 4
	gate := make(chan struct{})
	s, ts := newServer(t, f, Config{Workers: 2, QueueSize: 2 * k, gate: gate})
	var open sync.Once
	release := func() { open.Do(func() { close(gate) }) }
	t.Cleanup(release)

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
		await(t, fmt.Sprintf("%d busy replicas", i+1), func() bool { return s.cfg.Workers-len(s.replicas) == i+1 })
	}
	for i := 2; i < 2+2*k; i++ {
		send(i)
	}
	depth := strconv.Itoa(2 * k)
	await(t, "a full queue", func() bool { return series(string(scrape(t, ts.URL)), "advhunter_queue_depth") == depth })
	release()
	wg.Wait()

	// Every request was decided on its own.
	text := string(scrape(t, ts.URL))
	total, single := series(text, "advhunter_batch_size_count"), series(text, `advhunter_batch_size_bucket{le="1"}`)
	if want := strconv.Itoa(2 + 2*k); total != want || single != want {
		t.Fatalf("%s of %s decisions held one request; want all %s to hold exactly one", single, total, want)
	}
	if got := s.stats.batchSizes.Sum(); got != 2+2*k {
		t.Fatalf("decisions held %v requests, want %d", got, 2+2*k)
	}
}

// TestServeTimeout: a request whose budget expires while the replica is
// gated answers 504 and is never decided.
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
	if got := s.stats.scans.Value(); got != 0 {
		t.Fatalf("%v requests decided, want 0", got)
	}
	close(gate)
}

// TestServeDrain: Shutdown answers every admitted request, flips /readyz to
// 503, and rejects new detection requests with 503 — on an idle server and
// with one request holding the replica and another waiting for it.
func TestServeDrain(t *testing.T) {
	f := getFixture(t)
	t.Run("idle", func(t *testing.T) {
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
	})
	t.Run("in-flight", func(t *testing.T) {
		gate := make(chan struct{})
		s := New(f.meas.Clone(), f.det, Config{Workers: 1, gate: gate})
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		var open sync.Once
		release := func() { open.Do(func() { close(gate) }) }
		defer release()

		// One request holds the replica at the gate, another waits for it.
		statuses := make(chan int, 2)
		for i := 0; i < 2; i++ {
			go func(i int) {
				resp, _ := post(t, ts.URL, NewRequest(f.clean[i].X, uint64(i)))
				statuses <- resp.StatusCode
			}(i)
		}
		await(t, "one held and one waiting request", func() bool {
			return s.cfg.Workers-len(s.replicas) == 1 && s.waiting.Load() == 1
		})

		short, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		defer cancel()
		if err := s.Shutdown(short); err != context.DeadlineExceeded {
			t.Fatalf("Shutdown past its deadline: %v, want %v", err, context.DeadlineExceeded)
		}
		if resp, _ := post(t, ts.URL, NewRequest(f.clean[2].X, 2)); resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("detect while draining: %d, want 503", resp.StatusCode)
		}
		drained := make(chan error, 1)
		go func() { drained <- s.Shutdown(context.Background()) }()
		select {
		case err := <-drained:
			t.Fatalf("Shutdown returned (%v) before the gate opened", err)
		case <-time.After(50 * time.Millisecond):
		}

		release()
		for i := 0; i < 2; i++ {
			select {
			case code := <-statuses:
				if code != http.StatusOK {
					t.Fatalf("in-flight request answered %d, want 200", code)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("in-flight request not answered")
			}
		}
		select {
		case err := <-drained:
			if err != nil {
				t.Fatalf("Shutdown: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("Shutdown did not return after the last answer")
		}
	})
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
