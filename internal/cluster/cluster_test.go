package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"advhunter/internal/core"
	"advhunter/internal/data"
	"advhunter/internal/detect"
	"advhunter/internal/engine"
	"advhunter/internal/models"
	"advhunter/internal/obs"
	"advhunter/internal/serve"
	"advhunter/internal/tensor"
	"advhunter/internal/uarch/hpc"
	"advhunter/internal/workload"
)

// fixture is deliberately lighter than the serve package's: routing and
// cache-locality properties do not depend on detection quality, so the model
// is left untrained — only the measurer and a fitted detector (any verdicts)
// are needed.
type fixture struct {
	meas   *core.Measurer
	det    *detect.Fitted
	inputs []*tensor.Tensor
}

var (
	fixOnce sync.Once
	fix     *fixture
)

func getFixture(t testing.TB) *fixture {
	t.Helper()
	fixOnce.Do(func() {
		ds := data.MustSynth("fashionmnist", 99, 24, 12)
		m := models.MustBuild("simplecnn", ds.C, ds.H, ds.W, ds.Classes, 9)
		meas := core.NewMeasurer(engine.NewDefault(m), 4321)
		tpl := core.BuildTemplate(meas.Clone(), ds.Train, ds.Classes, hpc.CoreEvents())
		det, err := detect.Fit("gmm", tpl, detect.DefaultConfig())
		if err != nil {
			return
		}
		inputs := make([]*tensor.Tensor, 0, len(ds.Test))
		for i := range ds.Test {
			inputs = append(inputs, ds.Test[i].X)
		}
		fix = &fixture{meas: meas, det: det, inputs: inputs}
	})
	if fix == nil {
		t.Fatal("cluster fixture failed to build")
	}
	return fix
}

// newCluster boots a cluster (and its cleanup) where every replica is a
// fresh single-worker exact-tier server around its own measurer clone.
func newCluster(t *testing.T, f *fixture, cfg Config) (*Cluster, *httptest.Server) {
	t.Helper()
	c := New(cfg, func(int) *serve.Server {
		return serve.New(f.meas.Clone(), f.det, serve.Config{Workers: 1})
	})
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		c.Shutdown(ctx)
		ts.Close()
	})
	return c, ts
}

func post(t *testing.T, url string, req serve.Request) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return postRaw(t, url, raw)
}

func postRaw(t *testing.T, url string, raw []byte) (*http.Response, []byte) {
	t.Helper()
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

// scrapeHitRate reads the fleet-wide truth-cache hit rate off /metrics.
func scrapeHitRate(t *testing.T, url string) float64 {
	t.Helper()
	snap, err := workload.Scrape(nil, url)
	if err != nil {
		t.Fatal(err)
	}
	hits := snap.Sum("advhunter_truth_cache_hits_total")
	misses := snap.Sum("advhunter_truth_cache_misses_total")
	if hits+misses == 0 {
		t.Fatal("no truth-cache traffic recorded")
	}
	return hits / (hits + misses)
}

// decodeSpans counts the decode stage spans every replica behind url
// recorded.
func decodeSpans(t *testing.T, url string) float64 {
	t.Helper()
	snap, err := workload.Scrape(nil, url)
	if err != nil {
		t.Fatal(err)
	}
	return snap.SumMatch("advhunter_stage_duration_seconds_count", "stage", "decode")
}

// TestClusterSingleReplicaByteIdentical: a cluster of one replica answers
// exactly what that replica would answer served directly — routing adds no
// bytes. Malformed bodies get the direct server's 400 too: the router cannot
// decode them, so it forwards the raw bytes. Valid bodies are decoded once
// per request, by the router, which hands the request to the replica.
func TestClusterSingleReplicaByteIdentical(t *testing.T) {
	f := getFixture(t)
	direct := serve.New(f.meas.Clone(), f.det, serve.Config{Workers: 1})
	dts := httptest.NewServer(direct.Handler())
	defer func() {
		direct.Shutdown(context.Background())
		dts.Close()
	}()

	valid, err := json.Marshal(serve.NewRequest(f.inputs[0], 7))
	if err != nil {
		t.Fatal(err)
	}
	outOfRange := serve.NewRequest(f.inputs[0], 7)
	outOfRange.Data[3] = 1e7
	outOfRangeRaw, err := json.Marshal(outOfRange)
	if err != nil {
		t.Fatal(err)
	}
	malformed := []struct {
		name string
		body []byte
	}{
		{"bad json", valid[:len(valid)/2]},
		{"wrong shape", []byte(`{"shape":[2,2,2],"data":[0,0,0,0,0,0,0,0]}`)},
		{"out of range", outOfRangeRaw},
		{"trailing garbage", append(append([]byte(nil), valid...), " x"...)},
	}

	_, cts := newCluster(t, f, Config{Replicas: 1})
	for i := 0; i < 4; i++ {
		req := serve.NewRequest(f.inputs[i], uint64(100+i))
		dresp, dbody := post(t, dts.URL, req)
		cresp, cbody := post(t, cts.URL, req)
		if dresp.StatusCode != http.StatusOK || cresp.StatusCode != http.StatusOK {
			t.Fatalf("query %d: direct %d, cluster %d", i, dresp.StatusCode, cresp.StatusCode)
		}
		if !bytes.Equal(dbody, cbody) {
			t.Fatalf("query %d: cluster body diverges from direct server:\n direct: %s\ncluster: %s", i, dbody, cbody)
		}
	}
	if got := decodeSpans(t, cts.URL); got != 0 {
		t.Fatalf("replica recorded %v decode spans for 4 router-decoded bodies, want 0", got)
	}
	for _, m := range malformed {
		dresp, dbody := postRaw(t, dts.URL, m.body)
		cresp, cbody := postRaw(t, cts.URL, m.body)
		if dresp.StatusCode != http.StatusBadRequest || cresp.StatusCode != dresp.StatusCode || !bytes.Equal(dbody, cbody) {
			t.Fatalf("%s: direct %d %s, cluster %d %s", m.name, dresp.StatusCode, dbody, cresp.StatusCode, cbody)
		}
	}
	if got, want := decodeSpans(t, cts.URL), float64(len(malformed)); got != want {
		t.Fatalf("replica recorded %v decode spans after the malformed bodies, want %v", got, want)
	}
}

// TestClusterRejectsMixedShapes: replicas that serve different input shapes
// are a configuration error, since the router validates every body against
// one shape and hands the decoded request to any replica.
func TestClusterRejectsMixedShapes(t *testing.T) {
	f := getFixture(t)
	other := core.NewMeasurer(engine.NewDefault(models.MustBuild("simplecnn", 3, 32, 32, 10, 9)), 1)
	var built []*serve.Server
	defer func() {
		for _, s := range built {
			s.Shutdown(context.Background())
		}
		if recover() == nil {
			t.Fatal("cluster.New accepted replicas of different input shapes")
		}
	}()
	New(Config{Replicas: 2}, func(i int) *serve.Server {
		m := f.meas.Clone()
		if i == 1 {
			m = other
		}
		s := serve.New(m, f.det, serve.Config{Workers: 1})
		built = append(built, s)
		return s
	})
}

// TestClusterRejectionsEchoRequestID: the cluster's own answers carry the
// request id, like every replica answer — here the 400 for a body beyond
// serve.MaxRequestBytes, which the router reads itself.
func TestClusterRejectionsEchoRequestID(t *testing.T) {
	f := getFixture(t)
	_, ts := newCluster(t, f, Config{Replicas: 2})
	huge := bytes.Repeat([]byte(" "), serve.MaxRequestBytes+1)
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/detect", bytes.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-ID", "caller-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized body: status %d, want 400", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Request-ID"); got != "caller-42" {
		t.Fatalf("oversized body: X-Request-ID %q, want the caller's caller-42", got)
	}
}

// TestClusterMetricsMerged: the cluster /metrics page carries every
// replica's serve series under its replica label, the cluster's own routing
// series, and still passes the strict exposition linter (one family block
// per name, no duplicate series).
func TestClusterMetricsMerged(t *testing.T) {
	f := getFixture(t)
	_, ts := newCluster(t, f, Config{Replicas: 2})
	for i := 0; i < 4; i++ {
		resp, body := post(t, ts.URL, serve.NewRequest(f.inputs[i], uint64(i)))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query %d: status %d: %s", i, resp.StatusCode, body)
		}
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	page, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.Lint(page); err != nil {
		t.Fatalf("cluster /metrics fails lint: %v", err)
	}
	for _, want := range []string{
		`advhunter_requests_total{code="200",replica="0"}`,
		`advhunter_requests_total{code="200",replica="1"}`,
		`advhunter_queue_depth{replica="0"}`,
		`advhunter_queue_depth{replica="1"}`,
		`advhunter_cluster_replicas 2`,
	} {
		if !strings.Contains(string(page), want) {
			t.Errorf("missing %q in cluster /metrics", want)
		}
	}
	// Affinity decides the split, so only the total is fixed: both replicas'
	// routed series exist and together count every request.
	snap := workload.ParseMetrics(page)
	routed := 0.0
	for _, rep := range []string{"0", "1"} {
		v, ok := snap[`advhunter_cluster_routed_total{policy="affinity",replica="`+rep+`"}`]
		if !ok {
			t.Fatalf("missing the affinity routed series of replica %s", rep)
		}
		routed += v
	}
	if routed != 4 {
		t.Fatalf("affinity routed series sum to %v, want 4", routed)
	}
}

// TestAffinityCacheLocality is the cluster's locality claim: with repeats of
// the same queries, fingerprint-affinity routing keeps the fleet-wide
// truth-cache hit rate at the single-replica level, because every repeat
// lands on the replica that already memoised the query.
func TestAffinityCacheLocality(t *testing.T) {
	f := getFixture(t)
	const distinct, rounds = 7, 4

	drive := func(url string) {
		idx := uint64(0)
		for r := 0; r < rounds; r++ {
			for i := 0; i < distinct; i++ {
				resp, body := post(t, url, serve.NewRequest(f.inputs[i], idx))
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("round %d input %d: status %d: %s", r, i, resp.StatusCode, body)
				}
				idx++
			}
		}
	}

	_, single := newCluster(t, f, Config{Replicas: 1})
	drive(single.URL)
	singleRate := scrapeHitRate(t, single.URL)

	_, aff := newCluster(t, f, Config{Replicas: 2})
	drive(aff.URL)
	affRate := scrapeHitRate(t, aff.URL)

	t.Logf("truth-cache hit rate: single=%.3f affinity=%.3f", singleRate, affRate)
	if affRate < singleRate-0.05 {
		t.Fatalf("affinity hit rate %.3f falls more than 5 points below single-replica %.3f", affRate, singleRate)
	}
}

// TestClusterShutdownDrains: after Shutdown the cluster answers 503 and
// /readyz reports draining, and a second Shutdown is safe.
func TestClusterShutdownDrains(t *testing.T) {
	f := getFixture(t)
	c, ts := newCluster(t, f, Config{Replicas: 2})
	resp, body := post(t, ts.URL, serve.NewRequest(f.inputs[0], 1))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pre-drain query: status %d: %s", resp.StatusCode, body)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := c.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	resp, _ = post(t, ts.URL, serve.NewRequest(f.inputs[0], 2))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain query: status %d, want 503", resp.StatusCode)
	}
	if !obs.ValidRequestID(resp.Header.Get("X-Request-ID")) {
		t.Fatalf("post-drain 503 carries no request id: %q", resp.Header.Get("X-Request-ID"))
	}
	r, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz after drain: status %d, want 503", r.StatusCode)
	}
	if err := c.Shutdown(ctx); err != nil {
		t.Fatalf("second Shutdown: %v", err)
	}
}

// TestRoute: the routing mechanics, without HTTP. Repeats of a fingerprint
// always land on one replica; requests without a fingerprint spread evenly.
func TestRoute(t *testing.T) {
	c := &Cluster{replicas: make([]*serve.Server, 3), ring: NewRing(3, DefaultVNodes)}
	for fp := uint64(0); fp < 100; fp++ {
		a, b := c.route(fp, true), c.route(fp, true)
		if a != b {
			t.Fatalf("fp %d routed to %d then %d", fp, a, b)
		}
	}
	seen := make(map[int]int)
	for i := 0; i < 9; i++ {
		seen[c.route(0, false)]++
	}
	for rep := 0; rep < 3; rep++ {
		if seen[rep] != 3 {
			t.Fatalf("replica %d got %d of 9 fingerprint-less requests, want 3", rep, seen[rep])
		}
	}
}
