package obs

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func render(t *testing.T, r *Registry) string {
	t.Helper()
	var buf bytes.Buffer
	if _, err := WriteMerged(&buf, r); err != nil {
		t.Fatalf("WriteMerged: %v", err)
	}
	return buf.String()
}

func TestCounterGaugeRendering(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_requests_total", "Requests.", "code")
	c.With("200").Add(3)
	c.With("500").Inc()
	g := r.Gauge("test_temperature", "Degrees.")
	g.With().Set(-2.5)

	out := render(t, r)
	for _, want := range []string{
		"# HELP test_requests_total Requests.\n# TYPE test_requests_total counter\n",
		`test_requests_total{code="200"} 3`,
		`test_requests_total{code="500"} 1`,
		"# TYPE test_temperature gauge",
		"test_temperature -2.5",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendering missing %q:\n%s", want, out)
		}
	}
	if err := Lint([]byte(out)); err != nil {
		t.Fatalf("Lint rejects registry output: %v", err)
	}
}

func TestFamiliesRenderSorted(t *testing.T) {
	r := NewRegistry()
	r.Counter("zzz_total", "Last.").With().Inc()
	r.Counter("aaa_total", "First.").With().Inc()
	out := render(t, r)
	if strings.Index(out, "aaa_total") > strings.Index(out, "zzz_total") {
		t.Fatalf("families not sorted by name:\n%s", out)
	}
}

func TestHistogramCumulativeBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_latency_seconds", "Latency.", []float64{0.1, 1, 10}).With()
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	out := render(t, r)
	for _, want := range []string{
		`test_latency_seconds_bucket{le="0.1"} 1`,
		`test_latency_seconds_bucket{le="1"} 3`,
		`test_latency_seconds_bucket{le="10"} 4`,
		`test_latency_seconds_bucket{le="+Inf"} 5`,
		`test_latency_seconds_count 5`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("histogram rendering missing %q:\n%s", want, out)
		}
	}
	if h.Count() != 5 {
		t.Fatalf("Count = %d, want 5", h.Count())
	}
	if math.Abs(h.Sum()-56.05) > 1e-9 {
		t.Fatalf("Sum = %g, want 56.05", h.Sum())
	}
	if err := Lint([]byte(out)); err != nil {
		t.Fatalf("Lint rejects histogram output: %v", err)
	}
}

func TestLabelledHistogram(t *testing.T) {
	r := NewRegistry()
	v := r.Histogram("test_stage_seconds", "Stage durations.", []float64{1}, "stage")
	v.With("measure").Observe(0.5)
	v.With("score").Observe(2)
	out := render(t, r)
	for _, want := range []string{
		`test_stage_seconds_bucket{stage="measure",le="1"} 1`,
		`test_stage_seconds_bucket{stage="score",le="+Inf"} 1`,
		`test_stage_seconds_count{stage="score"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("labelled histogram missing %q:\n%s", want, out)
		}
	}
	if err := Lint([]byte(out)); err != nil {
		t.Fatalf("Lint rejects labelled histogram: %v", err)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_weird_total", "Help with \\ backslash\nand newline.", "path").
		With("a\"b\\c\nd").Inc()
	out := render(t, r)
	if !strings.Contains(out, `test_weird_total{path="a\"b\\c\nd"} 1`) {
		t.Fatalf("label value not escaped:\n%s", out)
	}
	if !strings.Contains(out, `Help with \\ backslash\nand newline.`) {
		t.Fatalf("help not escaped:\n%s", out)
	}
	if err := Lint([]byte(out)); err != nil {
		t.Fatalf("Lint rejects escaped output: %v", err)
	}
}

func TestGaugeFuncSampledAtScrape(t *testing.T) {
	r := NewRegistry()
	depth := 0
	r.GaugeFunc("test_queue_depth", "Queue depth.", func() float64 { return float64(depth) })
	depth = 7
	if !strings.Contains(render(t, r), "test_queue_depth 7") {
		t.Fatal("GaugeFunc not sampled at scrape time")
	}
	depth = 3
	if !strings.Contains(render(t, r), "test_queue_depth 3") {
		t.Fatal("GaugeFunc not re-sampled")
	}
}

func TestReRegistrationIdempotentAndChecked(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("test_total", "Things.", "kind")
	a.With("x").Add(2)
	b := r.Counter("test_total", "Things.", "kind")
	if b.With("x").Value() != 2 {
		t.Fatal("re-registration did not resolve the same series")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("conflicting re-registration must panic")
		}
	}()
	r.Gauge("test_total", "Things.", "kind")
}

func TestConcurrentRecordingAndScraping(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_hits_total", "Hits.", "worker")
	h := r.Histogram("test_dur_seconds", "Durations.", DurationBuckets).With()
	var wg sync.WaitGroup
	const workers, per = 8, 500
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			lbl := string(rune('a' + w))
			for i := 0; i < per; i++ {
				c.With(lbl).Inc()
				h.Observe(float64(i) / per)
			}
		}()
	}
	// Scrape concurrently with recording; output must stay parseable.
	for i := 0; i < 20; i++ {
		if err := Lint([]byte(render(t, r))); err != nil {
			t.Fatalf("concurrent scrape failed lint: %v", err)
		}
	}
	wg.Wait()
	if got := h.Count(); got != workers*per {
		t.Fatalf("histogram count %d, want %d", got, workers*per)
	}
	out := render(t, r)
	if !strings.Contains(out, `test_hits_total{worker="a"} 500`) {
		t.Fatalf("per-worker counts wrong:\n%s", out)
	}
}

func TestHandlerChainsRegistries(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.Counter("test_a_total", "A.").With().Inc()
	b.Counter("test_b_total", "B.").With().Inc()
	rec := httptest.NewRecorder()
	Handler(a, b, a, nil).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	if !strings.Contains(body, "test_a_total 1") || !strings.Contains(body, "test_b_total 1") {
		t.Fatalf("chained handler missing a registry:\n%s", body)
	}
	if strings.Count(body, "test_a_total 1") != 1 {
		t.Fatalf("duplicate registry rendered twice:\n%s", body)
	}
	if err := Lint([]byte(body)); err != nil {
		t.Fatalf("chained exposition fails lint: %v", err)
	}
}

func TestParseLevelAndLoggerFormats(t *testing.T) {
	if _, err := ParseLevel("nope"); err == nil {
		t.Fatal("ParseLevel must reject unknown levels")
	}
	lv, err := ParseLevel("WARN")
	if err != nil || lv != slog.LevelWarn {
		t.Fatalf("ParseLevel(WARN) = %v, %v", lv, err)
	}
	var buf bytes.Buffer
	logger, err := NewLogger(&buf, slog.LevelInfo, "text")
	if err != nil {
		t.Fatal(err)
	}
	logger.Info("hello", "k", "v")
	if !strings.Contains(buf.String(), "k=v") {
		t.Fatalf("text logger output: %s", buf.String())
	}
	if _, err := NewLogger(&buf, slog.LevelInfo, "yaml"); err == nil {
		t.Fatal("NewLogger must reject unknown formats")
	}
}

func TestBuildInfo(t *testing.T) {
	b := Build()
	if b.GoVersion == "" {
		t.Fatal("Build() missing go version")
	}
	r := NewRegistry()
	RegisterBuildInfo(r)
	RegisterBuildInfo(r) // idempotent
	out := render(t, r)
	if !strings.Contains(out, `advhunter_build_info{version=`) {
		t.Fatalf("build info gauge missing:\n%s", out)
	}
	if err := Lint([]byte(out)); err != nil {
		t.Fatalf("build info fails lint: %v", err)
	}

	rec := httptest.NewRecorder()
	BuildInfoHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/build", nil))
	var got BuildInfo
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatalf("/debug/build is not JSON: %v", err)
	}
	if got.GoVersion != b.GoVersion {
		t.Fatalf("handler go version %q != %q", got.GoVersion, b.GoVersion)
	}
}
