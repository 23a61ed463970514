package obs

import (
	"encoding/json"
	"math"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestEachSeriesMatchesRender: the programmatic walk and the text renderer
// agree on series identity — every EachSeries key appears verbatim in the
// rendered exposition, const labels included. The flight recorder depends on
// this: its keys must be the keys workload.ParseMetrics would produce.
func TestEachSeriesMatchesRender(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("plain_total", "plain.").With().Add(3)
	reg.Counter("coded_total", "labelled.", "code").With("200").Add(7)
	reg.Gauge("depth", "gauge.").With().Set(2)
	reg.GaugeFunc("sampled", "sampled gauge.", func() float64 { return 5 })
	reg.Histogram("lat_seconds", "hist.", []float64{0.1, 1}).With().Observe(0.5)
	reg.SetConstLabels("replica", "3")

	var b strings.Builder
	if _, err := WriteMerged(&b, reg); err != nil {
		t.Fatal(err)
	}
	out := b.String()

	var n int
	reg.EachSeries(func(s SeriesSample) {
		n++
		if !strings.Contains(out, s.Key+" ") {
			t.Errorf("EachSeries key %q not in rendered exposition:\n%s", s.Key, out)
		}
		if s.Key == `coded_total{code="200",replica="3"}` && s.Value != 7 {
			t.Errorf("coded_total value = %v, want 7", s.Value)
		}
	})
	// 1 plain + 1 coded + 1 gauge + 1 sampled + (2 finite + Inf buckets + sum + count) = 9
	if n != 9 {
		t.Fatalf("EachSeries visited %d series, want 9", n)
	}

	// Order, not just identity: on two const-labelled registries whose
	// families hold six children created out of label order, each
	// registry's walk yields its keys in exactly the order its lines appear
	// on the merged page.
	replicas := []string{"0", "1"}
	var regs []*Registry
	for _, replica := range replicas {
		r := NewRegistry()
		codes := r.Counter("advhunter_requests_total", "reqs.", "code")
		lat := r.Histogram("lat_seconds", "hist.", []float64{0.1}, "route")
		for _, code := range []string{"503", "200", "429", "500", "400", "201"} {
			codes.With(code).Inc()
			lat.With(code).Observe(0.05)
		}
		r.SetConstLabels("replica", replica)
		regs = append(regs, r)
	}
	b.Reset()
	if _, err := WriteMerged(&b, regs...); err != nil {
		t.Fatal(err)
	}
	for i, r := range regs {
		var walked, rendered []string
		r.EachSeries(func(s SeriesSample) { walked = append(walked, s.Key) })
		for _, line := range strings.Split(b.String(), "\n") {
			if strings.Contains(line, `replica="`+replicas[i]+`"`) {
				rendered = append(rendered, line[:strings.LastIndexByte(line, ' ')])
			}
		}
		if strings.Join(walked, "\n") != strings.Join(rendered, "\n") {
			t.Errorf("replica %d: EachSeries order differs from the rendered page.\nwalked:\n%s\nrendered:\n%s",
				i, strings.Join(walked, "\n"), strings.Join(rendered, "\n"))
		}
	}
}

// TestEachSeriesHistogramShape: histogram component samples share a group,
// buckets are cumulative, and the +Inf bucket equals the count.
func TestEachSeriesHistogramShape(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("h_seconds", "hist.", []float64{0.1, 1}).With()
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(99)

	got := map[float64]float64{}
	var sum, count float64
	reg.EachSeries(func(s SeriesSample) {
		switch s.Suffix {
		case "bucket":
			got[s.Le] = s.Value
		case "sum":
			sum = s.Value
		case "count":
			count = s.Value
		}
		if s.Group != "h_seconds" {
			t.Errorf("group = %q, want h_seconds", s.Group)
		}
	})
	if got[0.1] != 1 || got[1] != 2 || got[math.Inf(1)] != 3 {
		t.Fatalf("cumulative buckets = %v", got)
	}
	if count != 3 || sum != 99.55 {
		t.Fatalf("sum/count = %v/%v", sum, count)
	}
}

// TestEachSeriesHistogramNeverTears: an observation landing mid-walk never
// shows up in the +Inf bucket alone. Every observation here falls in the
// first bucket, so each walk must report +Inf equal to the widest finite
// bucket; a torn read would make a windowed p99 jump to the last bound.
func TestEachSeriesHistogramNeverTears(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("h_seconds", "hist.", []float64{0.1, 1}).With()
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-quit:
				return
			default:
				h.Observe(0.05)
			}
		}
	}()
	defer func() {
		close(quit)
		<-done
	}()
	for end := time.Now().Add(200 * time.Millisecond); time.Now().Before(end); {
		var widest, inf float64
		reg.EachSeries(func(s SeriesSample) {
			if s.Le == 1 {
				widest = s.Value
			} else if math.IsInf(s.Le, 1) {
				inf = s.Value
			}
		})
		if inf != widest {
			t.Fatalf("+Inf bucket %v != le=1 bucket %v with every observation in le=0.1", inf, widest)
		}
	}
}

// TestRecorderManualMode: without Run no goroutine samples; explicit Sample
// calls build the rings and Latest/LatestFamily read them back.
func TestRecorderManualMode(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("advhunter_scans_total", "scans.", "backend").With("gmm")
	c.Add(10)

	rec := NewRecorder(RecorderConfig{}, reg, nil, reg) // nil and dup skipped

	if v, ok := rec.Latest(`advhunter_scans_total{backend="gmm"}`); !ok || v != 10 {
		t.Fatalf("Latest after construction = %v,%v; want 10,true", v, ok)
	}
	c.Add(5)
	rec.Sample()
	if v := rec.LatestFamily("advhunter_scans_total"); v != 15 {
		t.Fatalf("LatestFamily = %v, want 15", v)
	}
}

// TestRecorderRate: windowed counter rates difference first/last samples in
// the window; the error fraction (bad/total) is timing-free.
func TestRecorderRate(t *testing.T) {
	reg := NewRegistry()
	req := reg.Counter("advhunter_requests_total", "reqs.", "code")
	ok200 := req.With("200")
	bad429 := req.With("429")
	ok200.Add(10)

	rec := NewRecorder(RecorderConfig{}, reg)

	time.Sleep(5 * time.Millisecond)
	ok200.Add(30) // +30
	bad429.Add(10)
	rec.Sample()
	time.Sleep(5 * time.Millisecond)
	bad429.Add(10) // +20 total bad
	rec.Sample()

	total := rec.RateFamily("advhunter_requests_total", time.Minute)
	if total <= 0 {
		t.Fatalf("total rate = %v, want > 0", total)
	}
	bad := rec.Rate(time.Minute, func(key string) bool {
		return strings.Contains(key, `code="429"`)
	})
	// Both rates cover the same elapsed span, so the fraction is exact:
	// 20 new 429s out of 50 new requests.
	if frac := bad / total; math.Abs(frac-0.4) > 1e-9 {
		t.Fatalf("error fraction = %v, want 0.4", frac)
	}
	// Outside any window: no rate.
	if v := rec.RateFamily("advhunter_requests_total", time.Nanosecond); v != 0 {
		t.Fatalf("rate over empty window = %v, want 0", v)
	}
}

// TestRecorderQuantile: bucket-delta quantiles interpolate inside the
// holding bucket, merge multiple groups, and return NaN with no data.
func TestRecorderQuantile(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat_seconds", "hist.", []float64{0.1, 0.5, 1}, "replica")
	h0 := h.With("0")
	h1 := h.With("1")

	rec := NewRecorder(RecorderConfig{}, reg)

	if !math.IsNaN(rec.Quantile("lat_seconds", 0.5, time.Minute)) {
		t.Fatal("quantile with no observations should be NaN")
	}

	time.Sleep(2 * time.Millisecond)
	for i := 0; i < 5; i++ {
		h0.Observe(0.05) // le=0.1 bucket
		h1.Observe(0.05)
	}
	rec.Sample()

	// 10 observations all inside (0, 0.1]; p50 rank=5 of 10 → 0.05.
	if got := rec.Quantile("lat_seconds", 0.5, time.Minute); math.Abs(got-0.05) > 1e-9 {
		t.Fatalf("p50 = %v, want 0.05", got)
	}

	time.Sleep(2 * time.Millisecond)
	for i := 0; i < 10; i++ {
		h0.Observe(5) // past the last finite bound
	}
	rec.Sample()
	// 20 observations, 10 past the widest bound: p99 lands in +Inf, reported
	// as the last finite bound.
	if got := rec.Quantile("lat_seconds", 0.99, time.Minute); got != 1 {
		t.Fatalf("p99 with tail past last bound = %v, want 1", got)
	}
}

// TestRecorderBackground: Run samples on its ticker with no alert engine;
// its stop halts the loop, returns twice, and sampling stays stopped.
func TestRecorderBackground(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("ticks_total", "ticks.").With()
	rec := NewRecorder(RecorderConfig{Samples: 8}, reg)
	stop := rec.Run(time.Millisecond, nil)
	c.Add(1)
	deadline := time.Now().Add(2 * time.Second)
	for {
		if v, ok := rec.Latest("ticks_total"); ok && v == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("Run never sampled the increment")
		}
		time.Sleep(time.Millisecond)
	}
	stop()
	stop() // idempotent
	c.Add(1)
	time.Sleep(5 * time.Millisecond)
	if v, _ := rec.Latest("ticks_total"); v != 1 {
		t.Fatalf("sampled %v after stop, want the last value 1", v)
	}
}

// TestRecorderRingWrap: rings hold the last Samples points and the oldest
// fall off.
func TestRecorderRingWrap(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("w_total", "w.").With()
	rec := NewRecorder(RecorderConfig{Samples: 4}, reg)
	for i := 0; i < 10; i++ {
		c.Inc()
		rec.Sample()
	}
	rec.mu.RLock()
	rs := rec.series["w_total"]
	rec.mu.RUnlock()
	if rs.size != 4 {
		t.Fatalf("ring size = %d, want 4", rs.size)
	}
	if _, v := rs.at(rs.size - 1); v != 10 {
		t.Fatalf("newest = %v, want 10", v)
	}
	if _, v := rs.at(0); v != 7 {
		t.Fatalf("oldest = %v, want 7", v)
	}
}

// TestFlightHandler: /debug/flight renders rates, quantiles and series, and
// honours the series filter and points parameters.
func TestFlightHandler(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("advhunter_requests_total", "reqs.", "code").With("200")
	h := reg.Histogram("advhunter_request_duration_seconds", "lat.", []float64{0.1, 1}).With()
	c.Add(2)
	h.Observe(0.05)

	rec := NewRecorder(RecorderConfig{}, reg)
	time.Sleep(2 * time.Millisecond)
	c.Add(8)
	h.Observe(0.05)
	rec.Sample()

	rr := httptest.NewRecorder()
	rec.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/debug/flight?window=30s&points=2", nil))
	var page struct {
		WindowSecs  float64                       `json:"window_seconds"`
		SeriesCount int                           `json:"series_count"`
		Rates       map[string]float64            `json:"rates"`
		Quantiles   map[string]map[string]float64 `json:"quantiles"`
		Series      []struct {
			Key    string      `json:"key"`
			Points [][2]string `json:"points"`
		} `json:"series"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &page); err != nil {
		t.Fatalf("flight page not JSON: %v\n%s", err, rr.Body.String())
	}
	if page.WindowSecs != 30 {
		t.Fatalf("window = %v, want 30", page.WindowSecs)
	}
	if page.Rates["advhunter_requests_total"] <= 0 {
		t.Fatalf("no request rate on flight page: %v", page.Rates)
	}
	if _, ok := page.Quantiles["advhunter_request_duration_seconds"]["p50"]; !ok {
		t.Fatalf("no p50 on flight page: %v", page.Quantiles)
	}
	if len(page.Series) == 0 || len(page.Series[0].Points) == 0 {
		t.Fatal("series points missing with ?points=2")
	}

	rr = httptest.NewRecorder()
	rec.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/debug/flight?series=duration", nil))
	if err := json.Unmarshal(rr.Body.Bytes(), &page); err != nil {
		t.Fatal(err)
	}
	for _, s := range page.Series {
		if !strings.Contains(s.Key, "duration") {
			t.Fatalf("filter leaked series %q", s.Key)
		}
	}
}
