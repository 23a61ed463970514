package workload

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"advhunter/internal/data"
	"advhunter/internal/rng"
	"advhunter/internal/tensor"
)

// tinySamples builds n distinct labelled 1×2×2 images — enough structure for
// trace-generation tests without touching a real dataset.
func tinySamples(n int, base float64) []data.Sample {
	out := make([]data.Sample, n)
	for i := range out {
		v := base + float64(i)/float64(n)
		out[i] = data.Sample{X: tensor.FromSlice([]float64{v, v / 2, v / 3, v / 4}, 1, 2, 2), Label: i % 2}
	}
	return out
}

func TestScheduleDeterministic(t *testing.T) {
	spec := ArrivalSpec{Kind: Poisson, Rate: 200}
	a := spec.Schedule(rng.New(7), time.Second)
	b := spec.Schedule(rng.New(7), time.Second)
	if len(a) == 0 {
		t.Fatal("empty schedule")
	}
	if len(a) != len(b) {
		t.Fatalf("schedules differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("offset %d differs: %s vs %s", i, a[i], b[i])
		}
	}
	c := spec.Schedule(rng.New(8), time.Second)
	same := len(a) == len(c)
	for i := 0; same && i < len(a); i++ {
		same = a[i] == c[i]
	}
	if same {
		t.Fatal("different seeds produced identical schedules")
	}
}

func TestScheduleOffsetsOrderedWithinHorizon(t *testing.T) {
	horizon := 2 * time.Second
	offs := ArrivalSpec{Kind: Poisson, Rate: 300}.Schedule(rng.New(3), horizon)
	var prev time.Duration
	for i, o := range offs {
		if o < prev {
			t.Fatalf("offset %d (%s) precedes offset %d (%s)", i, o, i-1, prev)
		}
		if o >= horizon {
			t.Fatalf("offset %d (%s) beyond horizon %s", i, o, horizon)
		}
		prev = o
	}
}

// TestPoissonRateMatchesTarget: the exponential gaps must deliver the
// configured mean rate.
func TestPoissonRateMatchesTarget(t *testing.T) {
	offs := ArrivalSpec{Kind: Poisson, Rate: 500}.Schedule(rng.New(11), 4*time.Second)
	got := float64(len(offs)) / 4
	if got < 400 || got > 600 {
		t.Fatalf("poisson at 500/s delivered %.0f/s", got)
	}
}

func TestArrivalValidate(t *testing.T) {
	if err := (ArrivalSpec{Kind: "thundering-herd"}).Validate(); err == nil {
		t.Fatal("unknown kind accepted")
	}
	if err := (ArrivalSpec{Kind: Poisson}).Validate(); err == nil {
		t.Fatal("open-loop kind without a rate accepted")
	}
	if err := (ArrivalSpec{Kind: Closed}).Validate(); err != nil {
		t.Fatalf("closed-loop spec rejected: %v", err)
	}
}

// TestGenerateMixProportions: cohort draws must follow the configured
// weights, and Hot must restrict the repeated-query cohort to its hot set.
func TestGenerateMixProportions(t *testing.T) {
	mix := Mix{
		{Name: "clean", Weight: 3, Pool: tinySamples(8, 0.1)},
		{Name: "repeat", Weight: 1, Pool: tinySamples(8, 0.5), Hot: 2},
	}
	tr, err := Generate(Config{
		Name: "mix", Seed: 42,
		Arrival:  ArrivalSpec{Kind: Closed},
		Mix:      mix,
		Requests: 800,
	})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	bodies := map[string]map[string]bool{}
	for _, e := range tr.Events {
		counts[e.Cohort]++
		if bodies[e.Cohort] == nil {
			bodies[e.Cohort] = map[string]bool{}
		}
		// Distinct-input counting must ignore the per-event index field.
		cut := bytes.LastIndex(e.Body, []byte(`,"index"`))
		if cut < 0 {
			t.Fatalf("event body missing index field: %s", e.Body)
		}
		bodies[e.Cohort][string(e.Body[:cut])] = true
	}
	frac := float64(counts["clean"]) / 800
	if frac < 0.68 || frac > 0.82 {
		t.Fatalf("clean cohort drew %.2f of traffic, want ~0.75", frac)
	}
	if n := len(bodies["repeat"]); n > 2 {
		t.Fatalf("repeat cohort (Hot=2) drew %d distinct inputs", n)
	}
	if n := len(bodies["clean"]); n < 4 {
		t.Fatalf("clean cohort drew only %d distinct inputs from a pool of 8", n)
	}
}

func TestGenerateRejectsBadConfigs(t *testing.T) {
	good := Mix{{Name: "clean", Weight: 1, Pool: tinySamples(2, 0.1)}}
	cases := []Config{
		{Arrival: ArrivalSpec{Kind: "nope"}, Mix: good, Requests: 1},
		{Arrival: ArrivalSpec{Kind: Closed}, Mix: good},               // no Requests
		{Arrival: ArrivalSpec{Kind: Closed}, Mix: Mix{}, Requests: 1}, // empty mix
		{Arrival: ArrivalSpec{Kind: Closed}, Requests: 1,
			Mix: Mix{{Name: "c", Weight: 0, Pool: tinySamples(1, 0)}}},
		{Arrival: ArrivalSpec{Kind: Closed}, Requests: 1,
			Mix: Mix{{Name: "c", Weight: 1, Pool: nil}}},
		{Arrival: ArrivalSpec{Kind: Closed}, Requests: 1,
			Mix: Mix{{Name: "c", Weight: 1, Pool: tinySamples(1, 0)}, {Name: "c", Weight: 1, Pool: tinySamples(1, 0)}}},
	}
	for i, cfg := range cases {
		if _, err := Generate(cfg); err == nil {
			t.Fatalf("case %d: bad config accepted", i)
		}
	}
}

func TestParseMetrics(t *testing.T) {
	text := []byte(`# HELP advhunter_requests_total HTTP requests by status code.
# TYPE advhunter_requests_total counter
advhunter_requests_total{code="200"} 40
advhunter_requests_total{code="429"} 3
advhunter_queue_depth 2
advhunter_queue_capacity 64
advhunter_tier_duration_seconds_bucket{tier="twin",le="+Inf"} 12
advhunter_tier_duration_seconds_sum{tier="twin"} 0.25
garbage line without a float tail
`)
	s := ParseMetrics(text)
	if got := s.Get(`advhunter_requests_total{code="200"}`); got != 40 {
		t.Fatalf("200 count = %g, want 40", got)
	}
	if got := s.Get("advhunter_queue_capacity"); got != 64 {
		t.Fatalf("queue capacity = %g, want 64", got)
	}
	if got := s.Get(`advhunter_tier_duration_seconds_sum{tier="twin"}`); got != 0.25 {
		t.Fatalf("histogram sum = %g, want 0.25", got)
	}
	if got := s.Get("missing_series"); got != 0 {
		t.Fatalf("missing series = %g, want 0", got)
	}

	before := Snapshot{`advhunter_requests_total{code="200"}`: 30, "advhunter_queue_depth": 5}
	d := s.DeltaFrom(before)
	if got := d.Get(`advhunter_requests_total{code="200"}`); got != 10 {
		t.Fatalf("delta = %g, want 10", got)
	}
	if got := d.Get("advhunter_queue_depth"); got != 0 {
		t.Fatalf("negative delta not clamped: %g", got)
	}
}

// TestQuantiles pins the nearest-rank arithmetic on a known distribution.
func TestQuantiles(t *testing.T) {
	lat := make([]time.Duration, 1000)
	for i := range lat {
		lat[i] = time.Duration(i+1) * time.Millisecond
	}
	q := quantilesOf(lat)
	if q.P50Ms != 500 {
		t.Fatalf("p50 = %g, want 500", q.P50Ms)
	}
	if q.P99Ms != 990 {
		t.Fatalf("p99 = %g, want 990", q.P99Ms)
	}
	if q.P999Ms != 999 {
		t.Fatalf("p999 = %g, want 999", q.P999Ms)
	}
	if q.MaxMs != 1000 {
		t.Fatalf("max = %g, want 1000", q.MaxMs)
	}
	if q.MeanMs != 500.5 {
		t.Fatalf("mean = %g, want 500.5", q.MeanMs)
	}
	if zero := quantilesOf(nil); zero != (Quantiles{}) {
		t.Fatalf("empty quantiles = %+v, want zeros", zero)
	}
}

// TestTraceEncodeStable: equal configs generate deeply equal traces, body
// bytes included.
func TestTraceEncodeStable(t *testing.T) {
	cfg := Config{
		Name: "stable", Seed: 99,
		Arrival: ArrivalSpec{Kind: Poisson, Rate: 400},
		Mix:     Mix{{Name: "clean", Weight: 1, Pool: tinySamples(4, 0.2)}},
		Horizon: 500 * time.Millisecond,
	}
	a, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("equal configs produced different traces")
	}
}
