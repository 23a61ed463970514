package workload

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
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
		t.Fatal("poisson kind without a rate accepted")
	}
	if err := (ArrivalSpec{Kind: "closed"}).Validate(); err == nil {
		t.Fatal("closed-loop kind accepted")
	}
	if err := (ArrivalSpec{Kind: Poisson, Rate: 1}).Validate(); err != nil {
		t.Fatalf("poisson spec rejected: %v", err)
	}
}

// TestGenerateMixProportions: cohort draws must follow the configured
// weights, and each cohort must draw from across its pool.
func TestGenerateMixProportions(t *testing.T) {
	mix := Mix{
		{Name: "clean", Weight: 3, Pool: tinySamples(8, 0.1)},
		{Name: "fgsm", Weight: 1, Pool: tinySamples(8, 0.5)},
	}
	tr, err := Generate(Config{
		Name: "mix", Seed: 42,
		Arrival: ArrivalSpec{Kind: Poisson, Rate: 400},
		Mix:     mix,
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
	frac := float64(counts["clean"]) / float64(len(tr.Events))
	if frac < 0.68 || frac > 0.82 {
		t.Fatalf("clean cohort drew %.2f of %d events, want ~0.75", frac, len(tr.Events))
	}
	for _, c := range mix {
		if n := len(bodies[c.Name]); n < 4 {
			t.Fatalf("%s cohort drew only %d distinct inputs from a pool of 8", c.Name, n)
		}
	}
}

func TestGenerateRejectsBadConfigs(t *testing.T) {
	good := Mix{{Name: "clean", Weight: 1, Pool: tinySamples(2, 0.1)}}
	arrival := ArrivalSpec{Kind: Poisson, Rate: 100}
	cases := []Config{
		{Arrival: ArrivalSpec{Kind: "nope", Rate: 100}, Mix: good},
		{Arrival: ArrivalSpec{Kind: Poisson}, Mix: good},             // no rate
		{Arrival: ArrivalSpec{Kind: Poisson, Rate: 1e-9}, Mix: good}, // empty schedule
		{Arrival: arrival, Mix: Mix{}},
		{Arrival: arrival, Mix: Mix{{Name: "c", Weight: 0, Pool: tinySamples(1, 0)}}},
		{Arrival: arrival, Mix: Mix{{Name: "c", Weight: 1, Pool: nil}}},
		{Arrival: arrival, Mix: Mix{{Name: "c", Weight: 1, Pool: tinySamples(1, 0)}, {Name: "c", Weight: 1, Pool: tinySamples(1, 0)}}},
	}
	for i, cfg := range cases {
		if _, err := Generate(cfg); err == nil {
			t.Fatalf("case %d: bad config accepted", i)
		}
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

// TestGenerateGolden pins Generate's output bytes across commits: auto-open's
// probe digest in servebench is built from these bytes, so any change to the
// schedule, the cohort and sample draws or the body encoding must show here.
func TestGenerateGolden(t *testing.T) {
	tr, err := Generate(Config{
		Seed:    1,
		Arrival: ArrivalSpec{Kind: Poisson, Rate: 60},
		Mix: Mix{
			{Name: "clean", Weight: 0.6, Pool: tinySamples(8, 0.1)},
			{Name: "fgsm", Weight: 0.2, Pool: tinySamples(8, 0.4)},
			{Name: "mim", Weight: 0.2, Pool: tinySamples(8, 0.7)},
		},
		Horizon: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	var b [8]byte
	for _, e := range tr.Events {
		binary.LittleEndian.PutUint64(b[:], uint64(e.At))
		h.Write(b[:])
		h.Write([]byte(e.Cohort))
		binary.LittleEndian.PutUint64(b[:], e.Index)
		h.Write(b[:])
		h.Write(e.Body)
	}
	const (
		wantEvents = 285
		wantDigest = "78efa319c6609a55a39ca68b49e5e4480f8941eccaaefac8b836174fd48a795a"
	)
	if got := hex.EncodeToString(h.Sum(nil)); len(tr.Events) != wantEvents || got != wantDigest {
		t.Fatalf("Generate produced %d events with digest %s, want %d and %s", len(tr.Events), got, wantEvents, wantDigest)
	}
}
