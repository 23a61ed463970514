package workload

import (
	"bytes"
	"context"
	"net/http/httptest"
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
	"advhunter/internal/obs"
	"advhunter/internal/serve"
	"advhunter/internal/train"
	"advhunter/internal/twin"
	"advhunter/internal/uarch/hpc"
)

// fixture mirrors the serve package's: a trained classifier, a fitted
// detector, clean plus FGSM and MIM adversarial pools, and the analytical
// twin stack — everything a realistic cohort mix needs. Built once per
// package run (training dominates).
type fixture struct {
	ds      *data.Dataset
	meas    *core.Measurer
	det     *detect.Fitted
	clean   []data.Sample
	fgsm    []data.Sample
	mim     []data.Sample
	twin    *twin.Measurer
	twinDet *detect.Fitted
}

var (
	fixOnce sync.Once
	fix     *fixture
)

const fixTarget = 6

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
		var sources []data.Sample
		for _, s := range ds.Test {
			if s.Label != fixTarget && len(sources) < 60 {
				sources = append(sources, s)
			}
		}
		atkF := attack.NewTargetedFGSM(0.5, fixTarget)
		fgsm := attack.Successful(atkF, attack.Craft(m, atkF, sources))
		atkM := attack.NewTargetedMIM(0.5, fixTarget)
		mim := attack.Successful(atkM, attack.Craft(m, atkM, sources))
		if len(fgsm) < 10 || len(mim) < 10 {
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
		twinTpl := core.NewTemplate(ds.Classes, hpc.CoreEvents())
		for _, mm := range twin.MeasureSet(tm.Clone(), ds.Train, 0) {
			twinTpl.Add(mm.Pred, mm.Counts, mm.Conf)
		}
		twinDet, err := detect.Fit("gmm", twinTpl, detect.DefaultConfig())
		if err != nil {
			return
		}
		fix = &fixture{ds: ds, meas: meas, det: det, clean: ds.Test,
			fgsm: fgsm, mim: mim, twin: tm, twinDet: twinDet}
	})
	if fix == nil {
		t.Fatal("workload fixture failed to build (training or attack collapsed)")
	}
	return fix
}

// newServer boots an httptest serve instance for the tier (with the twin
// stack plugged in when the tier needs it) and tears it down on cleanup.
func newServer(t *testing.T, f *fixture, cfg serve.Config) *httptest.Server {
	t.Helper()
	if cfg.Tier == serve.TierTwin || cfg.Tier == serve.TierAuto {
		cfg.Twin = f.twin.Clone()
		cfg.TwinDetector = f.twinDet
	}
	s := serve.New(f.meas.Clone(), f.det, cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
		ts.Close()
	})
	return ts
}

// standardMix is the canonical four-cohort traffic: clean queries, FGSM and
// MIM adversarial examples, and the repeated-query cohort hammering a hot
// set of two clean inputs (the truth cache's workload).
func standardMix(f *fixture) Mix {
	return Mix{
		{Name: "clean", Weight: 5, Pool: f.clean},
		{Name: "fgsm", Weight: 3, Pool: f.fgsm},
		{Name: "mim", Weight: 1, Pool: f.mim},
		{Name: "repeat", Weight: 3, Pool: f.clean, Hot: 2},
	}
}

// TestWorkloadEndToEndTiers drives each serving tier with the standard
// cohort mix closed-loop and checks the report's core claims: every request
// completes (no backpressure at this load), the FGSM cohort is flagged well
// above the clean cohort, and the repeated-query cohort lands in the tier's
// truth cache.
func TestWorkloadEndToEndTiers(t *testing.T) {
	f := getFixture(t)
	for _, tier := range []string{serve.TierExact, serve.TierTwin, serve.TierAuto} {
		tier := tier
		t.Run(tier, func(t *testing.T) {
			ts := newServer(t, f, serve.Config{Workers: 2, Tier: tier})
			tr, err := Generate(Config{
				Name: "e2e-" + tier, Seed: 7,
				Arrival:  ArrivalSpec{Kind: Closed, Clients: 4},
				Mix:      standardMix(f),
				Requests: 60,
			})
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(context.Background(), ts.URL, tr, RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			rep := res.Report
			var buf bytes.Buffer
			rep.Render(&buf)
			t.Logf("\n%s", buf.String())

			if rep.Completed != rep.Requests {
				t.Fatalf("completed %d of %d (status %v)", rep.Completed, rep.Requests, rep.Status)
			}
			if rep.Rate429 != 0 {
				t.Fatalf("429s at modest closed-loop load: %v", rep.Status)
			}
			// Exact-tier responses carry no tier field; auto responses are
			// labelled by whichever tier decided them (mostly the twin).
			switch tier {
			case serve.TierExact:
				if rep.Tier != "" {
					t.Fatalf("exact serving reported tier %q", rep.Tier)
				}
			case serve.TierTwin:
				if rep.Tier != serve.TierTwin {
					t.Fatalf("dominant tier %q, want %q", rep.Tier, serve.TierTwin)
				}
			case serve.TierAuto:
				if rep.Tier == "" {
					t.Fatal("auto serving reported no tier labels")
				}
			}
			clean, fgsm := rep.Cohorts["clean"], rep.Cohorts["fgsm"]
			if clean == nil || fgsm == nil || clean.OK == 0 || fgsm.OK == 0 {
				t.Fatalf("cohorts missing from report: %+v", rep.Cohorts)
			}
			if fgsm.FlagRate <= clean.FlagRate {
				t.Fatalf("fgsm flag rate %.2f must exceed clean %.2f", fgsm.FlagRate, clean.FlagRate)
			}
			if tier == serve.TierExact && fgsm.FlagRate < 0.5 {
				t.Fatalf("exact-tier fgsm flag rate %.2f too weak", fgsm.FlagRate)
			}
			if mim := rep.Cohorts["mim"]; mim == nil || mim.Requests == 0 {
				t.Fatal("mim cohort absent from the mix")
			}
			// The repeated-query cohort must land in the tier's truth cache.
			// Auto runs both caches, but only the twin cache sees every
			// request: an exact hit there needs two escalations of the same
			// input to run one after the other, which depends on scheduling.
			hits := rep.Server.TruthHits
			if tier != serve.TierExact {
				hits = rep.Server.TwinTruthHits
			}
			if hits == 0 {
				t.Fatalf("repeated-query cohort produced no truth-cache hits: %+v", rep.Server)
			}
			if rep.ThroughputRPS <= 0 || rep.Latency.P50Ms <= 0 || rep.Latency.P99Ms < rep.Latency.P50Ms {
				t.Fatalf("degenerate latency/throughput stats: %+v %+v", rep.Latency, rep.ThroughputRPS)
			}
			if tier == serve.TierAuto && rep.Server.Screened == 0 {
				t.Fatalf("auto tier screened nothing: %+v", rep.Server)
			}
		})
	}
}

// TestWorkloadArrivalShapes replays each arrival process against one
// exact-tier server: every request must complete without backpressure when
// capacity comfortably exceeds offered load.
func TestWorkloadArrivalShapes(t *testing.T) {
	f := getFixture(t)
	ts := newServer(t, f, serve.Config{Workers: 2, QueueSize: 256})
	for _, kind := range Kinds() {
		spec := ArrivalSpec{Kind: kind, Rate: 60}
		t.Run(kind, func(t *testing.T) {
			tr, err := Generate(Config{
				Name: "shape-" + kind, Seed: 11,
				Arrival:  spec,
				Mix:      standardMix(f),
				Horizon:  500 * time.Millisecond,
				Requests: 30,
			})
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(context.Background(), ts.URL, tr, RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			rep := res.Report
			if rep.Completed != rep.Requests || rep.Rate429 != 0 || rep.ErrorRate != 0 {
				t.Fatalf("%s: completed %d/%d, status %v", spec.Kind, rep.Completed, rep.Requests, rep.Status)
			}
			if rep.Shape != spec.Kind {
				t.Fatalf("report shape %q, want %q", rep.Shape, spec.Kind)
			}
		})
	}
}

// TestWorkloadBackpressure: 429s appear only once offered load exceeds what
// the queue can hold — open-loop traffic offered far above the single
// worker's service rate piles onto a tiny queue and sheds, and the
// server-side counter delta agrees with the client view. (Open-loop, not
// closed-loop: scheduled offsets fire regardless of responses, so the
// overload is real even when a starved CI host serialises goroutines —
// modest rates staying 429-free is TestWorkloadArrivalShapes' half of the
// claim.)
func TestWorkloadBackpressure(t *testing.T) {
	f := getFixture(t)
	ts := newServer(t, f, serve.Config{QueueSize: 1, Workers: 1})
	tr, err := Generate(Config{
		Name: "overload", Seed: 13,
		Arrival: ArrivalSpec{Kind: Poisson, Rate: 2000},
		Mix:     Mix{{Name: "clean", Weight: 1, Pool: f.clean}},
		Horizon: 400 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), ts.URL, tr, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Report
	if rep.Rate429 == 0 {
		t.Fatalf("2000 req/s against a queue of 1 shed nothing: %v", rep.Status)
	}
	if rep.Completed == 0 {
		t.Fatalf("overload completed nothing: %v", rep.Status)
	}
	if got, want := rep.Server.Rejected429, float64(rep.Status["429"]); got != want {
		t.Fatalf("server counted %g rejections, clients saw %g", got, want)
	}
}

// TestWorkloadMaxInflight: the connection-level cap sheds load even when the
// queue never fills — backpressure independent of QueueSize, observed end to
// end through the harness.
func TestWorkloadMaxInflight(t *testing.T) {
	f := getFixture(t)
	ts := newServer(t, f, serve.Config{QueueSize: 256, Workers: 1, MaxInflight: 1})
	tr, err := Generate(Config{
		Name: "inflight-cap", Seed: 17,
		Arrival: ArrivalSpec{Kind: Poisson, Rate: 2000},
		Mix:     Mix{{Name: "clean", Weight: 1, Pool: f.clean}},
		Horizon: 400 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), ts.URL, tr, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Report
	if rep.Rate429 == 0 {
		t.Fatal("MaxInflight=1 under 2000 req/s shed nothing — the cap is not enforced")
	}
	// The queue (capacity 256) never saw enough waiting jobs to overflow:
	// every rejection is the in-flight cap's.
	if rep.Server.QueueDepthPeak > 2 {
		t.Fatalf("queue depth peaked at %g — rejections are not the in-flight cap's", rep.Server.QueueDepthPeak)
	}
}

// TestWorkloadClientMetricsLint: the harness's own exposition must hold the
// same format line the server's does.
func TestWorkloadClientMetricsLint(t *testing.T) {
	f := getFixture(t)
	ts := newServer(t, f, serve.Config{Workers: 1})
	tr, err := Generate(Config{
		Name: "lint", Seed: 19,
		Arrival:  ArrivalSpec{Kind: Closed, Clients: 2},
		Mix:      standardMix(f),
		Requests: 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), ts.URL, tr, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	if !strings.Contains(text, `advhunter_loadgen_requests_total{code="200"} 12`) {
		t.Fatalf("exposition missing the 200 counter:\n%s", text)
	}
	if !strings.Contains(text, "advhunter_loadgen_request_duration_seconds_bucket") {
		t.Fatalf("exposition missing the latency histogram:\n%s", text)
	}
	if err := obs.Lint(buf.Bytes()); err != nil {
		t.Fatalf("loadgen exposition fails lint: %v", err)
	}
}
