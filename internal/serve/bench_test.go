package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"sort"
	"sync"
	"testing"
	"time"

	"advhunter/internal/core"
	"advhunter/internal/data"
	"advhunter/internal/detect"
	"advhunter/internal/engine"
	"advhunter/internal/models"
	"advhunter/internal/twin"
	"advhunter/internal/uarch/hpc"
)

// benchFixture is the serve-latency fixture: an untrained ResNet18 (the
// paper's headline model; training is irrelevant to serving cost) with the
// full twin stack. Built once per package run.
type benchFixture struct {
	meas    *core.Measurer
	det     *detect.Fitted
	twin    *twin.Measurer
	twinDet *detect.Fitted
	bodies  [][]byte // pre-encoded requests: 8 distinct images, fixed indices
}

var (
	benchOnce sync.Once
	benchFix  *benchFixture
)

func getBenchFixture(b *testing.B) *benchFixture {
	b.Helper()
	benchOnce.Do(func() {
		ds := data.MustSynth("cifar10", 33, 3, 1)
		m := models.MustBuild("resnet18", ds.C, ds.H, ds.W, ds.Classes, 2)
		meas := core.NewMeasurer(engine.NewDefault(m), 99)
		tpl := core.BuildTemplate(meas.Clone(), ds.Train, ds.Classes, hpc.CoreEvents())
		det, err := detect.Fit("gmm", tpl, detect.DefaultConfig())
		if err != nil {
			return
		}
		tab, err := twin.Profile(engine.NewDefault(m), twin.Probes(ds.Train[:8], 1, 0.1, 7), 12, 0)
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
		bodies := make([][]byte, 8)
		for i := range bodies {
			s := ds.Train[i%len(ds.Train)]
			raw, err := json.Marshal(NewRequest(s.X, uint64(i)))
			if err != nil {
				return
			}
			bodies[i] = raw
		}
		benchFix = &benchFixture{meas: meas, det: det, twin: tm, twinDet: twinDet, bodies: bodies}
	})
	if benchFix == nil {
		b.Fatal("serve bench fixture failed to build")
	}
	return benchFix
}

// BenchmarkServeTierResNet18 measures end-to-end /detect latency per tier on
// a repeated-query workload (8 distinct images cycled, fixed indices — the
// steady state a deployed guard sees). Requests go through the full HTTP
// handler via httptest recorders, so decode, queueing, dispatch, measurement,
// scoring and encoding are all on the clock; only the TCP socket is not.
// Per-iteration latencies are reported as p50-ns and p99-ns custom metrics
// alongside the usual ns/op.
func BenchmarkServeTierResNet18(b *testing.B) {
	f := getBenchFixture(b)
	base := Config{Workers: 1, QueueSize: 16}
	tiered := func(tier string, cacheSize int) Config {
		cfg := base
		cfg.Tier = tier
		cfg.Twin = f.twin.Clone()
		cfg.TwinDetector = f.twinDet
		cfg.TruthCacheSize = cacheSize
		return cfg
	}
	cases := []struct {
		name string
		cfg  Config
	}{
		{"exact-nocache", Config{Workers: 1, QueueSize: 16, TruthCacheSize: -1}},
		{"exact", base},
		{"twin-nocache", tiered(TierTwin, -1)},
		{"twin", tiered(TierTwin, 0)},
		{"auto", tiered(TierAuto, 0)},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			s := New(f.meas.Clone(), f.det, tc.cfg)
			defer s.Shutdown(context.Background())
			h := s.Handler()
			serve := func(i int) time.Duration {
				req := httptest.NewRequest("POST", "/detect", bytes.NewReader(f.bodies[i%len(f.bodies)]))
				rec := httptest.NewRecorder()
				start := time.Now()
				h.ServeHTTP(rec, req)
				d := time.Since(start)
				if rec.Code != 200 {
					b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
				}
				return d
			}
			// Warm: one full cycle fills the tier's truth cache (when on).
			for i := 0; i < len(f.bodies); i++ {
				serve(i)
			}
			durs := make([]time.Duration, b.N)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				durs[i] = serve(i)
			}
			b.StopTimer()
			sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
			b.ReportMetric(float64(durs[len(durs)/2]), "p50-ns")
			b.ReportMetric(float64(durs[len(durs)*99/100]), "p99-ns")
		})
	}
}
