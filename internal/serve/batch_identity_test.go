package serve

import (
	"context"
	"net/http"
	"sync"
	"testing"

	"advhunter/internal/detect"
)

// batchTierConfigs enumerates the three tierings with the fixture's twin
// stack plugged in where required.
func batchTierConfigs(f *fixture, base Config) map[string]Config {
	return map[string]Config{
		TierExact: func() Config { c := base; c.Tier = TierExact; return c }(),
		TierTwin:  f.tierConfig(TierTwin, base),
		TierAuto:  f.tierConfig(TierAuto, base),
	}
}

// TestBatchIdentityServeResponses is the end-to-end contract of the fused
// batch path: under every tier, a server whose replicas drain real
// multi-request batches through the fused path must answer byte-identically to a serial server with
// batch fusion disabled — same stream of (index, input) queries, same bodies.
// Runs under -race via the CI batch-identity job.
func TestBatchIdentityServeResponses(t *testing.T) {
	f := getFixture(t)
	stream := tierStream(f)
	for tier := range batchTierConfigs(f, Config{}) {
		tier := tier
		t.Run(tier, func(t *testing.T) {
			serialCfg := batchTierConfigs(f, Config{
				Workers: 1, MaxBatch: 1, DisableBatchFuse: true,
			})[tier]
			_, tsSerial := newServer(t, f, serialCfg)
			want := replay(t, tsSerial.URL, stream)

			fusedCfg := batchTierConfigs(f, Config{
				Workers: 4, MaxBatch: 8, QueueSize: len(stream) + 8,
			})[tier]
			sFused, tsFused := newServer(t, f, fusedCfg)
			var (
				mu  sync.Mutex
				got = make(map[uint64]string, len(stream))
				wg  sync.WaitGroup
			)
			work := make(chan Request)
			for c := 0; c < 8; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for req := range work {
						resp, body := post(t, tsFused.URL, req)
						if resp.StatusCode != http.StatusOK {
							t.Errorf("fused replay: status %d: %s", resp.StatusCode, body)
							continue
						}
						mu.Lock()
						got[*req.Index] = string(body)
						mu.Unlock()
					}
				}()
			}
			for _, req := range stream {
				work <- req
			}
			close(work)
			wg.Wait()
			if t.Failed() {
				t.FailNow()
			}
			if len(got) != len(want) {
				t.Fatalf("fused replay produced %d responses, serial %d", len(got), len(want))
			}
			for idx, w := range want {
				if g := got[idx]; g != w {
					t.Fatalf("index %d: fused response differs from serial:\nfused:  %s\nserial: %s", idx, g, w)
				}
			}
			_ = sFused
		})
	}
}

// TestBatchIdentityProcessFused drives a consumer's fused path directly and
// deterministically: one multi-job batch through process() on replica 1 must
// produce, per job, exactly the verdict and tier the per-job Decide path
// produces on replica 0, under every tiering — and must increment the
// fused-batches counter, while a DisableBatchFuse server handling the same
// batch must not.
func TestBatchIdentityProcessFused(t *testing.T) {
	f := getFixture(t)
	stream := tierStream(f)
	for tier := range batchTierConfigs(f, Config{}) {
		tier := tier
		t.Run(tier, func(t *testing.T) {
			base := Config{Workers: 2, MaxBatch: len(stream), QueueSize: len(stream)}
			fusedCfg := batchTierConfigs(f, base)[tier]
			serial := base
			serial.DisableBatchFuse = true
			serialCfg := batchTierConfigs(f, serial)[tier]

			sFused, _ := newServer(t, f, fusedCfg)
			sSerial, _ := newServer(t, f, serialCfg)

			makeBatch := func() []*job {
				batch := make([]*job, len(stream))
				for i, req := range stream {
					batch[i] = &job{
						idx: *req.Index,
						x:   req.Tensor(),
						ctx: context.Background(),
						out: make(chan result, 1),
					}
				}
				return batch
			}

			fusedBatch, serialBatch := makeBatch(), makeBatch()
			sFused.process(1, fusedBatch)
			sSerial.process(0, serialBatch)
			for i := range stream {
				fr := <-fusedBatch[i].out
				sr := <-serialBatch[i].out
				if fr.tier != sr.tier {
					t.Fatalf("job %d: fused tier %q, serial %q", i, fr.tier, sr.tier)
				}
				requireSameVerdict(t, i, fr.v, sr.v)
			}
			if got := sFused.stats.fusedBatches.Value(); got != 1 {
				t.Fatalf("fused server counted %d fused batches, want 1", got)
			}
			if got := sSerial.stats.fusedBatches.Value(); got != 0 {
				t.Fatalf("DisableBatchFuse server counted %d fused batches, want 0", got)
			}
		})
	}
}

// requireSameVerdict compares two verdicts field by field (scores bitwise —
// the Response renderer serialises exactly these values).
func requireSameVerdict(t *testing.T, i int, got, want detect.Verdict) {
	t.Helper()
	if got.PredictedClass != want.PredictedClass || got.Modelled != want.Modelled || got.Fused != want.Fused {
		t.Fatalf("job %d: fused verdict %+v, serial %+v", i, got, want)
	}
	if len(got.Scores) != len(want.Scores) || len(got.Flags) != len(want.Flags) {
		t.Fatalf("job %d: fused verdict channel counts differ", i)
	}
	for si := range want.Scores {
		if got.Scores[si] != want.Scores[si] || got.Flags[si] != want.Flags[si] {
			t.Fatalf("job %d channel %d: fused (%v, %v), serial (%v, %v)",
				i, si, got.Scores[si], got.Flags[si], want.Scores[si], want.Flags[si])
		}
	}
}
