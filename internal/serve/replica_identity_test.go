package serve

import (
	"context"
	"net/http"
	"sync"
	"testing"

	"advhunter/internal/detect"
)

// tierConfigs enumerates exact, auto, and auto with a negative margin
// (keyed "twin": the twin decides every query), with the fixture's twin stack
// plugged in where required.
func tierConfigs(f *fixture, base Config) map[string]Config {
	return map[string]Config{
		TierExact: base,
		TierTwin:  f.twinOnlyConfig(base),
		TierAuto:  f.autoConfig(base),
	}
}

// TestServeResponsesIndependentOfReplica is the end-to-end concurrency
// contract: under every tier, a server with 4 replicas hammered by 8 clients
// must answer byte-identically to a serial 1-worker server — same stream of
// (index, input) queries, same bodies, whichever replica took each request.
func TestServeResponsesIndependentOfReplica(t *testing.T) {
	f := getFixture(t)
	stream := tierStream(f)
	for tier := range tierConfigs(f, Config{}) {
		tier := tier
		t.Run(tier, func(t *testing.T) {
			serialCfg := tierConfigs(f, Config{Workers: 1})[tier]
			_, tsSerial := newServer(t, f, serialCfg)
			want := replay(t, tsSerial.URL, stream)

			concCfg := tierConfigs(f, Config{
				Workers: 4, QueueSize: len(stream) + 8,
			})[tier]
			_, tsConc := newServer(t, f, concCfg)
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
						resp, body := post(t, tsConc.URL, req)
						if resp.StatusCode != http.StatusOK {
							t.Errorf("concurrent replay: status %d: %s", resp.StatusCode, body)
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
				t.Fatalf("concurrent replay produced %d responses, serial %d", len(got), len(want))
			}
			for idx, w := range want {
				if g := got[idx]; g != w {
					t.Fatalf("index %d: concurrent response differs from serial:\nconcurrent: %s\nserial:     %s", idx, g, w)
				}
			}
		})
	}
}

// TestDecideIndependentOfReplica drives the per-replica decision directly
// and deterministically: every query decided on replica 1 and then again on
// replica 0 of the same server must give the same verdict and tier under
// every tier — the second pass meets a warm truth cache, which must not
// show either.
func TestDecideIndependentOfReplica(t *testing.T) {
	f := getFixture(t)
	stream := tierStream(f)
	for tier := range tierConfigs(f, Config{}) {
		tier := tier
		t.Run(tier, func(t *testing.T) {
			cfg := tierConfigs(f, Config{Workers: 2})[tier]
			s, _ := newServer(t, f, cfg)
			st := stages{s: s, ctx: context.Background()}
			for i, req := range stream {
				a, aTier := s.decide(st, 1, *req.Index, req.Tensor())
				b, bTier := s.decide(st, 0, *req.Index, req.Tensor())
				if aTier != bTier {
					t.Fatalf("query %d: replica 1 tier %q, replica 0 %q", i, aTier, bTier)
				}
				requireSameVerdict(t, i, a, b)
			}
		})
	}
}

// requireSameVerdict compares two verdicts field by field (scores bitwise —
// the Response renderer serialises exactly these values).
func requireSameVerdict(t *testing.T, i int, got, want detect.Verdict) {
	t.Helper()
	if got.PredictedClass != want.PredictedClass || got.Modelled != want.Modelled || got.Fused != want.Fused {
		t.Fatalf("query %d: verdict %+v, want %+v", i, got, want)
	}
	if len(got.Scores) != len(want.Scores) || len(got.Flags) != len(want.Flags) {
		t.Fatalf("query %d: verdict channel counts differ", i)
	}
	for si := range want.Scores {
		if got.Scores[si] != want.Scores[si] || got.Flags[si] != want.Flags[si] {
			t.Fatalf("query %d channel %d: got (%v, %v), want (%v, %v)",
				i, si, got.Scores[si], got.Flags[si], want.Scores[si], want.Flags[si])
		}
	}
}
