package serve

import (
	"net/http"
	"sync"
	"testing"
)

// TestServeConcurrencyDeterminism replays the same request stream twice —
// once serially, once with 8 in-flight clients — and requires byte-identical
// response bodies per (seed, index) pair. This is the serving form of the
// offline pipeline's determinism contract: a reading is a pure function of
// (model, input, seed, index), never of worker scheduling. Runs
// under -race via scripts/verify.sh.
func TestServeConcurrencyDeterminism(t *testing.T) {
	f := getFixture(t)

	// The stream mixes clean and adversarial queries, each with an explicit
	// noise index.
	type streamItem struct {
		req Request
	}
	var stream []streamItem
	for i := 0; i < 24 && i < len(f.clean); i++ {
		stream = append(stream, streamItem{NewRequest(f.clean[i].X, uint64(i))})
	}
	for i := 0; i < 12 && i < len(f.adv); i++ {
		stream = append(stream, streamItem{NewRequest(f.adv[i].X, uint64(500+i))})
	}

	// Serial replay: one client, one worker.
	_, tsSerial := newServer(t, f, Config{Workers: 1})
	serial := make(map[uint64]string, len(stream))
	for _, it := range stream {
		resp, body := post(t, tsSerial.URL, it.req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("serial replay: status %d: %s", resp.StatusCode, body)
		}
		serial[*it.req.Index] = string(body)
	}

	// Concurrent replay: 8 in-flight clients against a multi-replica pool;
	// queue sized to never reject.
	_, tsConc := newServer(t, f, Config{Workers: 4, QueueSize: len(stream) + 8})
	var (
		mu         sync.Mutex
		concurrent = make(map[uint64]string, len(stream))
		wg         sync.WaitGroup
		work       = make(chan streamItem)
	)
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := range work {
				resp, body := post(t, tsConc.URL, it.req)
				if resp.StatusCode != http.StatusOK {
					t.Errorf("concurrent replay: status %d: %s", resp.StatusCode, body)
					continue
				}
				mu.Lock()
				concurrent[*it.req.Index] = string(body)
				mu.Unlock()
			}
		}()
	}
	for _, it := range stream {
		work <- it
	}
	close(work)
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	if len(concurrent) != len(serial) {
		t.Fatalf("concurrent replay produced %d responses, serial %d", len(concurrent), len(serial))
	}
	for idx, want := range serial {
		got, ok := concurrent[idx]
		if !ok {
			t.Fatalf("index %d missing from concurrent replay", idx)
		}
		if got != want {
			t.Fatalf("index %d diverged under concurrency:\nserial:     %s\nconcurrent: %s", idx, want, got)
		}
	}
}
