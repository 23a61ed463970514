package workload

import (
	"bytes"
	"context"
	"testing"

	"advhunter/internal/serve"
)

// TestReplayConcurrencyDeterminism: replaying one trace serially and with 8
// concurrent clients yields byte-identical per-request responses — the
// serving layer's (input, index)-purity carried through the harness. The two
// replays share one server, which also pins that truth-cache warm-up never
// changes a response byte.
func TestReplayConcurrencyDeterminism(t *testing.T) {
	f := getFixture(t)
	ts := newServer(t, f, serve.Config{Workers: 2})
	tr, err := Generate(Config{
		Name: "replay", Seed: 29,
		Arrival:  ArrivalSpec{Kind: Closed, Clients: 8},
		Mix:      standardMix(f),
		Requests: 32,
	})
	if err != nil {
		t.Fatal(err)
	}

	serial, err := Run(context.Background(), ts.URL, tr, RunOptions{Clients: 1, KeepBodies: true})
	if err != nil {
		t.Fatal(err)
	}
	concurrent, err := Run(context.Background(), ts.URL, tr, RunOptions{Clients: 8, KeepBodies: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range []*RunResult{serial, concurrent} {
		if res.Report.Completed != res.Report.Requests {
			t.Fatalf("replay dropped requests: %v", res.Report.Status)
		}
	}
	for i := range serial.Outcomes {
		a, b := serial.Outcomes[i], concurrent.Outcomes[i]
		if !bytes.Equal(a.Body, b.Body) {
			t.Fatalf("request %d diverged under concurrency:\nserial:     %s\nconcurrent: %s", i, a.Body, b.Body)
		}
		if a.Adversarial != b.Adversarial || a.Tier != b.Tier {
			t.Fatalf("request %d verdict diverged: serial %+v, concurrent %+v", i, a, b)
		}
	}
}
