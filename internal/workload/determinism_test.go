package workload

import (
	"bytes"
	"context"
	"path/filepath"
	"testing"

	"advhunter/internal/serve"
)

// TestTraceRecordReplayRoundTrip: a recorded trace survives the disk round
// trip byte-identically — SaveTrace then TryLoadTrace yields a trace whose
// re-encoding equals the original's.
func TestTraceRecordReplayRoundTrip(t *testing.T) {
	tr, err := Generate(Config{
		Name: "roundtrip", Seed: 23,
		Arrival:  ArrivalSpec{Kind: Closed, Clients: 2},
		Mix:      Mix{{Name: "clean", Weight: 1, Pool: tinySamples(6, 0.3)}},
		Requests: 24,
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := tr.Encode()
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "trace.gob")
	if err := SaveTrace(path, tr); err != nil {
		t.Fatal(err)
	}
	loaded, ok := TryLoadTrace(path)
	if !ok {
		t.Fatal("TryLoadTrace missed a fresh recording")
	}
	got, err := loaded.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("trace changed across the disk round trip")
	}
	if len(loaded.Events) != len(tr.Events) {
		t.Fatalf("loaded %d events, recorded %d", len(loaded.Events), len(tr.Events))
	}
	for i := range tr.Events {
		if !bytes.Equal(loaded.Events[i].Body, tr.Events[i].Body) {
			t.Fatalf("event %d body diverged across the round trip", i)
		}
	}
}

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
