package detect

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"advhunter/internal/core"
	"advhunter/internal/persist"
	"advhunter/internal/rng"
	"advhunter/internal/uarch/hpc"
)

// TestSaveLoadRoundTripEveryBackend: every registered backend survives the
// one envelope format with bit-exact scoring after reload.
func TestSaveLoadRoundTripEveryBackend(t *testing.T) {
	tpl := synthTemplate(3, 40, 101)
	dir := t.TempDir()
	r := rng.New(103)
	var queries []core.Measurement
	for i := 0; i < 20; i++ {
		queries = append(queries, synthMeasurement(r, i%3, 1000+400*float64(i%2)))
	}
	for _, kind := range Kinds() {
		d := mustFit(t, kind, tpl, DefaultConfig())
		path := filepath.Join(dir, kind+".gob")
		if err := Save(path, d); err != nil {
			t.Fatalf("Save(%s): %v", kind, err)
		}
		back, err := Load(path)
		if err != nil {
			t.Fatalf("Load(%s): %v", kind, err)
		}
		if back.Kind() != kind {
			t.Fatalf("reloaded kind %q, want %q", back.Kind(), kind)
		}
		if got, want := back.Channels(), d.Channels(); len(got) != len(want) {
			t.Fatalf("%s: channels %v -> %v", kind, want, got)
		}
		for qi, q := range queries {
			a, b := d.Detect(q), back.Detect(q)
			if a.Fused != b.Fused || a.Modelled != b.Modelled {
				t.Fatalf("%s: query %d decisions diverge after reload: %+v vs %+v", kind, qi, a, b)
			}
			for si := range a.Scores {
				if a.Scores[si] != b.Scores[si] {
					t.Fatalf("%s: query %d score %d not bit-exact: %g vs %g", kind, qi, si, a.Scores[si], b.Scores[si])
				}
			}
		}
	}
}

// TestTryLoadMissSemantics: every broken input is a miss, never an error
// surface and never a panic.
func TestTryLoadMissSemantics(t *testing.T) {
	dir := t.TempDir()
	cases := map[string]func(path string) error{
		"empty path":    nil, // handled below with ""
		"absent file":   func(string) error { return nil },
		"empty file":    func(p string) error { return os.WriteFile(p, nil, 0o644) },
		"garbage bytes": func(p string) error { return os.WriteFile(p, []byte("not a gob stream at all"), 0o644) },
		"foreign schema": func(p string) error {
			return persist.Save(p, 9, &struct{ X int }{42})
		},
		// The retired schema-1 per-event GMM layout: refit, never lifted.
		"schema 1": func(p string) error {
			return persist.Save(p, 1, &struct{ Events []hpc.Event }{[]hpc.Event{hpc.CacheMisses}})
		},
		"wrong payload type": func(p string) error {
			return persist.Save(p, DetectorSchema, &struct{ Y string }{"nope"})
		},
	}
	if d, ok := TryLoad(""); ok || d != nil {
		t.Fatal("empty path was not a miss")
	}
	for name, write := range cases {
		if write == nil {
			continue
		}
		p := filepath.Join(dir, name+".gob")
		if name == "absent file" {
			p = filepath.Join(dir, "never-written.gob")
		} else if err := write(p); err != nil {
			t.Fatalf("%s: setup: %v", name, err)
		}
		if d, ok := TryLoad(p); ok || d != nil {
			t.Fatalf("%s: loaded a detector from a broken artifact", name)
		}
	}
	// Truncated valid artifact.
	tpl := synthTemplate(2, 20, 107)
	d := mustFit(t, "gmm", tpl, DefaultConfig())
	full := filepath.Join(dir, "full.gob")
	if err := Save(full, d); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, len(raw) / 2, len(raw) - 1} {
		p := filepath.Join(dir, "trunc.gob")
		if err := os.WriteFile(p, raw[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := TryLoad(p); ok {
			t.Fatalf("loaded from %d of %d bytes", n, len(raw))
		}
	}
	// The intact artifact still loads — the misses above were the file's fault.
	if _, ok := TryLoad(full); !ok {
		t.Fatal("intact artifact missed")
	}
}

// TestLoadRejectsUnknownBackendArtifact: a schema-2 envelope naming a
// backend this binary does not register is a miss, not an error or panic.
func TestLoadRejectsUnknownBackendArtifact(t *testing.T) {
	tpl := synthTemplate(2, 20, 109)
	d := mustFit(t, "gmm", tpl, DefaultConfig())
	dto := fittedDTO{
		Kind:       "from-the-future",
		Events:     d.events,
		Classes:    d.classes,
		Decision:   hpc.CacheMisses,
		Modelled:   d.modelled,
		Thresholds: d.thresholds,
		Scorers:    d.scorers,
	}
	p := filepath.Join(t.TempDir(), "future.gob")
	if err := persist.Save(p, DetectorSchema, &dto); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(p); err == nil {
		t.Fatal("Load accepted an unknown backend")
	}
	if _, ok := TryLoad(p); ok {
		t.Fatal("TryLoad treated an unknown backend as a hit")
	}
}

// FuzzTryLoad is the crash gate on the artifact loader: no byte sequence —
// valid envelope, mutation, or noise — may panic it.
// Unknown backends and corrupt payloads are misses, not errors.
func FuzzTryLoad(f *testing.F) {
	tpl := synthTemplate(2, 20, 131)
	dir := f.TempDir()
	for _, kind := range []string{"gmm", "fusion", "confidence"} {
		d, err := Fit(kind, tpl, DefaultConfig())
		if err != nil {
			f.Fatal(err)
		}
		p := filepath.Join(dir, kind+".gob")
		if err := Save(p, d); err != nil {
			f.Fatal(err)
		}
		raw, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Add([]byte{})
	f.Add([]byte("garbage"))
	// A valid envelope cut mid-payload must be a miss.
	raw, err := os.ReadFile(filepath.Join(dir, "gmm.gob"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw[:len(raw)/2])

	f.Fuzz(func(t *testing.T, data []byte) {
		p := filepath.Join(t.TempDir(), "fuzz.gob")
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Skip()
		}
		d, ok := TryLoad(p)
		if ok && d == nil {
			t.Fatal("TryLoad reported a hit with a nil detector")
		}
		if ok {
			// A loaded detector must be scorable without panicking.
			d.Detect(synthMeasurement(rng.New(1), 0, 1000))
		}
	})
}

// TestDecisionSurvivesSaveLoad: every backend, fitted to decide by a
// non-default event, keeps Detect(q).Fused across Save/Load, and a
// per-event backend decides by that event's channel. A multi-channel
// template without the decision event's channel is a Fit error, and an
// artifact whose stored decision event has no channel is a Load miss.
func TestDecisionSurvivesSaveLoad(t *testing.T) {
	tpl := synthTemplate(3, 40, 113)
	cfg := DefaultConfig()
	cfg.DecisionEvent = hpc.Instructions
	r := rng.New(127)
	var queries []core.Measurement
	for i := 0; i < 60; i++ {
		// Anomalous cache-misses on odd queries, anomalous instructions on
		// every third: the two channels disagree on a share of them.
		q := synthMeasurement(r, i%3, 1000+200*float64(i%3)+600*float64(i%2))
		if i%3 == 0 {
			q.Counts[hpc.Instructions] *= 1.5
		}
		queries = append(queries, q)
	}
	dir := t.TempDir()
	for _, kind := range Kinds() {
		d := mustFit(t, kind, tpl, cfg)
		path := filepath.Join(dir, kind+".gob")
		if err := Save(path, d); err != nil {
			t.Fatalf("Save(%s): %v", kind, err)
		}
		back, err := Load(path)
		if err != nil {
			t.Fatalf("Load(%s): %v", kind, err)
		}
		disagree := 0
		for qi, q := range queries {
			a, b := d.Detect(q), back.Detect(q)
			if a.Fused != b.Fused {
				t.Fatalf("%s: query %d: Fused %v before Save, %v after Load", kind, qi, a.Fused, b.Fused)
			}
			if len(a.Channels) == 1 {
				continue
			}
			if a.Fused != a.FlaggedBy(hpc.Instructions) {
				t.Fatalf("%s: query %d not decided by the instructions channel: %+v", kind, qi, a)
			}
			if a.FlaggedBy(hpc.Instructions) != a.FlaggedBy(hpc.CacheMisses) {
				disagree++
			}
		}
		if len(d.Channels()) > 1 && disagree == 0 {
			t.Fatalf("%s: no query tells the instructions rule from the cache-misses rule", kind)
		}
	}

	// Neither synthetic channel is branch-misses.
	cfg.DecisionEvent = hpc.BranchMisses
	for _, kind := range Kinds() {
		_, err := Fit(kind, tpl, cfg)
		single := kind == "fusion" || kind == "confidence"
		if single && err != nil {
			t.Errorf("%s: a single-channel backend must decide by its channel: %v", kind, err)
		}
		if !single && err == nil {
			t.Errorf("%s: fitted a detector with no branch-misses channel to decide by", kind)
		}
	}
	d := mustFit(t, "gmm", tpl, DefaultConfig())
	dto := fittedDTO{
		Kind:       d.kind,
		Events:     d.events,
		Classes:    d.classes,
		Decision:   hpc.BranchMisses,
		Modelled:   d.modelled,
		Thresholds: d.thresholds,
		Scorers:    d.scorers,
	}
	p := filepath.Join(dir, "no-decision-channel.gob")
	if err := persist.Save(p, DetectorSchema, &dto); err != nil {
		t.Fatal(err)
	}
	if _, ok := TryLoad(p); ok {
		t.Fatal("TryLoad accepted an artifact whose decision event has no channel")
	}
}

// TestDecidesBy: a loaded detector is accepted only under the decision
// event it was fitted with, and the refusal names its own channel; a
// single-channel combinator decides by its channel under any event.
func TestDecidesBy(t *testing.T) {
	tpl := synthTemplate(2, 30, 137)
	d := mustFit(t, "gmm", tpl, DefaultConfig())
	if err := d.DecidesBy(hpc.CacheMisses); err != nil {
		t.Fatalf("DecidesBy(cache-misses) on a cache-misses detector: %v", err)
	}
	for _, e := range []hpc.Event{hpc.Instructions, hpc.BranchMisses} {
		err := d.DecidesBy(e)
		if err == nil || !strings.Contains(err.Error(), "decides by cache-misses") {
			t.Errorf("DecidesBy(%v) = %v, want a refusal naming cache-misses", e, err)
		}
	}
	f := mustFit(t, "fusion", tpl, DefaultConfig())
	if err := f.DecidesBy(hpc.Instructions); err != nil {
		t.Errorf("fusion DecidesBy(instructions): %v", err)
	}
}
