package detect

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"advhunter/internal/core"
	"advhunter/internal/rng"
	"advhunter/internal/uarch/hpc"
)

// allEventsTemplate builds a clean template over every event, so the
// per-event backends fit one scorer per event: enough channels for Fit's
// fan-out to run several fits at once.
func allEventsTemplate(classes, perClass int, seed uint64) *core.Template {
	r := rng.New(seed)
	events := hpc.AllEvents()
	t := core.NewTemplate(classes, events)
	for c := 0; c < classes; c++ {
		for i := 0; i < perClass; i++ {
			var counts hpc.Counts
			for n, e := range events {
				counts[e] = r.Normal(1000*float64(n+1)+100*float64(c), 10+float64(n))
			}
			t.Add(core.Measurement{Pred: c, TrueLabel: c, Counts: counts, Conf: 0.5 + 0.1*float64(c)})
		}
	}
	return t
}

// savedBytes returns the bytes Save writes for d.
func savedBytes(t *testing.T, d *Fitted) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "det.gob")
	if err := Save(path, d); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestFitConcurrentMatchesSerial fits every backend with its scorers fanned
// out over the CPUs and again on one CPU, and requires byte-identical saved
// detectors. Under -race it also checks that concurrent scorer fits share
// no written state.
func TestFitConcurrentMatchesSerial(t *testing.T) {
	tpl := allEventsTemplate(3, 24, 5)
	// fitAt fits kind with Fit's fan-out limited to procs workers.
	fitAt := func(procs int, kind string) []byte {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		d, err := Fit(kind, tpl, DefaultConfig())
		if err != nil {
			t.Fatalf("%s at %d procs: %v", kind, procs, err)
		}
		return savedBytes(t, d)
	}
	for _, kind := range Kinds() {
		if !bytes.Equal(fitAt(1, kind), fitAt(4, kind)) {
			t.Errorf("%s: concurrent fit saves different bytes from a serial one", kind)
		}
	}
}

// TestFitReadsOnlyTemplateEvents: template rows keep every event of each
// reading, so a scorer that read an event outside t.Events would fit
// differently when those events change. Setting them all to NaN must leave
// every backend's saved bytes as they are on the clean readings.
func TestFitReadsOnlyTemplateEvents(t *testing.T) {
	clean := synthTemplate(3, 30, 17)
	poisoned := core.NewTemplate(clean.Classes, clean.Events)
	for _, rows := range clean.Rows {
		for _, m := range rows {
			for e := hpc.Event(0); e < hpc.NumEvents; e++ {
				if !slices.Contains(clean.Events, e) {
					m.Counts[e] = math.NaN()
				}
			}
			poisoned.Add(m)
		}
	}
	for _, kind := range Kinds() {
		want := savedBytes(t, mustFit(t, kind, clean, DefaultConfig()))
		if got := savedBytes(t, mustFit(t, kind, poisoned, DefaultConfig())); !bytes.Equal(got, want) {
			t.Errorf("%s: events outside the template changed the fitted detector", kind)
		}
	}
}

// failScorer is a scorer whose Fit fails when fail is set. A failing scorer
// with wait set holds its error back until release closes, so a later
// scorer's error is ready first. Its channel is event Index's, so a detector
// of failScorers has event channels to decide by.
type failScorer struct {
	Index   int
	fail    bool
	wait    bool
	release chan struct{}
}

func (s *failScorer) Channel() string { return hpc.Event(s.Index).String() }

func (s *failScorer) Fit(*core.Template, Config) error {
	if !s.fail {
		return nil
	}
	if s.wait {
		select {
		case <-s.release:
		case <-time.After(200 * time.Millisecond): // one CPU: fits run in order
		}
	} else {
		defer close(s.release)
	}
	return fmt.Errorf("scorer %d failed", s.Index)
}

func (s *failScorer) Score(core.Measurement) (float64, bool) { return 0, false }

func (s *failScorer) validate(int, []hpc.Event) error { return nil }

// TestFitReturnsLowestIndexError requires Fit to report the error of the
// lowest-index failing scorer, as a serial loop would, even when a later
// scorer fails first.
func TestFitReturnsLowestIndexError(t *testing.T) {
	const kind = "test-failing"
	release := make(chan struct{})
	backends[kind] = Backend{Kind: kind, New: func(*core.Template, Config) ([]Scorer, error) {
		return []Scorer{
			&failScorer{Index: 0},
			&failScorer{Index: 1, fail: true, wait: true, release: release},
			&failScorer{Index: 2},
			&failScorer{Index: 3, fail: true, release: release},
		}, nil
	}}
	defer delete(backends, kind)
	cfg := DefaultConfig()
	cfg.DecisionEvent = hpc.Event(0) // scorer 0's channel
	_, err := Fit(kind, synthTemplate(2, 20, 1), cfg)
	if err == nil || !strings.Contains(err.Error(), "scorer 1 failed") {
		t.Fatalf("Fit error %v, want scorer 1's", err)
	}
}
