package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"advhunter/internal/detect"
	"advhunter/internal/tensor"
)

// tierStream is the query mix the tier tests replay: clean and adversarial
// images with explicit noise indices, so every server answers the same
// logical stream.
func tierStream(f *fixture) []Request {
	var stream []Request
	for i := 0; i < 16 && i < len(f.clean); i++ {
		stream = append(stream, NewRequest(f.clean[i].X, uint64(i)))
	}
	for i := 0; i < 8 && i < len(f.adv); i++ {
		stream = append(stream, NewRequest(f.adv[i].X, uint64(500+i)))
	}
	return stream
}

// replay posts the stream and returns the raw body per index.
func replay(t *testing.T, url string, stream []Request) map[uint64]string {
	t.Helper()
	out := make(map[uint64]string, len(stream))
	for _, req := range stream {
		resp, body := post(t, url, req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("index %d: status %d: %s", *req.Index, resp.StatusCode, body)
		}
		out[*req.Index] = string(body)
	}
	return out
}

// TestServeTierTwin: under auto with a negative margin every response is
// decided — and labelled — by the twin, nothing escalates, predictions are
// bit-identical to the exact path (the forward numerics are shared), and
// /metrics exports the tier series: the table gauge reads the table's exact
// size, and no exact measure stage ever ran.
func TestServeTierTwin(t *testing.T) {
	f := getFixture(t)
	stream := tierStream(f)

	_, tsExact := newServer(t, f, Config{Workers: 1})
	exact := replay(t, tsExact.URL, stream)

	_, tsTwin := newServer(t, f, f.twinOnlyConfig(Config{Workers: 1}))
	bodies := replay(t, tsTwin.URL, stream)
	for idx, body := range bodies {
		var r, e Response
		if err := json.Unmarshal([]byte(body), &r); err != nil {
			t.Fatalf("index %d: %v", idx, err)
		}
		if err := json.Unmarshal([]byte(exact[idx]), &e); err != nil {
			t.Fatal(err)
		}
		if r.Tier != TierTwin {
			t.Fatalf("index %d: tier %q, want %q", idx, r.Tier, TierTwin)
		}
		if r.PredictedClass != e.PredictedClass {
			t.Fatalf("index %d: twin predicted class %d, exact %d", idx, r.PredictedClass, e.PredictedClass)
		}
	}

	mresp, err := http.Get(tsTwin.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	text := string(mbody)
	for _, want := range []string{
		`advhunter_tier_requests_total{tier="twin"} 24`,
		"advhunter_tier_escalations_total 0",
		"advhunter_twin_table_bytes " + strconv.FormatFloat(float64(f.twinTab.Bytes()), 'g', -1, 64),
	} {
		if !strings.Contains(text, "\n"+want+"\n") {
			t.Errorf("/metrics missing the line %q", want)
		}
	}
	if strings.Contains(text, `stage="measure"`) {
		t.Error(`/metrics has a stage="measure" series, but the twin decided every query`)
	}
	for _, want := range []string{"advhunter_twin_truth_cache_entries", "advhunter_twin_truth_cache_bytes"} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// The exact server exports its truth cache's size gauge.
	eresp, err := http.Get(tsExact.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	ebody, _ := io.ReadAll(eresp.Body)
	eresp.Body.Close()
	if !strings.Contains(string(ebody), "advhunter_truth_cache_bytes") {
		t.Error("exact server /metrics missing advhunter_truth_cache_bytes")
	}
}

// TestServeTierOmittedUnderExact: plain exact serving must render bodies
// without any tier field — byte-compatible with pre-tier versions.
func TestServeTierOmittedUnderExact(t *testing.T) {
	f := getFixture(t)
	_, ts := newServer(t, f, Config{Workers: 1})
	_, body := post(t, ts.URL, NewRequest(f.clean[0].X, 3))
	if strings.Contains(string(body), `"tier"`) {
		t.Fatalf("exact-tier response carries a tier field: %s", body)
	}
}

// TestServeTierAutoEscalatesAll: with an enormous margin every twin verdict
// is uncertain, so the auto tier degenerates to exact serving — each verdict
// must equal the plain exact server's, with the tier label as the only
// difference.
func TestServeTierAutoEscalatesAll(t *testing.T) {
	f := getFixture(t)
	stream := tierStream(f)

	_, tsExact := newServer(t, f, Config{Workers: 1})
	exact := replay(t, tsExact.URL, stream)

	cfg := f.autoConfig(Config{Workers: 1})
	cfg.EscalationMargin = 1e9
	s, ts := newServer(t, f, cfg)
	for idx, body := range replay(t, ts.URL, stream) {
		var got, want Response
		if err := json.Unmarshal([]byte(body), &got); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal([]byte(exact[idx]), &want); err != nil {
			t.Fatal(err)
		}
		if got.Tier != TierExact {
			t.Fatalf("index %d: tier %q, want %q (everything must escalate)", idx, got.Tier, TierExact)
		}
		got.Tier = ""
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("index %d: escalated verdict differs from exact serving:\nauto:  %+v\nexact: %+v", idx, got, want)
		}
	}
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	n := len(stream)
	for _, want := range []string{
		"advhunter_tier_screened_total " + itoa(n),
		"advhunter_tier_escalations_total " + itoa(n),
		`advhunter_tier_requests_total{tier="exact"} ` + itoa(n),
	} {
		if !strings.Contains(string(mbody), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// Each screened query ran one twin-measure stage, each escalated one ran
	// one exact measure stage.
	for stage, counter := range map[string]string{
		"twin-measure": "advhunter_tier_screened_total",
		"measure":      "advhunter_tier_escalations_total",
	} {
		got := series(string(mbody), `advhunter_stage_duration_seconds_count{stage="`+stage+`"}`)
		if want := series(string(mbody), counter); got != want {
			t.Errorf("%s stages = %s, %s = %s", stage, got, counter, want)
		}
	}
	_ = s
}

// TestServeTierAutoNeverEscalates: a negative margin makes no twin verdict
// uncertain, so every auto response must be the twin's own verdict: the twin
// detector's scores and flags on the twin measurement at that index.
func TestServeTierAutoNeverEscalates(t *testing.T) {
	f := getFixture(t)
	stream := tierStream(f)
	_, ts := newServer(t, f, f.twinOnlyConfig(Config{Workers: 1}))
	bodies := replay(t, ts.URL, stream)
	tm := f.twin.Clone()
	for _, req := range stream {
		idx := *req.Index
		x := tensor.FromSlice(req.Data, req.Shape...)
		want := f.twinDet.Detect(tm.MeasureAt(idx, x))
		var got Response
		if err := json.Unmarshal([]byte(bodies[idx]), &got); err != nil {
			t.Fatal(err)
		}
		if got.Tier != TierTwin || got.PredictedClass != want.PredictedClass || got.Modelled != want.Modelled {
			t.Fatalf("index %d: got tier %q class %d modelled %v, want twin class %d modelled %v",
				idx, got.Tier, got.PredictedClass, got.Modelled, want.PredictedClass, want.Modelled)
		}
		for i, ch := range want.Channels {
			if got.Scores[ch] != want.Scores[i] || got.Flags[ch] != want.Flags[i] {
				t.Fatalf("index %d channel %s: score %g flag %v, twin detector gives %g %v",
					idx, ch, got.Scores[ch], got.Flags[ch], want.Scores[i], want.Flags[i])
			}
		}
	}
}

// channelsDetector reports a chosen channel list in place of the wrapped
// detector's — what New checks a twin detector by.
type channelsDetector struct {
	detect.Detector
	channels []string
}

func (d channelsDetector) Channels() []string { return d.channels }

// TestServeTwinDetectorChannelMismatch: the service decision rule and the
// response channel maps are shared across tiers, so a twin tier without its
// own detector, or with one that does not score the main detector's
// channels in the same order, is a panic at construction, never a silently
// misread verdict.
func TestServeTwinDetectorChannelMismatch(t *testing.T) {
	f := getFixture(t)
	main := f.det.Channels()
	renamed := append([]string(nil), main...)
	renamed[0] += "-twin"
	for name, twinDet := range map[string]detect.Detector{
		"no twin detector": nil,
		"fewer channels":   channelsDetector{Detector: f.twinDet, channels: main[:len(main)-1]},
		"renamed channel":  channelsDetector{Detector: f.twinDet, channels: renamed},
	} {
		t.Run(name, func(t *testing.T) {
			cfg := f.autoConfig(Config{Workers: 1})
			cfg.TwinDetector = twinDet
			defer func() {
				if recover() == nil {
					t.Fatalf("New accepted a twin tier with %s (main channels %v)", name, main)
				}
			}()
			New(f.meas.Clone(), f.det, cfg)
		})
	}
}

// TestServeTierAutoConcurrencyDeterminism is the tiered form of the serving
// determinism contract: the twin verdict, the escalation decision, and the
// exact verdict are each pure functions of (model, input, seed, index), so
// auto-tier responses must be byte-identical between a serial replay and 8
// concurrent clients over a multi-replica pool. Runs under -race via
// scripts/verify.sh.
func TestServeTierAutoConcurrencyDeterminism(t *testing.T) {
	f := getFixture(t)
	stream := tierStream(f)

	_, tsSerial := newServer(t, f, f.autoConfig(Config{Workers: 1}))
	serial := replay(t, tsSerial.URL, stream)

	_, tsConc := newServer(t, f, f.autoConfig(Config{
		Workers: 4, QueueSize: len(stream) + 8,
	}))
	var (
		mu         sync.Mutex
		concurrent = make(map[uint64]string, len(stream))
		wg         sync.WaitGroup
		work       = make(chan Request)
	)
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
				concurrent[*req.Index] = string(body)
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

	if len(concurrent) != len(serial) {
		t.Fatalf("concurrent replay produced %d responses, serial %d", len(concurrent), len(serial))
	}
	for idx, want := range serial {
		if got := concurrent[idx]; got != want {
			t.Fatalf("index %d diverged under concurrency:\nserial:     %s\nconcurrent: %s", idx, want, got)
		}
	}
}

func itoa(n int) string {
	b, _ := json.Marshal(n)
	return string(b)
}
