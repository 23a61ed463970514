package obs

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestTraceRecordLifecycle: a record built through the public surface renders
// the full wide event — id, status, routing fields, cache bit, stage timings
// with the queue stage feeding queue_wait.
func TestTraceRecordLifecycle(t *testing.T) {
	ring := NewTraceRing(4, nil)
	rec := ring.Start("r1")
	rec.SetStatus(200)
	rec.SetIndex(42)
	rec.SetTier("twin")
	rec.SetBackend("gmm")
	rec.SetVerdict("benign")
	rec.SetCacheHit(true)
	now := time.Now()
	rec.AddStage("decode", now, time.Millisecond)
	rec.AddStage("queue", now, 2*time.Millisecond)
	ring.Finish(rec)

	views := ring.Last(10)
	if len(views) != 1 {
		t.Fatalf("Last = %d views, want 1", len(views))
	}
	v := views[0]
	if v.ID != "r1" || v.Status != 200 || v.Index != 42 || v.Tier != "twin" ||
		v.Backend != "gmm" || v.Verdict != "benign" || !v.CacheHit {
		t.Fatalf("view = %+v", v)
	}
	if v.QueueWaitMs != 2 {
		t.Fatalf("queue_wait_ms = %v, want 2", v.QueueWaitMs)
	}
	if len(v.Stages) != 2 || v.Stages[0].Stage != "decode" || v.Stages[1].DurationMs != 2 {
		t.Fatalf("stages = %+v", v.Stages)
	}
	if v.TotalMs < 0 {
		t.Fatalf("total_ms = %v", v.TotalMs)
	}
}

// TestTraceNilSafety: a nil ring hands out nil records whose setters swallow
// writes — tracing-off costs no branches at call sites.
func TestTraceNilSafety(t *testing.T) {
	var ring *TraceRing
	rec := ring.Start("x")
	if rec != nil {
		t.Fatal("nil ring issued a record")
	}
	rec.SetStatus(500)
	rec.AddStage("s", time.Now(), time.Second)
	ring.Finish(rec)
	if got := ring.Last(5); len(got) != 0 {
		t.Fatalf("nil ring Last = %v", got)
	}
}

// TestTraceRingEvictionOrder: the ring keeps the newest n records, oldest
// first in Last, and Last(n) clamps to what is held.
func TestTraceRingEvictionOrder(t *testing.T) {
	ring := NewTraceRing(3, nil)
	for i := 1; i <= 5; i++ {
		rec := ring.Start("r" + strconv.Itoa(i))
		ring.Finish(rec)
	}
	views := ring.Last(10)
	if len(views) != 3 {
		t.Fatalf("Last = %d, want 3", len(views))
	}
	for i, want := range []string{"r3", "r4", "r5"} {
		if views[i].ID != want {
			t.Fatalf("views[%d].ID = %q, want %q (all: %+v)", i, views[i].ID, want, views)
		}
	}
	if got := ring.Last(2); len(got) != 2 || got[0].ID != "r4" {
		t.Fatalf("Last(2) = %+v", got)
	}
}

// TestTraceRingLastSeesOnlyFinished: Last renders finished records only,
// even while a writer keeps recycling them. A view rendered after Last
// released the ring could catch an evicted record that Start had already
// reset for the next request: status 0, no stages.
func TestTraceRingLastSeesOnlyFinished(t *testing.T) {
	ring := NewTraceRing(2, nil)
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			rec := ring.Start("w" + strconv.Itoa(i))
			rec.AddStage("measure", time.Now(), time.Microsecond)
			rec.SetStatus(200)
			ring.Finish(rec)
		}
	}()
	defer func() {
		close(stop)
		<-done
	}()
	for deadline := time.Now().Add(500 * time.Millisecond); time.Now().Before(deadline); {
		for _, v := range ring.Last(2) {
			if v.Status != 200 || len(v.Stages) != 1 {
				t.Fatalf("Last rendered an unfinished record: %+v", v)
			}
		}
	}
}

// TestTraceSink: with a sink every finished trace leaves as one JSON line.
func TestTraceSink(t *testing.T) {
	var buf bytes.Buffer
	ring := NewTraceRing(2, &buf)
	for _, id := range []string{"a", "b"} {
		rec := ring.Start(id)
		rec.SetStatus(200)
		ring.Finish(rec)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("sink lines = %d, want 2:\n%s", len(lines), buf.String())
	}
	var v TraceView
	if err := json.Unmarshal([]byte(lines[1]), &v); err != nil || v.ID != "b" {
		t.Fatalf("sink line not a TraceView: %v %q", err, lines[1])
	}
}

// TestTraceHandler: /debug/trace merges rings (skipping nil ones), sorts by
// start time, and honours ?last.
func TestTraceHandler(t *testing.T) {
	r1 := NewTraceRing(4, nil)
	r2 := NewTraceRing(4, nil)
	for i := 0; i < 3; i++ {
		ring := r1
		if i%2 == 1 {
			ring = r2
		}
		rec := ring.Start("t" + strconv.Itoa(i))
		ring.Finish(rec)
		time.Sleep(time.Millisecond)
	}

	rr := httptest.NewRecorder()
	TraceHandler(r1, nil, r2).ServeHTTP(rr, httptest.NewRequest("GET", "/debug/trace?last=2", nil))
	var page struct {
		Count  int         `json:"count"`
		Traces []TraceView `json:"traces"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &page); err != nil {
		t.Fatalf("trace page not JSON: %v\n%s", err, rr.Body.String())
	}
	if page.Count != 2 || len(page.Traces) != 2 {
		t.Fatalf("page = %+v", page)
	}
	if page.Traces[0].ID != "t1" || page.Traces[1].ID != "t2" {
		t.Fatalf("merge order wrong: %+v", page.Traces)
	}
}

// TestTraceRingAllocs: the steady-state record lifecycle — issue, annotate,
// stage, finish — allocates nothing once the pool is warm. This is the
// observe-only hot-path budget the serve pipeline relies on.
func TestTraceRingAllocs(t *testing.T) {
	ring := NewTraceRing(8, nil)
	now := time.Now()
	run := func() {
		rec := ring.Start("warm")
		rec.SetStatus(200)
		rec.SetTier("exact")
		rec.SetBackend("gmm")
		rec.SetVerdict("benign")
		rec.SetCacheHit(true)
		rec.AddStage("decode", now, time.Millisecond)
		rec.AddStage("queue", now, time.Millisecond)
		rec.AddStage("measure", now, time.Millisecond)
		ring.Finish(rec)
	}
	// Warm the pool and grow every record's stage slice to capacity.
	for i := 0; i < 32; i++ {
		run()
	}
	if allocs := testing.AllocsPerRun(200, run); allocs != 0 {
		t.Fatalf("trace lifecycle allocates %v per request, want 0", allocs)
	}
}

// TestValidRequestID: the header acceptance predicate.
func TestValidRequestID(t *testing.T) {
	for id, want := range map[string]bool{
		"abc-123_X.z":            true,
		"r7":                     true,
		"":                       false,
		"has space":              false,
		"bad\nheader":            false,
		strings.Repeat("a", 128): true,
		strings.Repeat("a", 129): false,
	} {
		if got := ValidRequestID(id); got != want {
			t.Errorf("ValidRequestID(%q) = %v, want %v", id, got, want)
		}
	}
}
