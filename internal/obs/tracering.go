package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"
)

// TraceRecord is one request's wide event: everything the serving pipeline
// learned about a single request — identity, routing, verdict, cache
// behaviour, and per-stage timings — aggregated into one structured record
// instead of scattered across log lines. Records are pooled: a TraceRing
// hands them out in Start, takes them back in Finish, and recycles the ones
// its ring evicts, so the steady-state request path allocates nothing
// (TestTraceRingAllocs holds that line).
//
// A record is owned by its request handler between Start and Finish: every
// write happens on that goroutine, and the mutex orders them against the
// readers (Last, the sink).
type TraceRecord struct {
	mu        sync.Mutex
	id        string
	start     time.Time
	status    int
	index     uint64
	tier      string
	backend   string
	verdict   string
	cacheHit  bool
	queueWait time.Duration
	total     time.Duration
	stages    []stageTiming // capacity reused across recycles
}

// stageTiming is one finished pipeline stage inside a trace record.
type stageTiming struct {
	stage  string
	offset time.Duration // from record start
	dur    time.Duration
}

// reset prepares a (possibly recycled) record for a new request.
func (t *TraceRecord) reset(id string) {
	t.mu.Lock()
	t.id = id
	t.start = time.Now()
	t.status = 0
	t.index = 0
	t.tier, t.backend, t.verdict = "", "", ""
	t.cacheHit = false
	t.queueWait, t.total = 0, 0
	t.stages = t.stages[:0]
	t.mu.Unlock()
}

// The typed setters below are nil-safe so instrumentation points never
// nil-check: with tracing off they cost one pointer compare.

// SetStatus records the HTTP status the request was answered with.
func (t *TraceRecord) SetStatus(code int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.status = code
	t.mu.Unlock()
}

// SetIndex records the request's measurement-noise index.
func (t *TraceRecord) SetIndex(idx uint64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.index = idx
	t.mu.Unlock()
}

// SetTier records the measurement tier that decided the request.
func (t *TraceRecord) SetTier(tier string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.tier = tier
	t.mu.Unlock()
}

// SetBackend records the detector backend that scored the request.
func (t *TraceRecord) SetBackend(backend string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.backend = backend
	t.mu.Unlock()
}

// SetVerdict records the detection verdict ("adversarial" or "benign").
func (t *TraceRecord) SetVerdict(verdict string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.verdict = verdict
	t.mu.Unlock()
}

// SetCacheHit records whether the truth cache served the measurement.
func (t *TraceRecord) SetCacheHit(hit bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.cacheHit = hit
	t.mu.Unlock()
}

// AddStage appends one finished stage timing; a "queue" stage also sets the
// record's queue wait.
func (t *TraceRecord) AddStage(stage string, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.stages = append(t.stages, stageTiming{stage: stage, offset: start.Sub(t.start), dur: d})
	if stage == "queue" {
		t.queueWait = d
	}
	t.mu.Unlock()
}

// view renders the record for readers. Caller must not hold t.mu.
func (t *TraceRecord) view() TraceView {
	t.mu.Lock()
	defer t.mu.Unlock()
	v := TraceView{
		ID:          t.id,
		Start:       t.start,
		Status:      t.status,
		Index:       t.index,
		Tier:        t.tier,
		Backend:     t.backend,
		Verdict:     t.verdict,
		CacheHit:    t.cacheHit,
		QueueWaitMs: float64(t.queueWait) / float64(time.Millisecond),
		TotalMs:     float64(t.total) / float64(time.Millisecond),
		Stages:      make([]StageView, len(t.stages)),
	}
	for i, s := range t.stages {
		v.Stages[i] = StageView{
			Stage:      s.stage,
			OffsetMs:   float64(s.offset) / float64(time.Millisecond),
			DurationMs: float64(s.dur) / float64(time.Millisecond),
		}
	}
	return v
}

// TraceView is the serialisable form of one trace record — what
// /debug/trace and the JSONL sink emit.
type TraceView struct {
	ID          string      `json:"id"`
	Start       time.Time   `json:"start"`
	Status      int         `json:"status"`
	Index       uint64      `json:"index"`
	Tier        string      `json:"tier,omitempty"`
	Backend     string      `json:"backend,omitempty"`
	Verdict     string      `json:"verdict,omitempty"`
	CacheHit    bool        `json:"cache_hit"`
	QueueWaitMs float64     `json:"queue_wait_ms"`
	TotalMs     float64     `json:"total_ms"`
	Stages      []StageView `json:"stages"`
}

// StageView is one stage timing inside a TraceView.
type StageView struct {
	Stage      string  `json:"stage"`
	OffsetMs   float64 `json:"offset_ms"`
	DurationMs float64 `json:"duration_ms"`
}

// TraceRing is a bounded ring of the most recent finished trace records plus
// a free list recycling the records it evicts. A nil *TraceRing is a valid
// no-op source: Start returns a nil record every setter accepts.
type TraceRing struct {
	mu   sync.Mutex
	buf  []*TraceRecord
	next int // ring write cursor
	size int
	// free holds evicted records for Start to reuse, at most len(buf) of
	// them. Unlike a sync.Pool it never drops a record, so the steady state
	// allocates nothing under the race detector or a GC cycle either.
	free []*TraceRecord

	sinkMu sync.Mutex
	sink   io.Writer // optional JSONL sink; one TraceView per line
}

// NewTraceRing builds a ring holding the last n finished traces (minimum 1).
// sink, when non-nil, additionally receives every finished trace as one JSON
// line — the durable export path, at the cost of an encode per request.
func NewTraceRing(n int, sink io.Writer) *TraceRing {
	if n < 1 {
		n = 1
	}
	return &TraceRing{buf: make([]*TraceRecord, n), free: make([]*TraceRecord, 0, n), sink: sink}
}

// Start issues a (recycled) record for one request. nil-safe: a nil ring
// hands out a nil record, so call sites need no tracing-enabled branch.
func (r *TraceRing) Start(id string) *TraceRecord {
	if r == nil {
		return nil
	}
	var t *TraceRecord
	r.mu.Lock()
	if k := len(r.free); k > 0 {
		t = r.free[k-1]
		r.free = r.free[:k-1]
	}
	r.mu.Unlock()
	if t == nil {
		t = &TraceRecord{}
	}
	t.reset(id)
	return t
}

// Finish stamps the record's total duration and publishes it into the ring;
// the record the ring slot previously held goes onto the free list. With a
// sink configured the finished trace is also encoded out as one JSON line.
func (r *TraceRing) Finish(t *TraceRecord) {
	if r == nil || t == nil {
		return
	}
	t.mu.Lock()
	t.total = time.Since(t.start)
	t.mu.Unlock()

	if r.sink != nil {
		v := t.view()
		r.sinkMu.Lock()
		enc := json.NewEncoder(r.sink)
		enc.Encode(v)
		r.sinkMu.Unlock()
	}

	r.mu.Lock()
	old := r.buf[r.next]
	r.buf[r.next] = t
	r.next = (r.next + 1) % len(r.buf)
	if r.size < len(r.buf) {
		r.size++
	}
	if old != nil && len(r.free) < cap(r.free) {
		r.free = append(r.free, old)
	}
	r.mu.Unlock()
}

// Last returns views of the most recent min(n, held) finished traces, oldest
// first. nil-safe (empty).
func (r *TraceRing) Last(n int) []TraceView {
	if r == nil {
		return nil
	}
	// Render under r.mu: once it is released, Finish may evict a record and
	// Start recycle it for a new request, and a view taken then would show
	// that request's half-built record. Lock order is r.mu, then t.mu;
	// Finish releases t.mu before it takes r.mu.
	r.mu.Lock()
	defer r.mu.Unlock()
	if n > r.size {
		n = r.size
	}
	views := make([]TraceView, 0, n)
	for i := r.size - n; i < r.size; i++ {
		views = append(views, r.buf[(r.next-r.size+i+len(r.buf))%len(r.buf)].view())
	}
	return views
}

// TraceHandler serves /debug/trace over one or more rings (nil rings are
// skipped — a cluster page merges whatever replicas have tracing on):
// ?last=N (default 20) most recent traces across all rings, oldest first.
func TraceHandler(rings ...*TraceRing) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := 20
		if s := r.URL.Query().Get("last"); s != "" {
			if v, err := strconv.Atoi(s); err == nil && v > 0 {
				n = v
			}
		}
		var views []TraceView
		for _, ring := range rings {
			views = append(views, ring.Last(n)...)
		}
		sort.Slice(views, func(i, j int) bool { return views[i].Start.Before(views[j].Start) })
		if len(views) > n {
			views = views[len(views)-n:]
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", " ")
		enc.Encode(struct {
			Count  int         `json:"count"`
			Traces []TraceView `json:"traces"`
		}{len(views), views})
	})
}
