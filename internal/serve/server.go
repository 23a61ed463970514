// Package serve is the online deployment of AdvHunter: a long-lived HTTP
// JSON service that scores every inference query from its simulated HPC
// reading, the MLaaS-guard shape the paper motivates (Section 1).
//
// Architecture: each POST /detect is decided on its own handler goroutine.
// The handler admits the request before reading its body — at most
// Workers+QueueSize requests are admitted at once, and the excess answers 429
// with Retry-After — then decodes it, waits until its deadline for a free
// engine replica, and decides it on that replica: the exact tier measures and
// scores it on the exact measurer, the auto tier screens it on the twin
// measurer first and escalates only twin-uncertain verdicts. Shutdown stops
// admitting and returns once every admitted request has been answered.
// Determinism survives the concurrency: each query's measurement-noise stream
// is keyed by an explicit request index through core.Measurer's
// MeasureAtCached, so its reading — and therefore its detection
// decision — is a pure function of (model, input, seed, index), independent
// of scheduling and replica assignment. internal/cluster runs N of these
// servers behind a router.
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"advhunter/internal/core"
	"advhunter/internal/detect"
	"advhunter/internal/obs"
	"advhunter/internal/parallel"
	"advhunter/internal/tensor"
)

// Config tunes the service. The zero value serves with sensible defaults.
type Config struct {
	// QueueSize is the number of requests admitted beyond the replicas
	// (default 64); the excess answers 429 + Retry-After before its body is
	// read. A request counts from handler entry until its response is
	// written, so the bound covers the body read, the decode and the write.
	QueueSize int
	// Workers is the engine-replica pool size (default GOMAXPROCS, min 1);
	// an admitted request holds one replica while it is decided.
	Workers int
	// Timeout bounds a request's wait for a free replica (default 10s): a
	// request whose deadline passes first answers 504 and is never decided.
	Timeout time.Duration
	// ClassName optionally renders class names in responses.
	ClassName func(int) string
	// TruthCacheSize caps the fingerprint-keyed truth-count memoisation
	// cache shared by the replica pool: a repeated query pays the simulated
	// inference once, and the cached noise-free counts are re-noised per
	// request index, so responses stay byte-identical to uncached serving.
	// 0 selects the default (512); negative disables memoisation. Under
	// tiered serving the same size caps the twin tier's separate truth cache
	// (twin and exact truths differ, so the caches are never shared).
	TruthCacheSize int
	// Twin, when non-nil, selects the auto tier: every query is screened by
	// this twin measurer (built by twin.FromMeasurer) and the twin-uncertain
	// ones escalate to the exact simulator; a negative EscalationMargin lets
	// the twin decide every query. nil serves the exact tier. The server
	// takes ownership and clones it across the replicas, exactly like the
	// exact measurer. Only exact readings feed advhunter_hpc_event_count.
	Twin *core.Measurer
	// TwinDetector scores twin-tier measurements, and New panics when Twin
	// is set without it. The twin's count predictions carry a small
	// systematic bias relative to the exact simulator, so the main
	// detector's thresholds would misfire on them: this one is calibrated
	// on twin-measured templates (same backend, same template protocol).
	// Its channel list must equal the main detector's, and it should be
	// fitted under the same decision event: a twin verdict is its own
	// Fused, and escalation is its own Uncertain.
	TwinDetector detect.Detector
	// EscalationMargin is the auto tier's uncertainty band: a twin verdict
	// escalates to the exact tier when its deciding score lies within
	// margin·(1+|threshold|) of the decision threshold
	// (detect.Detector.Uncertain). 0 selects detect.DefaultMargin; negative
	// means never uncertain (the twin decides everything).
	EscalationMargin float64
	// Logger receives the server's structured records (per-request debug
	// lines, one "span" line per pipeline stage). nil selects
	// slog.Default(). Logging and tracing are observe-only: enabling them
	// never changes a verdict or a response byte (TestObsIsObserveOnly holds
	// that line). The flight recorder and the alert engine are not the
	// server's: they only read registries, so the process that serves builds
	// them over Registry().
	Logger *slog.Logger

	// TraceRing enables request-scoped wide events: every /detect request
	// aggregates its stage timings, routing and verdict into one pooled trace
	// record, and the last TraceRing of them are queryable at /debug/trace. 0
	// disables (unless TraceLog is set, which implies a default-sized ring).
	TraceRing int
	// TraceLog, when non-nil, additionally receives every finished trace as
	// one JSON line — the durable export path.
	TraceLog io.Writer

	// gate, when non-nil, holds every acquired replica until it is closed or
	// the request's deadline passes — a test-only hook for filling the
	// queue deterministically. It must be set before New.
	gate chan struct{}
}

// The measurement tiers: the tier labels of responses, and the names the
// command line selects a tier by.
const (
	// TierExact simulates every query on the exact engine (the default).
	TierExact = "exact"
	// TierTwin labels a response the twin decided. It is not a tier of its
	// own: TierAuto with a negative EscalationMargin serves twin only.
	TierTwin = "twin"
	// TierAuto screens with the twin and escalates uncertain queries
	// (Config.Twin set).
	TierAuto = "auto"
)

// RetryAfter is the Retry-After hint, in seconds, on every 429.
const RetryAfter = "1"

func (c Config) withDefaults() Config {
	if c.QueueSize <= 0 {
		c.QueueSize = 64
	}
	if c.Workers <= 0 {
		c.Workers = parallel.Workers(0, 0)
	}
	if c.Timeout <= 0 {
		c.Timeout = 10 * time.Second
	}
	if c.TruthCacheSize == 0 {
		c.TruthCacheSize = 512
	}
	if c.EscalationMargin == 0 {
		c.EscalationMargin = detect.DefaultMargin
	}
	if c.TraceLog != nil && c.TraceRing <= 0 {
		c.TraceRing = 256
	}
	return c
}

// Server is the online detection service: each admitted request waits for
// one of Workers engine replicas and is decided on it. Build with New,
// expose with Handler, stop with Shutdown.
type Server struct {
	cfg      Config
	det      detect.Detector
	channels []string
	shape    [3]int

	exact    *pool         // the exact tier's measurement stage
	twin     *pool         // the auto tier's twin screen; nil under the exact tier
	replicas chan int      // free replica indices
	waiting  atomic.Int64  // admitted requests waiting for a free replica
	next     atomic.Uint64 // server-assigned indices for index-less requests
	rids     atomic.Uint64 // request ids for log correlation (distinct from idx)

	mu       sync.Mutex    // guards admitted, draining and closing idle
	admitted int           // requests between admission and their answer
	draining bool          // set by Shutdown; admission answers 503
	idle     chan struct{} // closed once draining with nothing admitted

	stats  *metrics
	logger *slog.Logger
	traces *obs.TraceRing // nil unless TraceRing enables it
	mux    *http.ServeMux
	gate   chan struct{} // from Config.gate; see there
}

// New builds and starts the service around a measurer (whose engine defines
// the served model; New takes ownership and clones it Workers-1 times) and
// a fitted detector of any registered backend — typically loaded with
// detect.TryLoad, the "fit once, serve many" path.
func New(m *core.Measurer, det detect.Detector, cfg Config) *Server {
	cfg = cfg.withDefaults()
	meta := m.Engine.Model.Meta
	channels := det.Channels()
	s := &Server{
		cfg:      cfg,
		det:      det,
		channels: channels,
		shape:    [3]int{meta.InC, meta.InH, meta.InW},
		replicas: make(chan int, cfg.Workers),
		idle:     make(chan struct{}),
		stats:    newMetrics(det.Kind(), channels),
		logger:   cfg.Logger,
		gate:     cfg.gate,
	}
	if s.logger == nil {
		s.logger = slog.Default()
	}

	// Truth caches, one per tier: twin and exact truths for the same input
	// differ, so they are never shared.
	var truth, twinTruth *core.TruthCache
	if cfg.TruthCacheSize > 0 {
		truth = core.NewTruthCache(cfg.TruthCacheSize)
		s.stats.registerTruthCache(truth)
		if cfg.Twin != nil {
			twinTruth = core.NewTruthCache(cfg.TruthCacheSize)
		}
	}

	for w := 0; w < cfg.Workers; w++ {
		s.replicas <- w
	}
	s.stats.reg.Gauge("advhunter_pool_workers", "Engine replica pool size.").With().Set(float64(cfg.Workers))
	s.stats.reg.GaugeFunc("advhunter_pool_busy_workers",
		"Engine replicas currently running a measurement.", func() float64 { return float64(cfg.Workers - len(s.replicas)) })
	s.stats.reg.GaugeFunc("advhunter_queue_depth",
		"Admitted requests waiting for a free replica.", func() float64 { return float64(s.waiting.Load()) })
	s.stats.reg.Gauge("advhunter_queue_capacity",
		"Requests admitted beyond the replicas (Config.QueueSize).").With().Set(float64(cfg.QueueSize))

	s.exact = &pool{
		meas: replicate(m, cfg.Workers), truth: truth, det: det,
		stageMeasure: "measure", stageScore: "score",
		hits: s.stats.truthHits, misses: s.stats.truthMisses,
		events: s.stats.hpcEvents,
	}

	// The auto tier adds a twin measurement stage in front of the exact one.
	if cfg.Twin != nil {
		if cfg.TwinDetector == nil {
			panic("serve: Config.Twin is set without a TwinDetector")
		}
		// The response channel maps are shared across tiers, so the twin
		// detector must score the same channels in the same order.
		got := cfg.TwinDetector.Channels()
		if len(got) != len(channels) {
			panic(fmt.Sprintf("serve: twin detector has %d channels, main detector %d", len(got), len(channels)))
		}
		for i, ch := range got {
			if ch != channels[i] {
				panic(fmt.Sprintf("serve: twin detector channel %d is %q, main detector has %q", i, ch, channels[i]))
			}
		}
		s.stats.registerTier(cfg.Twin.Twin, twinTruth)
		s.twin = &pool{
			meas: replicate(cfg.Twin, cfg.Workers), truth: twinTruth, det: cfg.TwinDetector,
			stageMeasure: "twin-measure", stageScore: "twin-score",
			hits: s.stats.twinTruthHits, misses: s.stats.twinTruthMisses,
		}
	}

	if cfg.TraceRing > 0 {
		s.traces = obs.NewTraceRing(cfg.TraceRing, cfg.TraceLog)
	}

	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/detect", func(w http.ResponseWriter, r *http.Request) { s.ServeDecoded(w, r, nil) })
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	// /metrics merges the server's private registry with the process-wide one
	// (cache-op counters, build info), so one scrape sees every layer.
	s.mux.Handle("/metrics", obs.Handler(s.stats.reg, obs.Default))
	s.mux.Handle("/debug/build", obs.BuildInfoHandler())
	if s.traces != nil {
		s.mux.Handle("/debug/trace", obs.TraceHandler(s.traces))
	}
	return s
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Registry returns the server's private metrics registry — the hook a
// multi-replica assembly uses to stamp each replica's series with its
// identity (obs.SetConstLabels) and merge them onto one exposition page, and
// the registry a flight recorder or alert engine reads.
func (s *Server) Registry() *obs.Registry { return s.stats.reg }

// Traces returns the server's trace ring, or nil when disabled — the hook a
// cluster's merged /debug/trace page reads.
func (s *Server) Traces() *obs.TraceRing { return s.traces }

// Shape returns the served model's input shape (C, H, W) — what a router in
// front of the server needs to decode and fingerprint request bodies.
func (s *Server) Shape() [3]int { return s.shape }

// Shutdown drains the service: new detection requests and /readyz answer
// 503, and Shutdown returns once every admitted request has been answered.
// It returns early with the context's error if draining outlives it; a later
// Shutdown waits again.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		if s.admitted == 0 {
			close(s.idle)
		}
	}
	s.mu.Unlock()
	select {
	case <-s.idle:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// admit counts one request in before its body is read: it answers 503 while
// draining and 429 once Workers+QueueSize requests are admitted, else 200.
// An admitted request is counted out by done once its response is written.
func (s *Server) admit() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case s.draining:
		return http.StatusServiceUnavailable
	case s.admitted == s.cfg.Workers+s.cfg.QueueSize:
		return http.StatusTooManyRequests
	}
	s.admitted++
	return http.StatusOK
}

// done counts an answered request out; the last one out of a drain ends it.
func (s *Server) done() {
	s.mu.Lock()
	s.admitted--
	if s.draining && s.admitted == 0 {
		close(s.idle)
	}
	s.mu.Unlock()
}

// stages records one request's pipeline stages. It lives on the handler
// goroutine from the request's start to its answer, so every stage a request
// ran lands in its own trace record.
type stages struct {
	s   *Server
	ctx context.Context  // carries the request id for the span log records
	tr  *obs.TraceRecord // nil when tracing is off
}

// stage records one finished stage that began at start: the stage histogram,
// the trace record and a "span" debug log record. It is observe-only.
func (st stages) stage(name string, start time.Time) {
	d := time.Since(start)
	st.s.stats.stages.With(name).Observe(d.Seconds())
	st.tr.AddStage(name, start, d)
	st.s.logger.LogAttrs(st.ctx, slog.LevelDebug, "span",
		slog.String("stage", name), slog.Duration("duration", d))
}

// acquire waits for a free replica until ctx's deadline — the request's
// queue stage — and reports false if the deadline passed first. With the test
// gate set, the acquired replica is held until the gate opens or the
// deadline passes.
func (s *Server) acquire(ctx context.Context, st stages) (int, bool) {
	defer st.stage("queue", time.Now())
	s.waiting.Add(1)
	replica := -1
	select {
	case replica = <-s.replicas:
	case <-ctx.Done():
	}
	s.waiting.Add(-1)
	if replica < 0 {
		return 0, false
	}
	if s.gate != nil {
		select {
		case <-s.gate:
		case <-ctx.Done():
			s.replicas <- replica
			return 0, false
		}
	}
	return replica, true
}

// decide decides one request on replica and records the pool series; it
// returns the verdict and the tier that decided it. The exact tier scores
// every query on the exact pool under the tier label "" (keeping those
// response bodies byte-identical to pre-tier versions). The auto tier
// screens every query on the twin pool and escalates the twin-uncertain ones
// to the exact pool, counting agreement between the tiers on escalations.
// The noise stream is keyed by idx, so the result does not depend on which
// replica decided it.
func (s *Server) decide(st stages, replica int, idx uint64, x *tensor.Tensor) (v detect.Verdict, tier string) {
	if s.twin == nil {
		v = s.exact.score(st, replica, idx, x)
	} else {
		v, tier = s.twin.score(st, replica, idx, x), TierTwin
		s.stats.tierScreened.Inc()
		if s.twin.det.Uncertain(v, s.cfg.EscalationMargin) {
			s.stats.tierEscalations.Inc()
			ev := s.exact.score(st, replica, idx, x)
			if v.Fused == ev.Fused {
				s.stats.tierAgreement.Inc()
			}
			v, tier = ev, TierExact
			s.stats.tierExact.Inc()
		} else {
			s.stats.tierTwin.Inc()
		}
	}
	s.stats.batchSizes.Observe(1)
	return v, tier
}

// ServeDecoded answers one POST /detect on the calling goroutine: admit,
// decode, validate, wait for a replica, decide. req, when non-nil, is r's
// body already decoded by DecodeRequest against Shape — a router that decoded
// the body to route it hands it over, and the body is neither read nor
// decoded again. A nil req reads and decodes the body here, which is what the
// server's own /detect route does.
func (s *Server) ServeDecoded(w http.ResponseWriter, r *http.Request, req *Request) {
	start := time.Now()
	// A well-formed caller-supplied X-Request-ID is adopted (so one id follows
	// a request through a router hop into the replica that served it);
	// anything else gets a server-generated id. Either way the id is echoed on
	// the response and stamped on every log record and trace the request
	// produces.
	id := r.Header.Get("X-Request-ID")
	if !obs.ValidRequestID(id) {
		id = "r" + strconv.FormatUint(s.rids.Add(1), 10)
	}
	w.Header().Set("X-Request-ID", id)
	rctx := obs.WithRequestID(r.Context(), id)
	tr := s.traces.Start(id) // nil-safe: no ring, no record
	st := stages{s: s, ctx: rctx, tr: tr}
	status := func(code int) {
		d := time.Since(start)
		tr.SetStatus(code)
		s.traces.Finish(tr)
		s.stats.observeRequest(code, d)
		s.logger.DebugContext(rctx, "request",
			slog.String("path", "/detect"),
			slog.Int("status", code),
			slog.Duration("duration", d))
	}
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		s.writeError(w, http.StatusMethodNotAllowed, "use POST")
		status(http.StatusMethodNotAllowed)
		return
	}
	// Admit before the body is read, so a rejected request costs
	// neither the read nor the decode.
	switch code := s.admit(); code {
	case http.StatusServiceUnavailable:
		s.writeError(w, code, "draining")
		status(code)
		return
	case http.StatusTooManyRequests:
		w.Header().Set("Retry-After", RetryAfter)
		s.writeError(w, code, "queue full")
		status(code)
		return
	}
	defer s.done()
	if req == nil {
		body, err := ReadBody(w, r)
		if err != nil {
			s.writeError(w, http.StatusBadRequest, "request body too large or unreadable")
			status(http.StatusBadRequest)
			return
		}
		decodeStart := time.Now()
		req, err = DecodeRequest(body.Bytes(), s.shape)
		st.stage("decode", decodeStart)
		body.Release()
		if err != nil {
			s.writeError(w, http.StatusBadRequest, err.Error())
			status(http.StatusBadRequest)
			return
		}
	}

	idx := s.next.Add(1) - 1
	if req.Index != nil {
		idx = *req.Index
	}
	tr.SetIndex(idx)
	ctx, cancel := context.WithTimeout(rctx, s.cfg.Timeout)
	defer cancel()
	replica, ok := s.acquire(ctx, st)
	if !ok {
		s.writeError(w, http.StatusGatewayTimeout, "detection timed out")
		status(http.StatusGatewayTimeout)
		return
	}
	v, tier := s.decide(st, replica, idx, req.Tensor())
	s.replicas <- replica

	verdictStart := time.Now()
	resp := s.response(idx, v, tier)
	s.stats.observeDecision(v.Flags, resp.Adversarial)
	st.stage("verdict", verdictStart)
	tr.SetTier(tier)
	tr.SetBackend(resp.Backend)
	if resp.Adversarial {
		tr.SetVerdict("adversarial")
	} else {
		tr.SetVerdict("benign")
	}
	if resp.Adversarial {
		s.logger.DebugContext(rctx, "adversarial query flagged",
			slog.Uint64("index", idx),
			slog.String("backend", resp.Backend),
			slog.Int("predicted_class", resp.PredictedClass))
	}
	s.writeJSON(w, http.StatusOK, resp)
	status(http.StatusOK)
}

// response renders one detection verdict.
func (s *Server) response(idx uint64, v detect.Verdict, tier string) Response {
	resp := Response{
		Index:          idx,
		PredictedClass: v.PredictedClass,
		Backend:        s.det.Kind(),
		Modelled:       v.Modelled,
		Adversarial:    v.Fused,
		Tier:           tier,
		Scores:         make(map[string]float64, len(s.channels)),
		Flags:          make(map[string]bool, len(s.channels)),
	}
	if s.cfg.ClassName != nil {
		resp.ClassName = s.cfg.ClassName(v.PredictedClass)
	}
	for i, ch := range s.channels {
		resp.Scores[ch] = v.Scores[i]
		resp.Flags[ch] = v.Flags[i]
	}
	return resp
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.WriteHeader(http.StatusOK)
	io.WriteString(w, "ok\n")
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, "draining\n")
		return
	}
	w.WriteHeader(http.StatusOK)
	io.WriteString(w, "ready\n")
}

func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

func (s *Server) writeError(w http.ResponseWriter, code int, msg string) {
	s.writeJSON(w, code, errorResponse{Error: msg})
}
