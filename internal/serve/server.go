// Package serve is the online deployment of AdvHunter: a long-lived HTTP
// JSON service that scores every inference query from its simulated HPC
// reading, the MLaaS-guard shape the paper motivates (Section 1).
//
// Architecture: a server is an assembly of three composable stages.
// An Admission gate (bounded queue + optional in-flight token cap) turns
// overload into backpressure — a full queue answers 429 with Retry-After —
// and owns the drain protocol. One consumer per engine replica takes one
// admitted request at a time and decides it on its replica through a Tiering
// policy, which decides every query on one or two MeasurePools (backend
// replica pool + truth cache + detector). Determinism survives the
// concurrency: each query's measurement-noise stream is keyed by an explicit
// request index through Measurer.MeasureAt, so its reading — and therefore
// its detection decision — is a pure function of (model, input, seed, index),
// independent of scheduling and worker assignment. The same
// stages compose into other topologies: internal/cluster runs N of these
// assemblies behind a router.
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
	"advhunter/internal/twin"
	"advhunter/internal/uarch/hpc"
)

// Config tunes the service. The zero value serves with sensible defaults.
type Config struct {
	// QueueSize bounds the admission queue (default 64). A full queue is
	// the backpressure signal: new requests get 429 + Retry-After.
	QueueSize int
	// Workers is the engine-replica pool size (default GOMAXPROCS, min 1);
	// each replica runs its own consumer of the admission queue, which takes
	// one request at a time and never waits for more.
	Workers int
	// Timeout is the per-request budget including queueing (default 10s);
	// an expired request answers 504 and is dropped before it is decided.
	Timeout time.Duration
	// DecisionEvent drives the top-level "adversarial" verdict (default
	// cache-misses, the paper's strongest event). If the detector does not
	// model it, any-event OR fusion is used instead.
	DecisionEvent hpc.Event
	// ClassName optionally renders class names in responses.
	ClassName func(int) string
	// RetryAfter is the Retry-After hint on 429s, in seconds (default 1).
	RetryAfter int
	// MaxInflight caps requests concurrently admitted into the handler —
	// the connection-level backpressure knob, independent of QueueSize.
	// QueueSize bounds jobs *waiting* for a consumer, but a closed-loop
	// client holds its connection through decode, measurement, and the
	// response write as well: total in-flight work is queued + deciding +
	// awaiting-write, and with enough concurrent clients that sum grows
	// beyond the queue bound without a single 429. A positive MaxInflight
	// caps it (excess requests answer 429 + Retry-After before their body
	// is read); 0 leaves it unlimited, the historical behaviour.
	MaxInflight int
	// TruthCacheSize caps the fingerprint-keyed truth-count memoisation
	// cache shared by the replica pool: a repeated query pays the simulated
	// inference once, and the cached noise-free counts are re-noised per
	// request index, so responses stay byte-identical to uncached serving.
	// 0 selects the default (512); negative disables memoisation. Under
	// tiered serving the same size caps the twin tier's separate truth cache
	// (twin and exact truths differ, so the caches are never shared).
	TruthCacheSize int
	// Tier selects the measurement tier (default TierExact). TierTwin
	// predicts every query's counts from the analytical twin's tables;
	// TierAuto screens every query with the twin and escalates the
	// twin-uncertain ones to the exact simulator. Both require Twin; New
	// panics otherwise (a configuration error, like an unknown tier name).
	Tier string
	// Twin is the twin measurement backend (internal/twin) for the twin and
	// auto tiers. The server takes ownership and clones it across the worker
	// pool, exactly like the exact measurer.
	Twin *twin.Measurer
	// TwinDetector optionally scores twin-tier measurements. The twin's
	// count predictions carry a small systematic bias relative to the exact
	// simulator, so screening works best with a detector calibrated on
	// twin-measured templates (same backend, same template protocol). Its
	// channel list must equal the main detector's. nil reuses the main
	// detector.
	TwinDetector detect.Detector
	// EscalationMargin is the auto tier's uncertainty band: a twin verdict
	// escalates to the exact tier when its deciding score lies within
	// margin·(1+|threshold|) of the decision threshold (detect.Uncertainty).
	// 0 selects the default 0.15; negative means never uncertain (the twin
	// decides everything). Detectors that do not implement
	// detect.Uncertainty escalate every query instead.
	EscalationMargin float64
	// Logger receives the server's structured records (per-request debug
	// lines, span timings). nil selects slog.Default(). Logging and tracing
	// are observe-only: enabling them never changes a verdict or a response
	// byte (TestObsIsObserveOnly holds that line).
	Logger *slog.Logger

	// FlightInterval enables the flight recorder: a background sampler
	// snapshotting every registry series into short-term ring-buffer history,
	// exposed as /debug/flight. > 0 samples at that cadence; < 0 builds the
	// recorder in manual mode (no goroutine — each /debug/flight or /alerts
	// request samples on demand, the deterministic mode tests use); 0 leaves
	// the recorder off unless AlertRules demand one. Like every obs surface
	// it is observe-only: sampling walks the registries exactly like a
	// /metrics scrape.
	FlightInterval time.Duration
	// FlightSamples caps each recorded series' ring (default 256).
	FlightSamples int
	// TraceRing enables request-scoped wide events: every /detect request
	// aggregates its spans, routing and verdict into one pooled trace record,
	// and the last TraceRing of them are queryable at /debug/trace. 0
	// disables (unless TraceLog is set, which implies a default-sized ring).
	TraceRing int
	// TraceLog, when non-nil, additionally receives every finished trace as
	// one JSON line — the durable export path.
	TraceLog io.Writer
	// AlertRules enables the alert engine: declarative rules (latency
	// burn-rate, error rate, detection drift — see DefaultAlertRules)
	// evaluated against the flight recorder, surfaced as the
	// advhunter_alert_active gauge, transition logs, and /alerts. Setting
	// rules without FlightInterval builds a manual-mode recorder.
	AlertRules []obs.Rule
	// AlertInterval is the background evaluation cadence; <= 0 evaluates on
	// each /alerts request instead (sampling the recorder first when it is
	// manual too).
	AlertInterval time.Duration
	// AlertFor is the firing hysteresis: a rule must breach continuously
	// this long before its alert fires (0 fires immediately).
	AlertFor time.Duration

	// gate, when non-nil, blocks job processing until it is closed — a
	// test-only hook for filling the queue deterministically. It must be
	// set before New; every consumer reads it before each job.
	gate chan struct{}
}

// The measurement tiers of Config.Tier.
const (
	// TierExact simulates every query on the exact engine (the default).
	TierExact = "exact"
	// TierTwin predicts every query's counts from the twin tables.
	TierTwin = "twin"
	// TierAuto screens with the twin and escalates uncertain queries.
	TierAuto = "auto"
)

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
	if c.DecisionEvent == 0 {
		c.DecisionEvent = hpc.CacheMisses
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = 1
	}
	if c.TruthCacheSize == 0 {
		c.TruthCacheSize = 512
	}
	if c.Tier == "" {
		c.Tier = TierExact
	}
	if c.EscalationMargin == 0 {
		c.EscalationMargin = 0.15
	}
	if c.TraceLog != nil && c.TraceRing <= 0 {
		c.TraceRing = 256
	}
	return c
}

// job is one admitted request travelling queue → consumer.
type job struct {
	idx   uint64
	x     *tensor.Tensor
	ctx   context.Context
	out   chan result // buffered(1); worker send never blocks
	qspan *obs.Span   // admission-to-pickup queue span; nil-safe
}

// result is one job's outcome: the verdict plus the measurement tier that
// decided it ("" under plain exact serving, keeping those response bodies
// byte-identical to pre-tier versions).
type result struct {
	v    detect.Verdict
	tier string
}

// Server is the online detection service: an Admission gate feeding one
// consumer per engine replica, each deciding its jobs through a Tiering
// policy. Build with New, expose with Handler, stop with Shutdown.
type Server struct {
	cfg      Config
	det      detect.Detector
	channels []string
	shape    [3]int
	decIdx   int // index of DecisionEvent in det.Channels(), -1 if absent

	adm     *Admission[*job] // gate stage: queue + inflight cap + drain protocol
	tiering Tiering          // decision stage: exact / twin / auto over MeasurePools
	next    atomic.Uint64    // server-assigned indices for index-less requests
	rids    atomic.Uint64    // request ids for log correlation (distinct from idx)
	done    chan struct{}    // closed when every consumer has exited

	stats  *metrics
	logger *slog.Logger
	tracer *obs.Tracer
	flight *obs.Recorder    // nil unless FlightInterval or AlertRules enable it
	traces *obs.TraceRing   // nil unless TraceRing enables it
	alerts *obs.AlertEngine // nil unless AlertRules enable it
	mux    *http.ServeMux
	gate   chan struct{} // from Config.gate; see there
}

// New builds and starts the service around a measurer (whose engine defines
// the served model; New takes ownership and clones it Workers-1 times) and
// a fitted detector of any registered backend — typically loaded with
// detect.TryLoad, the "fit once, serve many" path.
func New(m *core.Measurer, det detect.Detector, cfg Config) *Server {
	cfg = cfg.withDefaults()
	switch cfg.Tier {
	case TierExact, TierTwin, TierAuto:
	default:
		panic(fmt.Sprintf("serve: unknown tier %q", cfg.Tier))
	}
	if cfg.Tier != TierExact && cfg.Twin == nil {
		panic(fmt.Sprintf("serve: tier %q requires Config.Twin", cfg.Tier))
	}
	meta := m.Engine.Model.Meta
	channels := det.Channels()
	decIdx := -1
	for i, ch := range channels {
		if ch == cfg.DecisionEvent.String() {
			decIdx = i
		}
	}
	s := &Server{
		cfg:      cfg,
		det:      det,
		channels: channels,
		shape:    [3]int{meta.InC, meta.InH, meta.InW},
		decIdx:   decIdx,
		adm:      NewAdmission[*job](cfg.QueueSize, cfg.MaxInflight),
		done:     make(chan struct{}),
		stats:    newMetrics(det.Kind(), channels),
		logger:   cfg.Logger,
		gate:     cfg.gate,
	}
	if s.logger == nil {
		s.logger = slog.Default()
	}
	s.tracer = obs.NewTracer(s.stats.reg, s.logger)
	s.stats.registerAdmission(s.adm)

	// Truth caches, one per tier that can serve: twin and exact truths for
	// the same input differ, so they are never shared, and the twin-only tier
	// never simulates and therefore carries no exact cache at all.
	var truth, twinTruth *core.TruthCache
	if cfg.TruthCacheSize > 0 {
		if cfg.Tier != TierTwin {
			truth = core.NewTruthCache(cfg.TruthCacheSize)
			s.stats.registerTruthCache(truth)
		}
		if cfg.Tier != TierExact {
			twinTruth = core.NewTruthCache(cfg.TruthCacheSize)
		}
	}

	s.stats.reg.Gauge("advhunter_pool_workers", "Engine replica pool size.").With().Set(float64(cfg.Workers))

	// Exact measurement stage. The engine-layer hook is observe-only and
	// shared by every replica, so install it before cloning (Clone copies it).
	m.Observe = s.stats.observeMeasurement
	exactWorkers := make([]Measurer, cfg.Workers)
	exactWorkers[0] = m
	for w := 1; w < cfg.Workers; w++ {
		exactWorkers[w] = m.Clone()
	}
	exactPool := &MeasurePool{
		Workers: exactWorkers, Truth: truth, Det: det,
		SpanMeasure: "measure", SpanScore: "score",
		Hits: s.stats.truthHits, Misses: s.stats.truthMisses,
	}

	// Tiering stage: the twin and auto tiers add a twin measurement stage in
	// front (or instead) of the exact one.
	switch cfg.Tier {
	case TierExact:
		s.tiering = exactTiering{pool: exactPool}
	default:
		twinDet := det
		if cfg.TwinDetector != nil {
			// The service decision rule (decIdx) and the response channel maps
			// are shared across tiers, so the twin detector must score the
			// same channels in the same order.
			got := cfg.TwinDetector.Channels()
			if len(got) != len(channels) {
				panic(fmt.Sprintf("serve: twin detector has %d channels, main detector %d", len(got), len(channels)))
			}
			for i, ch := range got {
				if ch != channels[i] {
					panic(fmt.Sprintf("serve: twin detector channel %d is %q, main detector has %q", i, ch, channels[i]))
				}
			}
			twinDet = cfg.TwinDetector
		}
		s.stats.registerTier(cfg.Twin.Table, twinTruth)
		twinWorkers := make([]Measurer, cfg.Workers)
		twinWorkers[0] = cfg.Twin
		for w := 1; w < cfg.Workers; w++ {
			twinWorkers[w] = cfg.Twin.Clone()
		}
		twinPool := &MeasurePool{
			Workers: twinWorkers, Truth: twinTruth, Det: twinDet,
			SpanMeasure: "twin-measure", SpanScore: "twin-score",
			Hits: s.stats.twinTruthHits, Misses: s.stats.twinTruthMisses,
			Seconds: s.stats.tierSecondsTwin,
		}
		if cfg.Tier == TierTwin {
			s.tiering = twinTiering{pool: twinPool, decided: s.stats.tierTwin}
		} else {
			exactPool.Seconds = s.stats.tierSecondsExact
			s.tiering = autoTiering{
				twin: twinPool, exact: exactPool,
				twinDet: twinDet, decIdx: decIdx, margin: cfg.EscalationMargin,
				screened: s.stats.tierScreened, escalations: s.stats.tierEscalations,
				twinDecided: s.stats.tierTwin, exactDecided: s.stats.tierExact,
				agreement: s.stats.tierAgreement,
			}
		}
	}

	// Observability extensions, all strictly observe-only. The flight
	// recorder also powers the alert engine, so rules without an explicit
	// interval still get a (manual-mode) recorder behind them.
	if cfg.TraceRing > 0 {
		s.traces = obs.NewTraceRing(cfg.TraceRing, cfg.TraceLog)
	}
	if cfg.FlightInterval != 0 || len(cfg.AlertRules) > 0 {
		iv := cfg.FlightInterval
		if iv < 0 {
			iv = 0 // manual mode: sample on demand
		}
		s.flight = obs.NewRecorder(obs.RecorderConfig{
			Interval: iv, Samples: cfg.FlightSamples,
		}, s.stats.reg)
	}
	if len(cfg.AlertRules) > 0 {
		s.alerts = obs.NewAlertEngine(s.stats.reg, s.flight, cfg.AlertRules, obs.AlertConfig{
			Interval: cfg.AlertInterval, For: cfg.AlertFor, Logger: s.logger,
		})
	}

	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/detect", s.handleDetect)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	// /metrics chains the server's private registry with the process-wide one
	// (cache-op counters, build info), so one scrape sees every layer.
	s.mux.Handle("/metrics", obs.Handler(s.stats.reg, obs.Default))
	s.mux.Handle("/debug/build", obs.BuildInfoHandler())
	if s.flight != nil {
		s.mux.Handle("/debug/flight", s.flight.Handler())
	}
	if s.traces != nil {
		s.mux.Handle("/debug/trace", obs.TraceHandler(s.traces))
	}
	if s.alerts != nil {
		s.mux.Handle("/alerts", s.alerts.Handler())
	}
	var consumers sync.WaitGroup
	consumers.Add(cfg.Workers)
	for w := 0; w < cfg.Workers; w++ {
		go func() {
			defer consumers.Done()
			s.consume(w)
		}()
	}
	go func() {
		consumers.Wait()
		close(s.done)
	}()
	return s
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Registry returns the server's private metrics registry — the hook a
// multi-replica assembly uses to stamp each replica's series with its
// identity (obs.SetConstLabels) and merge them onto one exposition page.
func (s *Server) Registry() *obs.Registry { return s.stats.reg }

// Flight returns the server's flight recorder, or nil when disabled — the
// hook a cluster uses to fold a replica's history into a fleet view, and
// tests use to drive manual-mode sampling.
func (s *Server) Flight() *obs.Recorder { return s.flight }

// Traces returns the server's trace ring, or nil when disabled — the hook a
// cluster's merged /debug/trace page reads.
func (s *Server) Traces() *obs.TraceRing { return s.traces }

// Alerts returns the server's alert engine, or nil when disabled.
func (s *Server) Alerts() *obs.AlertEngine { return s.alerts }

// Shape returns the served model's input shape (C, H, W) — what a router in
// front of the server needs to decode and fingerprint request bodies.
func (s *Server) Shape() [3]int { return s.shape }

// Load reports the server's instantaneous occupancy: requests waiting in the
// admission queue plus requests holding an in-flight token. Routers use it
// for least-loaded replica selection.
func (s *Server) Load() int {
	return s.adm.QueueDepth() + s.adm.InflightDepth()
}

// Shutdown drains the service: new detection requests are rejected with
// 503, queued requests are processed to completion, and every consumer
// exits. It returns early with the context's error if draining outlives it.
func (s *Server) Shutdown(ctx context.Context) error {
	// Close is idempotent: the first caller runs the drain protocol, later
	// callers (and re-entrant Shutdowns) just wait for the consumers.
	s.adm.Close()
	select {
	case <-s.done:
		// Quiesce the observability background loops after the pipeline has
		// drained; both Stops are idempotent, so re-entrant Shutdowns are fine.
		if s.alerts != nil {
			s.alerts.Stop()
		}
		if s.flight != nil {
			s.flight.Stop()
		}
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// consume is one replica's consumer loop: it takes one job at a time and
// decides it on its own replica index, until the admission gate's queue is
// closed and drained. Workers of these loops share one queue, so an idle
// replica picks up a request as soon as it is admitted.
func (s *Server) consume(worker int) {
	for j := range s.adm.Queue() {
		s.process(worker, j)
	}
}

// process decides and answers one job on replica worker through
// Tiering.Decide. A job whose deadline expired while queued is dropped (its
// handler has already answered 504). The pool series are updated before the
// job is answered, so a client that has its verdict sees them settled. The
// job's noise stream is keyed by its index, so its result does not depend on
// which replica decided it.
func (s *Server) process(worker int, j *job) {
	s.stats.poolBusy.Inc()
	if s.gate != nil {
		<-s.gate
	}
	j.qspan.End() // queue wait is over, whether the job survived it or not
	if j.ctx.Err() != nil {
		s.stats.poolBusy.Dec()
		return
	}
	start := time.Now()
	var r result
	r.v, r.tier = s.tiering.Decide(j.ctx, worker, j.idx, j.x)
	s.stats.batchSizes.Observe(1)
	s.stats.poolTasks.Inc()
	s.stats.poolSeconds.Observe(time.Since(start).Seconds())
	s.stats.poolBusy.Dec()
	j.out <- r
}

// handleDetect is POST /detect: decode, validate, admit, await the verdict.
func (s *Server) handleDetect(w http.ResponseWriter, r *http.Request) {
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
	rctx := obs.WithRequestID(obs.WithTracer(r.Context(), s.tracer), id)
	tr := s.traces.Start(id) // nil-safe: no ring, no record
	rctx = obs.WithTrace(rctx, tr)
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
	// Connection-level backpressure: acquire an in-flight token before even
	// reading the body, so an over-concurrent closed-loop client is turned
	// away at the cheapest possible point.
	release, ok := s.adm.TryAcquire()
	if !ok {
		w.Header().Set("Retry-After", fmt.Sprintf("%d", s.cfg.RetryAfter))
		s.writeError(w, http.StatusTooManyRequests, "too many in-flight requests")
		status(http.StatusTooManyRequests)
		return
	}
	defer release()
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxRequestBytes))
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "request body too large or unreadable")
		status(http.StatusBadRequest)
		return
	}
	_, sp := obs.StartSpan(rctx, "decode")
	req, err := DecodeRequest(body, s.shape)
	sp.End()
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error())
		status(http.StatusBadRequest)
		return
	}

	idx := s.next.Add(1) - 1
	if req.Index != nil {
		idx = *req.Index
	}
	tr.SetIndex(idx)
	ctx, cancel := context.WithTimeout(rctx, s.cfg.Timeout)
	defer cancel()
	_, qspan := obs.StartSpan(rctx, "queue")
	j := &job{idx: idx, x: req.Tensor(), ctx: ctx, out: make(chan result, 1), qspan: qspan}

	switch s.adm.Offer(j) {
	case AdmitDraining:
		s.writeError(w, http.StatusServiceUnavailable, "draining")
		status(http.StatusServiceUnavailable)
		return
	case AdmitFull:
		w.Header().Set("Retry-After", fmt.Sprintf("%d", s.cfg.RetryAfter))
		s.writeError(w, http.StatusTooManyRequests, "queue full")
		status(http.StatusTooManyRequests)
		return
	}

	select {
	case r := <-j.out:
		v := r.v
		_, sp := obs.StartSpan(rctx, "verdict")
		resp := s.response(idx, r)
		s.stats.observeDecision(v.Flags, resp.Adversarial)
		sp.End()
		tr.SetTier(r.tier)
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
	case <-ctx.Done():
		s.writeError(w, http.StatusGatewayTimeout, "detection timed out")
		status(http.StatusGatewayTimeout)
	}
}

// response renders one detection verdict.
func (s *Server) response(idx uint64, r result) Response {
	v := r.v
	resp := Response{
		Index:          idx,
		PredictedClass: v.PredictedClass,
		Backend:        s.det.Kind(),
		Modelled:       v.Modelled,
		Adversarial:    adversarialAt(v, s.decIdx),
		Tier:           r.tier,
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
	if s.adm.Draining() {
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
