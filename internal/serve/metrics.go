package serve

import (
	"strconv"
	"time"

	"advhunter/internal/core"
	"advhunter/internal/obs"
	"advhunter/internal/uarch/hpc"
)

// latencyBuckets are the request-latency histogram bounds in seconds,
// roughly logarithmic from 1 ms to 10 s (a simulated inference takes
// milliseconds; queueing under load dominates the tail).
var latencyBuckets = []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// batchBuckets are the batch-size histogram bounds. A replica decides one
// request at a time, so every observation is 1; the series stays because
// dashboards and the serving benchmark read its mean batch width.
var batchBuckets = []float64{1}

// metrics is the server's instrumentation, one obs.Registry per server so
// tests and co-resident instances never share series. Handles are resolved
// here, except a stage's or a non-200 code's child, which costs one
// read-locked map lookup; recording is atomic adds only.
type metrics struct {
	reg *obs.Registry

	// HTTP layer.
	requests   *obs.CounterVec // by status code; ok pre-resolves the 200 path
	ok         *obs.Counter
	reqSeconds *obs.Histogram
	batchSizes *obs.Histogram

	// Detection layer, labelled by the served backend kind.
	scans   *obs.Counter
	flagged *obs.Counter
	flags   []*obs.Counter // aligned with Server.channels

	// Pipeline stages: one child per stage name, created on its first
	// observation, so a stage that never ran exports no series.
	stages *obs.HistogramVec

	// Engine layer: the last exact reading.
	hpcEvents []*obs.Gauge // last mean reading per event, indexed by hpc.Event

	// Truth-count memoisation (registered only when the cache is enabled).
	truthHits   *obs.Counter
	truthMisses *obs.Counter

	// Tiered serving (registered only under the twin and auto tiers).
	tierTwin        *obs.Counter // requests decided by the twin tier
	tierExact       *obs.Counter // requests decided by the exact tier (escalations)
	tierScreened    *obs.Counter // auto tier: requests screened by the twin
	tierEscalations *obs.Counter // auto tier: screened requests escalated to exact
	tierAgreement   *obs.Counter // auto tier: escalations where both tiers agreed
	twinTruthHits   *obs.Counter
	twinTruthMisses *obs.Counter
}

func newMetrics(backend string, channels []string) *metrics {
	reg := obs.NewRegistry()
	m := &metrics{reg: reg}

	m.requests = reg.Counter("advhunter_requests_total", "HTTP requests by status code.", "code")
	m.ok = m.requests.With("200")
	m.reqSeconds = reg.Histogram("advhunter_request_duration_seconds",
		"End-to-end request latency.", latencyBuckets).With()
	m.batchSizes = reg.Histogram("advhunter_batch_size",
		"Requests per replica decision (always 1: a replica decides one request at a time).", batchBuckets).With()

	m.scans = reg.Counter("advhunter_scans_total", "Detection decisions made.", "backend").With(backend)
	m.flagged = reg.Counter("advhunter_flagged_total", "Decisions answered adversarial.", "backend").With(backend)
	flagVec := reg.Counter("advhunter_flags_total", "Per-channel threshold exceedances.", "backend", "channel")
	m.flags = make([]*obs.Counter, len(channels))
	for i, ch := range channels {
		m.flags[i] = flagVec.With(backend, ch)
	}

	m.stages = reg.Histogram("advhunter_stage_duration_seconds",
		"Detection-pipeline stage durations.", obs.DurationBuckets, "stage")

	eventVec := reg.Gauge("advhunter_hpc_event_count",
		"Most recent per-event mean HPC reading across the replica pool.", "event")
	m.hpcEvents = make([]*obs.Gauge, hpc.NumEvents)
	for e := hpc.Event(0); e < hpc.NumEvents; e++ {
		m.hpcEvents[e] = eventVec.With(e.String())
	}
	return m
}

// observeRequest records one finished HTTP request. The 200 path is a
// pre-resolved handle; other codes pay one read-locked map lookup.
func (m *metrics) observeRequest(status int, d time.Duration) {
	if status == 200 {
		m.ok.Inc()
	} else {
		m.requests.With(strconv.Itoa(status)).Inc()
	}
	m.reqSeconds.Observe(d.Seconds())
}

// observeDecision records one detection decision and its per-channel flags.
func (m *metrics) observeDecision(flags []bool, adversarial bool) {
	m.scans.Inc()
	if adversarial {
		m.flagged.Inc()
	}
	for i, f := range flags {
		if f {
			m.flags[i].Inc()
		}
	}
}

// registerTruthCache publishes the truth-count memoisation series. Only
// called when the cache is enabled, so a disabled server exports no
// truth-cache series at all.
func (m *metrics) registerTruthCache(c *core.TruthCache) {
	m.truthHits = m.reg.Counter("advhunter_truth_cache_hits_total",
		"Queries whose noise-free counts were served from the truth cache.").With()
	m.truthMisses = m.reg.Counter("advhunter_truth_cache_misses_total",
		"Queries that paid a simulated inference to fill the truth cache.").With()
	m.reg.GaugeFunc("advhunter_truth_cache_entries",
		"Resident truth-cache entries.", func() float64 { return float64(c.Len()) })
	m.reg.GaugeFunc("advhunter_truth_cache_bytes",
		"Approximate resident size of the truth cache.", func() float64 { return float64(c.Bytes()) })
}

// registerTier publishes the tiered-serving series: per-tier decision
// counters, escalation accounting, the twin count model's resident size (when
// it reports one, as *twin.Table does), and (when the twin truth cache is
// enabled) its memoisation series. Only called under the twin and auto tiers,
// so plain exact serving exports no tier series at all.
func (m *metrics) registerTier(counts core.CountModel, twinTruth *core.TruthCache) {
	tierVec := m.reg.Counter("advhunter_tier_requests_total",
		"Detection decisions by the measurement tier that made them.", "tier")
	m.tierTwin = tierVec.With("twin")
	m.tierExact = tierVec.With("exact")
	m.tierScreened = m.reg.Counter("advhunter_tier_screened_total",
		"Auto-tier requests screened by the twin before the tier decision.").With()
	m.tierEscalations = m.reg.Counter("advhunter_tier_escalations_total",
		"Auto-tier requests escalated from the twin to the exact simulator.").With()
	m.tierAgreement = m.reg.Counter("advhunter_tier_agreement_total",
		"Escalated requests where the twin and exact tiers agreed on the decision.").With()
	if table, ok := counts.(interface{ Bytes() int }); ok {
		m.reg.GaugeFunc("advhunter_twin_table_bytes",
			"Resident size of the loaded twin count tables.", func() float64 { return float64(table.Bytes()) })
	}
	if twinTruth != nil {
		m.twinTruthHits = m.reg.Counter("advhunter_twin_truth_cache_hits_total",
			"Twin-tier queries whose predicted counts were served from the twin truth cache.").With()
		m.twinTruthMisses = m.reg.Counter("advhunter_twin_truth_cache_misses_total",
			"Twin-tier queries that paid a forward pass to fill the twin truth cache.").With()
		m.reg.GaugeFunc("advhunter_twin_truth_cache_entries",
			"Resident twin truth-cache entries.", func() float64 { return float64(twinTruth.Len()) })
		m.reg.GaugeFunc("advhunter_twin_truth_cache_bytes",
			"Approximate resident size of the twin truth cache.", func() float64 { return float64(twinTruth.Bytes()) })
	}
}
