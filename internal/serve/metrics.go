package serve

import (
	"strconv"
	"time"

	"advhunter/internal/core"
	"advhunter/internal/obs"
	"advhunter/internal/twin"
	"advhunter/internal/uarch/hpc"
)

// latencyBuckets are the request-latency histogram bounds in seconds,
// roughly logarithmic from 1 ms to 10 s (a simulated inference takes
// milliseconds; queueing under load dominates the tail).
var latencyBuckets = []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// batchBuckets are the batch-size histogram bounds. A consumer decides one
// job at a time, so every observation is 1; the series stays because
// dashboards and the serving benchmark read its mean batch width.
var batchBuckets = []float64{1}

// metrics is the server's instrumentation, one obs.Registry per server so
// tests and co-resident instances never share series. Every handle the
// request path touches is resolved once here; recording is atomic adds only
// — the hot path takes no mutex at all (the previous bespoke struct locked
// one mutex twice per request). Series names and labels are unchanged from
// the pre-registry implementation, so dashboards and scrapers keep working.
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

	// Worker-pool layer: one task per job a replica's consumer decides.
	poolBusy    *obs.Gauge
	poolTasks   *obs.Counter
	poolSeconds *obs.Histogram

	// Engine layer: the simulated measurement itself.
	inferSeconds *obs.Histogram
	hpcEvents    []*obs.Gauge // last mean reading per event, indexed by hpc.Event

	// Truth-count memoisation (registered only when the cache is enabled).
	truthHits   *obs.Counter
	truthMisses *obs.Counter

	// Tiered serving (registered only under the twin and auto tiers).
	tierTwin         *obs.Counter // requests decided by the twin tier
	tierExact        *obs.Counter // requests decided by the exact tier (escalations)
	tierScreened     *obs.Counter // auto tier: requests screened by the twin
	tierEscalations  *obs.Counter // auto tier: screened requests escalated to exact
	tierAgreement    *obs.Counter // auto tier: escalations where both tiers agreed
	tierSecondsTwin  *obs.Histogram
	tierSecondsExact *obs.Histogram
	twinTruthHits    *obs.Counter
	twinTruthMisses  *obs.Counter
}

func newMetrics(backend string, channels []string) *metrics {
	reg := obs.NewRegistry()
	m := &metrics{reg: reg}

	m.requests = reg.Counter("advhunter_requests_total", "HTTP requests by status code.", "code")
	m.ok = m.requests.With("200")
	m.reqSeconds = reg.Histogram("advhunter_request_duration_seconds",
		"End-to-end request latency.", latencyBuckets).With()
	m.batchSizes = reg.Histogram("advhunter_batch_size",
		"Jobs per consumer decision (always 1: a consumer decides one job at a time).", batchBuckets).With()

	m.scans = reg.Counter("advhunter_scans_total", "Detection decisions made.", "backend").With(backend)
	m.flagged = reg.Counter("advhunter_flagged_total", "Decisions answered adversarial.", "backend").With(backend)
	flagVec := reg.Counter("advhunter_flags_total", "Per-channel threshold exceedances.", "backend", "channel")
	m.flags = make([]*obs.Counter, len(channels))
	for i, ch := range channels {
		m.flags[i] = flagVec.With(backend, ch)
	}

	m.poolBusy = reg.Gauge("advhunter_pool_busy_workers",
		"Engine replicas currently running a measurement.").With()
	m.poolTasks = reg.Counter("advhunter_pool_tasks_total",
		"Jobs decided by the replica pool, one task per job.").With()
	m.poolSeconds = reg.Histogram("advhunter_pool_task_duration_seconds",
		"Per-task time on a pool worker (measure + score).", obs.DurationBuckets).With()

	m.inferSeconds = reg.Histogram("advhunter_inference_duration_seconds",
		"Simulated-inference measurement duration (engine trace + R noisy readings).",
		obs.DurationBuckets).With()
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

// observeDecision records one detection decision and its per-channel flags —
// together with the caller's observeRequest, a handful of atomic adds where
// the bespoke struct serialised every request on a mutex twice.
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

// observeMeasurement is the core.Measurer.Observe hook shared by every pool
// replica: the engine-layer series on the serve registry.
func (m *metrics) observeMeasurement(d time.Duration, meas core.Measurement) {
	m.inferSeconds.Observe(d.Seconds())
	for e := hpc.Event(0); e < hpc.NumEvents; e++ {
		m.hpcEvents[e].Set(meas.Counts.Get(e))
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
// counters and latency histograms, escalation accounting, the twin table's
// resident size, and (when the twin truth cache is enabled) its memoisation
// series. Only called under the twin and auto tiers, so plain exact serving
// exports no tier series at all.
func (m *metrics) registerTier(table *twin.Table, twinTruth *core.TruthCache) {
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
	secVec := m.reg.Histogram("advhunter_tier_duration_seconds",
		"Measure-and-score time by measurement tier.", obs.DurationBuckets, "tier")
	m.tierSecondsTwin = secVec.With("twin")
	m.tierSecondsExact = secVec.With("exact")
	m.reg.GaugeFunc("advhunter_twin_table_bytes",
		"Resident size of the loaded twin count tables.", func() float64 { return float64(table.Bytes()) })
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

// registerAdmission publishes the admission-stage gauges, sampled at scrape
// time from the live gate: the queue depth/capacity always, and the
// connection-level in-flight series only when a cap is configured
// (Config.MaxInflight > 0) — an unlimited server exports none at all.
func (m *metrics) registerAdmission(adm *Admission[*job]) {
	m.reg.GaugeFunc("advhunter_queue_depth",
		"Requests waiting in the admission queue.", func() float64 { return float64(adm.QueueDepth()) })
	m.reg.GaugeFunc("advhunter_queue_capacity",
		"Admission queue capacity.", func() float64 { return float64(adm.QueueCapacity()) })
	if adm.InflightCapacity() == 0 {
		return
	}
	m.reg.GaugeFunc("advhunter_inflight_requests",
		"Requests concurrently admitted into the handler (decode through response write).",
		func() float64 { return float64(adm.InflightDepth()) })
	m.reg.GaugeFunc("advhunter_inflight_capacity",
		"Config.MaxInflight: the in-flight request cap.",
		func() float64 { return float64(adm.InflightCapacity()) })
}
