package workload

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// Quantiles summarise a latency distribution in milliseconds, computed
// nearest-rank over the client-observed per-request latencies.
type Quantiles struct {
	P50Ms  float64 `json:"p50_ms"`
	P99Ms  float64 `json:"p99_ms"`
	P999Ms float64 `json:"p999_ms"`
	MaxMs  float64 `json:"max_ms"`
	MeanMs float64 `json:"mean_ms"`
}

// quantilesOf computes nearest-rank quantiles; a nil input yields zeros.
func quantilesOf(lat []time.Duration) Quantiles {
	var q Quantiles
	if len(lat) == 0 {
		return q
	}
	sorted := append([]time.Duration(nil), lat...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	at := func(p float64) float64 {
		i := int(p*float64(len(sorted))+0.5) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(sorted) {
			i = len(sorted) - 1
		}
		return float64(sorted[i]) / float64(time.Millisecond)
	}
	var sum time.Duration
	for _, d := range sorted {
		sum += d
	}
	q.P50Ms = at(0.50)
	q.P99Ms = at(0.99)
	q.P999Ms = at(0.999)
	q.MaxMs = float64(sorted[len(sorted)-1]) / float64(time.Millisecond)
	q.MeanMs = float64(sum) / float64(len(sorted)) / float64(time.Millisecond)
	return q
}

// CohortStats summarise one cohort's slice of the run.
type CohortStats struct {
	Requests int       `json:"requests"`
	OK       int       `json:"ok"`
	Flagged  int       `json:"flagged"`
	FlagRate float64   `json:"flag_rate"` // flagged / ok
	Latency  Quantiles `json:"latency"`
}

// ServerStats carry the server-side /metrics delta across the run: what the
// server did while the trace played, as distinct from what clients observed.
type ServerStats struct {
	TruthHits       float64 `json:"truth_hits"`
	TruthMisses     float64 `json:"truth_misses"`
	TruthHitRate    float64 `json:"truth_hit_rate"`
	TwinTruthHits   float64 `json:"twin_truth_hits"`
	TwinTruthMisses float64 `json:"twin_truth_misses"`
	Screened        float64 `json:"screened"`
	Escalations     float64 `json:"escalations"`
	EscalationRate  float64 `json:"escalation_rate"` // escalations / screened
	Rejected429     float64 `json:"rejected_429"`
	Timeouts504     float64 `json:"timeouts_504"`
	QueueCapacity   float64 `json:"queue_capacity"`
	QueueDepthPeak  float64 `json:"queue_depth_peak"`
	QueueDepthMean  float64 `json:"queue_depth_mean"`
	InflightPeak    float64 `json:"inflight_peak"`
	InflightMean    float64 `json:"inflight_mean"`
	GaugeSamples    int     `json:"gauge_samples"`
	AlertsFired     float64 `json:"alerts_fired"`  // alert transitions to firing during the run
	AlertsActive    float64 `json:"alerts_active"` // rules still firing when the run ended
}

// Report is the distilled result of one run: client-side rates and latency
// quantiles per traffic shape, per-cohort breakdowns, and the server-side
// counter deltas. It is the unit `advhunter loadgen -json` prints.
type Report struct {
	Name          string                  `json:"name"`
	Shape         string                  `json:"shape"`
	Tier          string                  `json:"tier"` // dominant verdict tier ("" when responses carry none — exact-only serving)
	Seed          uint64                  `json:"seed"`
	Requests      int                     `json:"requests"`
	Completed     int                     `json:"completed"` // 200s
	Status        map[string]int          `json:"status"`
	Rate429       float64                 `json:"rate_429"`
	TimeoutRate   float64                 `json:"timeout_rate"`
	ErrorRate     float64                 `json:"error_rate"` // transport errors
	WallSeconds   float64                 `json:"wall_seconds"`
	ThroughputRPS float64                 `json:"throughput_rps"` // completed / wall
	Latency       Quantiles               `json:"latency"`        // over 200s
	Cohorts       map[string]*CohortStats `json:"cohorts"`
	Server        ServerStats             `json:"server"`
}

// buildReport distils outcomes plus the surrounding /metrics snapshots.
func buildReport(tr *Trace, outcomes []Outcome, before, after Snapshot, samples *gaugeSamples, wall time.Duration) *Report {
	rep := &Report{
		Name:     tr.Name,
		Shape:    string(tr.Arrival.Kind),
		Seed:     tr.Seed,
		Requests: len(outcomes),
		Status:   make(map[string]int),
		Cohorts:  make(map[string]*CohortStats),
	}

	var okLat []time.Duration
	tiers := make(map[string]int)
	for i := range outcomes {
		o := &outcomes[i]
		cs := rep.Cohorts[tr.Events[i].Cohort]
		if cs == nil {
			cs = &CohortStats{}
			rep.Cohorts[tr.Events[i].Cohort] = cs
		}
		cs.Requests++
		if o.Status == 0 {
			rep.Status["err"]++
			continue
		}
		rep.Status[fmt.Sprintf("%d", o.Status)]++
		if o.Status != 200 {
			continue
		}
		rep.Completed++
		okLat = append(okLat, o.Latency)
		cs.OK++
		if o.Adversarial {
			cs.Flagged++
		}
		if o.Tier != "" {
			tiers[o.Tier]++
		}
	}
	// Guard the empty run: a trace that completed zero requests (a saturated
	// server, a cancelled run) must report zero rates, not NaN — NaN is
	// unencodable as JSON and would poison the whole report file.
	if n := float64(len(outcomes)); n > 0 {
		rep.Rate429 = float64(rep.Status["429"]) / n
		rep.TimeoutRate = float64(rep.Status["504"]) / n
		rep.ErrorRate = float64(rep.Status["err"]) / n
	}
	rep.WallSeconds = wall.Seconds()
	if wall > 0 {
		rep.ThroughputRPS = float64(rep.Completed) / wall.Seconds()
	}
	rep.Latency = quantilesOf(okLat)
	for name, cs := range rep.Cohorts {
		if cs.OK > 0 {
			cs.FlagRate = float64(cs.Flagged) / float64(cs.OK)
		}
		var lat []time.Duration
		for i := range outcomes {
			if tr.Events[i].Cohort == name && outcomes[i].Status == 200 {
				lat = append(lat, outcomes[i].Latency)
			}
		}
		cs.Latency = quantilesOf(lat)
	}
	for t, c := range tiers {
		if c > tiers[rep.Tier] || rep.Tier == "" {
			rep.Tier = t
		}
	}

	// Server-side series are summed per family rather than fetched by exact
	// key: a single server renders one series per family (Sum == Get), while
	// a cluster scrape repeats each family under per-replica labels and the
	// report wants fleet totals.
	d := after.DeltaFrom(before)
	s := &rep.Server
	s.TruthHits = d.Sum("advhunter_truth_cache_hits_total")
	s.TruthMisses = d.Sum("advhunter_truth_cache_misses_total")
	if tot := s.TruthHits + s.TruthMisses; tot > 0 {
		s.TruthHitRate = s.TruthHits / tot
	}
	s.TwinTruthHits = d.Sum("advhunter_twin_truth_cache_hits_total")
	s.TwinTruthMisses = d.Sum("advhunter_twin_truth_cache_misses_total")
	s.Screened = d.Sum("advhunter_tier_screened_total")
	s.Escalations = d.Sum("advhunter_tier_escalations_total")
	if s.Screened > 0 {
		s.EscalationRate = s.Escalations / s.Screened
	}
	s.Rejected429 = d.SumMatch("advhunter_requests_total", "code", "429")
	s.Timeouts504 = d.SumMatch("advhunter_requests_total", "code", "504")
	s.QueueCapacity = after.Sum("advhunter_queue_capacity")
	s.QueueDepthPeak = samples.queuePeak
	s.InflightPeak = samples.inflightPeak
	s.GaugeSamples = samples.n
	if samples.n > 0 {
		s.QueueDepthMean = samples.queueSum / float64(samples.n)
		s.InflightMean = samples.inflightSum / float64(samples.n)
	}
	// Alert families exist only when the target runs an alert engine; on a
	// plain server both sums are 0 and the report simply carries zeros.
	s.AlertsFired = d.Sum("advhunter_alert_fired_total")
	s.AlertsActive = after.Sum("advhunter_alert_active")
	return rep
}

// Render writes the human-readable report.
func (r *Report) Render(w io.Writer) {
	fmt.Fprintf(w, "workload %s: shape=%s tier=%s seed=%d\n", r.Name, r.Shape, r.Tier, r.Seed)
	fmt.Fprintf(w, "  requests %d, completed %d in %.2fs (%.1f req/s)\n",
		r.Requests, r.Completed, r.WallSeconds, r.ThroughputRPS)
	fmt.Fprintf(w, "  latency ms: p50 %.2f  p99 %.2f  p999 %.2f  max %.2f  mean %.2f\n",
		r.Latency.P50Ms, r.Latency.P99Ms, r.Latency.P999Ms, r.Latency.MaxMs, r.Latency.MeanMs)
	fmt.Fprintf(w, "  rates: 429 %.3f  timeout %.3f  transport-error %.3f\n",
		r.Rate429, r.TimeoutRate, r.ErrorRate)
	names := make([]string, 0, len(r.Cohorts))
	for n := range r.Cohorts {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		cs := r.Cohorts[n]
		fmt.Fprintf(w, "  cohort %-8s %4d req, %4d ok, flagged %.3f, p99 %.2fms\n",
			n, cs.Requests, cs.OK, cs.FlagRate, cs.Latency.P99Ms)
	}
	s := r.Server
	fmt.Fprintf(w, "  server: truth-cache hit rate %.3f (%g/%g)  escalation rate %.3f (%g/%g)\n",
		s.TruthHitRate, s.TruthHits, s.TruthHits+s.TruthMisses, s.EscalationRate, s.Escalations, s.Screened)
	fmt.Fprintf(w, "  server: 429s %g  504s %g  queue depth peak %g / cap %g  inflight peak %g\n",
		s.Rejected429, s.Timeouts504, s.QueueDepthPeak, s.QueueCapacity, s.InflightPeak)
	if s.AlertsFired > 0 || s.AlertsActive > 0 {
		fmt.Fprintf(w, "  server: alerts fired %g, still active %g\n", s.AlertsFired, s.AlertsActive)
	}
}
