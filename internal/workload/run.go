package workload

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"advhunter/internal/obs"
)

// RunOptions tune trace replay against a live server.
type RunOptions struct {
	// Clients overrides the concurrency: the closed-loop client count, and
	// the open-loop in-flight socket cap (default: the trace's own Clients
	// for closed loops, 64 for open loops). Replaying one trace with 1 and
	// with 8 clients yields identical per-request responses — the
	// determinism suite pins that.
	Clients int
	// Timeout is the per-request client budget (default 30s).
	Timeout time.Duration
	// Think overrides the closed-loop think time (negative: none; 0: the
	// trace's own).
	Think time.Duration
	// KeepBodies retains every response body in the outcomes — the
	// determinism tests compare them byte-for-byte; load runs leave this off
	// to keep memory flat.
	KeepBodies bool
	// SampleEvery is the cadence at which the collector scrapes /metrics
	// during the run to track queue-depth and in-flight gauges (0 selects
	// 25ms; negative disables sampling).
	SampleEvery time.Duration
}

func (o RunOptions) withDefaults(tr *Trace) RunOptions {
	if o.Clients <= 0 {
		if tr.Arrival.Kind == Closed {
			o.Clients = tr.Arrival.withDefaults().Clients
		} else {
			o.Clients = 64
		}
	}
	if o.Timeout <= 0 {
		o.Timeout = 30 * time.Second
	}
	if o.Think == 0 {
		o.Think = tr.Arrival.Think
	} else if o.Think < 0 {
		o.Think = 0
	}
	if o.SampleEvery == 0 {
		o.SampleEvery = 25 * time.Millisecond
	}
	return o
}

// Outcome is one replayed request's result, indexed like the trace events.
type Outcome struct {
	// Status is the HTTP status, or 0 on a transport error.
	Status int `json:"status"`
	// Latency spans issue to body-fully-read.
	Latency time.Duration `json:"latency_ns"`
	// Adversarial and Tier echo the 200-response verdict fields.
	Adversarial bool   `json:"adversarial,omitempty"`
	Tier        string `json:"tier,omitempty"`
	// Err carries the transport error text (Status 0).
	Err string `json:"err,omitempty"`
	// Body is the full response body; retained only under KeepBodies.
	Body []byte `json:"-"`
}

// RunResult bundles one replay: the per-event outcomes, the distilled
// report, and the client-side metrics registry (rendered by WriteMetrics).
type RunResult struct {
	Trace    *Trace
	Outcomes []Outcome
	Report   *Report

	reg *obs.Registry
}

// WriteMetrics renders the client-side load metrics (request counts by
// status, per-cohort latency histograms and flag counters) in Prometheus
// text exposition format — the same registry machinery the server exports
// through, so the output passes obs.Lint by construction.
func (r *RunResult) WriteMetrics(w io.Writer) error {
	_, err := r.reg.WriteTo(w)
	return err
}

// loadMetrics is the client-side instrumentation of one run.
type loadMetrics struct {
	reg      *obs.Registry
	requests *obs.CounterVec   // by status code ("err" for transport errors)
	seconds  *obs.HistogramVec // by cohort
	flagged  *obs.CounterVec   // by cohort
}

func newLoadMetrics() *loadMetrics {
	reg := obs.NewRegistry()
	return &loadMetrics{
		reg: reg,
		requests: reg.Counter("advhunter_loadgen_requests_total",
			"Load-generator requests by response status code.", "code"),
		seconds: reg.Histogram("advhunter_loadgen_request_duration_seconds",
			"Client-observed request latency by cohort.",
			[]float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}, "cohort"),
		flagged: reg.Counter("advhunter_loadgen_flagged_total",
			"Responses answered adversarial, by cohort.", "cohort"),
	}
}

// verdictBody is the slice of serve.Response the collector reads back.
type verdictBody struct {
	Adversarial bool   `json:"adversarial"`
	Tier        string `json:"tier"`
}

// Run replays a trace against the server at base (e.g. "http://127.0.0.1:8080"),
// open-loop paced by the recorded offsets or closed-loop over a fixed client
// pool, and returns the outcomes plus a report built from the client-side
// observations and the /metrics delta around the run.
func Run(ctx context.Context, base string, tr *Trace, opts RunOptions) (*RunResult, error) {
	if len(tr.Events) == 0 {
		return nil, fmt.Errorf("workload: empty trace")
	}
	if err := tr.validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults(tr)

	transport := http.DefaultTransport.(*http.Transport).Clone()
	transport.MaxIdleConns = opts.Clients
	transport.MaxIdleConnsPerHost = opts.Clients
	client := &http.Client{Transport: transport, Timeout: opts.Timeout}
	defer transport.CloseIdleConnections()

	lm := newLoadMetrics()
	outcomes := make([]Outcome, len(tr.Events))
	issue := func(i int) {
		ev := &tr.Events[i]
		o := &outcomes[i]
		start := time.Now()
		resp, err := client.Post(base+"/detect", "application/json", bytes.NewReader(ev.Body))
		if err != nil {
			o.Latency = time.Since(start)
			o.Err = err.Error()
			lm.requests.With("err").Inc()
			return
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		o.Latency = time.Since(start)
		if err != nil {
			o.Err = err.Error()
			lm.requests.With("err").Inc()
			return
		}
		o.Status = resp.StatusCode
		lm.requests.With(fmt.Sprintf("%d", resp.StatusCode)).Inc()
		lm.seconds.With(ev.Cohort).Observe(o.Latency.Seconds())
		if resp.StatusCode == http.StatusOK {
			var v verdictBody
			if json.Unmarshal(body, &v) == nil {
				o.Adversarial = v.Adversarial
				o.Tier = v.Tier
				if v.Adversarial {
					lm.flagged.With(ev.Cohort).Inc()
				}
			}
		}
		if opts.KeepBodies {
			o.Body = body
		}
	}

	before, err := Scrape(client, base)
	if err != nil {
		return nil, fmt.Errorf("workload: pre-run scrape: %w", err)
	}
	sampler := startSampler(client, base, opts.SampleEvery)

	start := time.Now()
	if tr.Arrival.Kind == Closed {
		runClosed(ctx, tr, opts, issue)
	} else {
		runOpen(ctx, tr, opts, issue)
	}
	wall := time.Since(start)

	samples := sampler.stop()
	after, err := Scrape(client, base)
	if err != nil {
		return nil, fmt.Errorf("workload: post-run scrape: %w", err)
	}

	res := &RunResult{Trace: tr, Outcomes: outcomes, reg: lm.reg}
	res.Report = buildReport(tr, outcomes, before, after, samples, wall)
	return res, nil
}

// runClosed drives the fixed-concurrency loop: each client repeatedly claims
// the next unissued event, posts it, waits for the response, thinks, and
// goes again — offered load follows server latency.
func runClosed(ctx context.Context, tr *Trace, opts RunOptions, issue func(int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < opts.Clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(tr.Events) || ctx.Err() != nil {
					return
				}
				issue(i)
				if opts.Think > 0 {
					select {
					case <-time.After(opts.Think):
					case <-ctx.Done():
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// runOpen fires each event at its recorded offset regardless of responses
// (offered load is an input). Concurrency is bounded only by the socket cap:
// a saturated cap delays dispatch, which shows up as latency — the honest
// open-loop failure mode, not silent load shedding.
func runOpen(ctx context.Context, tr *Trace, opts RunOptions, issue func(int)) {
	sem := make(chan struct{}, opts.Clients)
	start := time.Now()
	var wg sync.WaitGroup
	for i := range tr.Events {
		if d := tr.Events[i].At - time.Since(start); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
				return
			}
		}
		if ctx.Err() != nil {
			break
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			issue(i)
		}(i)
	}
	wg.Wait()
}

// gaugeSamples aggregates the mid-run gauge scrapes.
type gaugeSamples struct {
	n                         int
	queuePeak, queueSum       float64
	inflightPeak, inflightSum float64
}

type sampler struct {
	stopc chan struct{}
	donec chan *gaugeSamples
}

// startSampler scrapes /metrics every interval, tracking queue-depth and
// in-flight gauges. A nil sampler (interval < 0) is a no-op.
func startSampler(client *http.Client, base string, every time.Duration) *sampler {
	if every < 0 {
		return nil
	}
	s := &sampler{stopc: make(chan struct{}), donec: make(chan *gaugeSamples, 1)}
	go func() {
		agg := &gaugeSamples{}
		ticker := time.NewTicker(every)
		defer ticker.Stop()
		for {
			select {
			case <-s.stopc:
				s.donec <- agg
				return
			case <-ticker.C:
				snap, err := Scrape(client, base)
				if err != nil {
					continue
				}
				// Summed per family: a cluster scrape carries one queue-depth
				// series per replica and the sampler wants fleet occupancy.
				q := snap.Sum("advhunter_queue_depth")
				in := snap.Sum("advhunter_inflight_requests")
				agg.n++
				agg.queueSum += q
				agg.inflightSum += in
				if q > agg.queuePeak {
					agg.queuePeak = q
				}
				if in > agg.inflightPeak {
					agg.inflightPeak = in
				}
			}
		}
	}()
	return s
}

func (s *sampler) stop() *gaugeSamples {
	if s == nil {
		return &gaugeSamples{}
	}
	close(s.stopc)
	return <-s.donec
}
