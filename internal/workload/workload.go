// Package workload is the synthetic traffic generator and load harness for
// the serving stack: it turns a seed, an arrival process (open-loop Poisson
// or closed-loop fixed concurrency), and a weighted mix of client cohorts
// into a request trace, drives a live `advhunter serve` instance with it,
// and distils the run into a structured report — latency quantiles,
// throughput, backpressure and timeout rates, and the server-side deltas
// (truth-cache hits, tier escalations, queue depth) scraped from /metrics
// before, during, and after the run.
//
// Everything stochastic draws from internal/rng keyed by the configuration
// seed, so a generated trace is a pure function of its Config: generate it
// twice and get the same bytes, and get the same per-request verdict
// sequence whatever the client concurrency — the serving layer already
// guarantees verdicts are pure functions of (input, noise index), and the
// trace pins both.
package workload

import (
	"encoding/json"
	"fmt"
	"time"

	"advhunter/internal/rng"
	"advhunter/internal/serve"
)

// Config describes one workload: who sends (Mix), when (Arrival), for how
// long, under which seed.
type Config struct {
	// Name labels the workload in traces and reports.
	Name string
	// Seed determines every stochastic choice (schedule, cohort picks,
	// sample draws). Equal Configs generate byte-identical traces.
	Seed uint64
	// Arrival is the arrival process.
	Arrival ArrivalSpec
	// Mix is the weighted cohort mix.
	Mix Mix
	// Horizon is the open-loop schedule length (default 2s). Ignored by
	// closed-loop workloads.
	Horizon time.Duration
	// Requests is the closed-loop request count (default 64·Clients is NOT
	// assumed — it must be set for closed-loop workloads). Ignored by
	// open-loop workloads, whose count follows from Rate and Horizon.
	Requests int
}

// Generate builds the deterministic request trace for one workload: the
// arrival process lays out the offsets, then each event independently picks
// a cohort (weighted) and a sample (uniform in the cohort's pool) from an
// rng stream forked by event position — so the i-th event's identity never
// depends on how many events precede it being inspected, only on (Seed, i).
// Request bodies are encoded once, here; Run posts these exact bytes.
func Generate(cfg Config) (*Trace, error) {
	if err := cfg.Arrival.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Mix.validate(); err != nil {
		return nil, err
	}
	cfg.Arrival = cfg.Arrival.withDefaults()
	if cfg.Horizon <= 0 {
		cfg.Horizon = 2 * time.Second
	}

	root := rng.New(cfg.Seed)
	schedRand := root.Split(1)
	eventRand := root.Split(2)

	var offsets []time.Duration
	n := cfg.Requests
	if cfg.Arrival.Kind != Closed {
		offsets = cfg.Arrival.Schedule(schedRand, cfg.Horizon)
		n = len(offsets)
		if n == 0 {
			return nil, fmt.Errorf("workload: %s over %s produced an empty schedule", cfg.Arrival, cfg.Horizon)
		}
	} else if n <= 0 {
		return nil, fmt.Errorf("workload: closed-loop workload needs Requests > 0")
	}

	weights := cfg.Mix.weights()
	events := make([]Event, n)
	for i := 0; i < n; i++ {
		er := eventRand.Fork(uint64(i))
		c := cfg.Mix[er.Choice(weights)]
		s := c.draw(er)
		body, err := json.Marshal(serve.NewRequest(s.X, uint64(i)))
		if err != nil {
			return nil, fmt.Errorf("workload: encoding event %d: %w", i, err)
		}
		events[i] = Event{Cohort: c.Name, Index: uint64(i), Body: body}
		if offsets != nil {
			events[i].At = offsets[i]
		}
	}
	return &Trace{Name: cfg.Name, Seed: cfg.Seed, Arrival: cfg.Arrival, Events: events}, nil
}
