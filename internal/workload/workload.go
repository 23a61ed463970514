// Package workload is the synthetic traffic generator and the /metrics
// scraper of the serving stack. Generate turns a seed, an open-loop Poisson
// arrival process and a weighted mix of client cohorts into a request trace
// whose bodies are encoded once, ready to POST to /detect; servebench replays
// such a trace in its auto-open workload. Scrape parses a server's /metrics
// page into a Snapshot, the view servebench and `advhunter watch` read
// counters from.
//
// Everything stochastic draws from internal/rng keyed by the configuration
// seed, so a generated trace is a pure function of its Config: generate it
// twice and get the same bytes. The serving layer guarantees verdicts are
// pure functions of (input, noise index), and the trace pins both.
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
	// Name labels the workload's trace.
	Name string
	// Seed determines every stochastic choice (schedule, cohort picks,
	// sample draws). Equal Configs generate byte-identical traces.
	Seed uint64
	// Arrival is the arrival process.
	Arrival ArrivalSpec
	// Mix is the weighted cohort mix.
	Mix Mix
	// Horizon is the schedule length (default 2s).
	Horizon time.Duration
}

// Generate builds the deterministic request trace for one workload: the
// arrival process lays out the offsets, then each event independently picks
// a cohort (weighted) and a sample (uniform in the cohort's pool) from an
// rng stream forked by event position — so the i-th event's identity depends
// only on (Seed, i), never on the events before it. Request bodies are
// encoded once, here.
func Generate(cfg Config) (*Trace, error) {
	if err := cfg.Arrival.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Mix.validate(); err != nil {
		return nil, err
	}
	if cfg.Horizon <= 0 {
		cfg.Horizon = 2 * time.Second
	}

	root := rng.New(cfg.Seed)
	offsets := cfg.Arrival.Schedule(root.Split(1), cfg.Horizon)
	if len(offsets) == 0 {
		return nil, fmt.Errorf("workload: %s over %s produced an empty schedule", cfg.Arrival, cfg.Horizon)
	}
	eventRand := root.Split(2)

	weights := cfg.Mix.weights()
	events := make([]Event, len(offsets))
	for i, at := range offsets {
		er := eventRand.Fork(uint64(i))
		c := cfg.Mix[er.Choice(weights)]
		s := c.Pool[er.Intn(len(c.Pool))]
		body, err := json.Marshal(serve.NewRequest(s.X, uint64(i)))
		if err != nil {
			return nil, fmt.Errorf("workload: encoding event %d: %w", i, err)
		}
		events[i] = Event{At: at, Cohort: c.Name, Index: uint64(i), Body: body}
	}
	return &Trace{Name: cfg.Name, Events: events}, nil
}
