package workload

import (
	"fmt"
	"math"
	"time"

	"advhunter/internal/rng"
)

// Arrival-process kinds. The open-loop kind (Poisson) schedules request
// *offsets* ahead of time and fires them regardless of how the server
// responds — offered load is an input. The closed-loop kind (Closed) has no
// schedule at all: a fixed set of clients each issue their next request when
// the previous response arrives, so offered load is an output of server
// latency, the shape that exposes capacity knees.
const (
	Poisson = "poisson"
	Closed  = "closed"
)

// Kinds lists the arrival-process kinds.
func Kinds() []string { return []string{Poisson, Closed} }

// ArrivalSpec configures one arrival process. The zero value of every knob
// selects a sensible default; Kind and (for Poisson) Rate are the only
// required fields. The spec travels in the trace header, so a trace
// documents the shape that produced it.
type ArrivalSpec struct {
	// Kind is Poisson or Closed.
	Kind string
	// Rate is the mean offered load in requests/second of a Poisson
	// process.
	Rate float64

	// Clients is the closed-loop concurrency (default 4).
	Clients int
	// Think is the closed-loop pause between receiving a response and
	// issuing the next request (default 0).
	Think time.Duration
}

// withDefaults fills the zero-valued knobs.
func (a ArrivalSpec) withDefaults() ArrivalSpec {
	if a.Clients <= 0 {
		a.Clients = 4
	}
	return a
}

// Validate rejects malformed specs: an unknown kind, or a Poisson spec
// without a positive rate.
func (a ArrivalSpec) Validate() error {
	switch a.Kind {
	case Poisson:
		if a.Rate <= 0 {
			return fmt.Errorf("workload: arrival kind %q needs Rate > 0, got %g", a.Kind, a.Rate)
		}
		return nil
	case Closed:
		return nil
	default:
		return fmt.Errorf("workload: unknown arrival kind %q (have %v)", a.Kind, Kinds())
	}
}

// Schedule generates the deterministic request offsets of one Poisson run
// over the horizon, drawing from r: exponential gaps at the target rate.
// Equal (spec, rng state, horizon) yield identical schedules. Closed-loop
// specs have no schedule and return nil.
func (a ArrivalSpec) Schedule(r *rng.Rand, horizon time.Duration) []time.Duration {
	if a.Kind == Closed {
		return nil
	}
	h := horizon.Seconds()
	var out []time.Duration
	for t := 0.0; ; {
		// Inverse-CDF exponential gap; Log1p(-u) is finite for u in [0, 1).
		t += -math.Log1p(-r.Float64()) / a.Rate
		if t >= h {
			return out
		}
		// A second draw per arrival, once the acceptance test of a thinning
		// sampler, keeps every seed's schedule identical to the one it has
		// always produced.
		r.Float64()
		out = append(out, time.Duration(t*float64(time.Second)))
	}
}

// String renders the spec for report headers.
func (a ArrivalSpec) String() string {
	if a.Kind == Closed {
		a = a.withDefaults()
		return fmt.Sprintf("closed(clients=%d,think=%s)", a.Clients, a.Think)
	}
	return fmt.Sprintf("poisson(rate=%g)", a.Rate)
}
