package workload

import (
	"fmt"
	"math"
	"time"

	"advhunter/internal/rng"
)

// Poisson is the arrival-process kind: an open-loop process that schedules
// request offsets ahead of time and fires them regardless of how the server
// responds, so offered load is an input.
const Poisson = "poisson"

// ArrivalSpec configures one arrival process.
type ArrivalSpec struct {
	// Kind is Poisson.
	Kind string
	// Rate is the mean offered load in requests/second.
	Rate float64
}

// Validate rejects malformed specs: an unknown kind, or a spec without a
// positive rate.
func (a ArrivalSpec) Validate() error {
	if a.Kind != Poisson {
		return fmt.Errorf("workload: unknown arrival kind %q (have %s)", a.Kind, Poisson)
	}
	if a.Rate <= 0 {
		return fmt.Errorf("workload: arrival kind %q needs Rate > 0, got %g", a.Kind, a.Rate)
	}
	return nil
}

// Schedule generates the deterministic request offsets of one run over the
// horizon, drawing from r: exponential gaps at the target rate. Equal (spec,
// rng state, horizon) yield identical schedules.
func (a ArrivalSpec) Schedule(r *rng.Rand, horizon time.Duration) []time.Duration {
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

// String renders the spec for error messages.
func (a ArrivalSpec) String() string {
	return fmt.Sprintf("poisson(rate=%g)", a.Rate)
}
