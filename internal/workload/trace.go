package workload

import (
	"fmt"
	"time"
)

// Event is one scheduled request: when to fire it, which cohort drew it, the
// noise index it carries, and the exact JSON body to POST to /detect. The
// body is encoded once, at generation time, so every replay of a trace
// posts the same bytes — the property the determinism suite pins.
type Event struct {
	// At is the offset from run start at which an open-loop run fires this
	// event. Closed-loop traces carry zero offsets: events are issued in
	// order, as fast as the client pool allows.
	At time.Duration
	// Cohort names the cohort that drew this event's sample.
	Cohort string
	// Index is the measurement-noise index sent with the request (the
	// event's position in the trace), making every replayed verdict a pure
	// function of the trace.
	Index uint64
	// Body is the exact request body bytes.
	Body []byte
}

// Trace is one generated request sequence plus the generator configuration
// that produced it.
type Trace struct {
	// Name labels the trace in reports.
	Name string
	// Seed is the generator seed the trace was generated under.
	Seed uint64
	// Arrival is the arrival process that scheduled the events.
	Arrival ArrivalSpec
	// Events are the requests, in issue order.
	Events []Event
}

// validate rejects structurally broken traces: an unknown arrival kind,
// out-of-order open-loop offsets, or an empty body.
func (t *Trace) validate() error {
	if err := t.Arrival.Validate(); err != nil {
		return err
	}
	var prev time.Duration
	for i := range t.Events {
		e := &t.Events[i]
		if e.At < prev {
			return fmt.Errorf("workload: trace event %d fires at %s, before event %d at %s", i, e.At, i-1, prev)
		}
		prev = e.At
		if len(e.Body) == 0 {
			return fmt.Errorf("workload: trace event %d has an empty body", i)
		}
	}
	return nil
}
