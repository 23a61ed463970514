package workload

import "time"

// Event is one scheduled request: when to fire it, which cohort drew it, the
// noise index it carries, and the exact JSON body to POST to /detect. The
// body is encoded once, at generation time, so every replay of a trace
// posts the same bytes.
type Event struct {
	// At is the offset from run start at which this event fires.
	At time.Duration
	// Cohort names the cohort that drew this event's sample.
	Cohort string
	// Index is the measurement-noise index sent with the request (the
	// event's position in the trace), making every verdict a pure function
	// of the trace.
	Index uint64
	// Body is the exact request body bytes.
	Body []byte
}

// Trace is one generated request sequence.
type Trace struct {
	// Name labels the trace (Config.Name).
	Name string
	// Events are the requests, in issue order.
	Events []Event
}
