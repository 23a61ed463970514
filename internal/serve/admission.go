package serve

import (
	"sync"
	"sync/atomic"
)

// AdmitCode is the outcome of offering one request to an Admission gate.
type AdmitCode int

const (
	// AdmitOK: the request was enqueued and will be dispatched.
	AdmitOK AdmitCode = iota
	// AdmitDraining: the gate is shutting down; the caller answers 503.
	AdmitDraining
	// AdmitFull: the queue is at capacity; the caller answers 429.
	AdmitFull
)

// Admission is the gate stage of the serving pipeline: a bounded queue (the
// backpressure signal — a full queue is AdmitFull) plus an optional in-flight
// token cap (the connection-level backpressure knob — TryAcquire fails when
// every token is held). It owns the drain protocol: Close marks the gate
// draining, waits until no Offer is mid-flight, and closes the queue so the
// consumers (one per engine replica) can exit after the backlog.
//
// The type is generic so both pipeline scopes can reuse it: the single-server
// assembly gates *job values with a real queue, while the cluster tier gates
// raw HTTP requests with tokens only (queueSize 0 — its replicas do the
// queueing).
type Admission[T any] struct {
	queue     chan T
	tokens    chan struct{} // nil when maxInflight is 0 (unlimited)
	draining  atomic.Bool
	enqueuers sync.WaitGroup // callers between the draining check and the enqueue
}

// NewAdmission builds a gate with the given queue capacity (0 disables the
// queue — a token-only gate) and in-flight cap (0 means unlimited).
func NewAdmission[T any](queueSize, maxInflight int) *Admission[T] {
	a := &Admission[T]{}
	if queueSize > 0 {
		a.queue = make(chan T, queueSize)
	}
	if maxInflight > 0 {
		a.tokens = make(chan struct{}, maxInflight)
	}
	return a
}

// TryAcquire claims one in-flight token, returning its release function. With
// no cap configured it always succeeds with a no-op release, so callers hold
// the gate the same way either way.
func (a *Admission[T]) TryAcquire() (release func(), ok bool) {
	if a.tokens == nil {
		return func() {}, true
	}
	select {
	case a.tokens <- struct{}{}:
		return func() { <-a.tokens }, true
	default:
		return nil, false
	}
}

// Offer enqueues one request without blocking. The WaitGroup brackets the
// draining check and the enqueue so Close can close the queue only after
// every in-flight Offer has either enqueued or bailed.
func (a *Admission[T]) Offer(v T) AdmitCode {
	a.enqueuers.Add(1)
	defer a.enqueuers.Done()
	if a.draining.Load() {
		return AdmitDraining
	}
	select {
	case a.queue <- v:
		return AdmitOK
	default:
		return AdmitFull
	}
}

// Queue is the consumer side: the replica consumers read admitted requests
// from it.
// It is closed by Close once no Offer is in flight.
func (a *Admission[T]) Queue() <-chan T { return a.queue }

// Close marks the gate draining (subsequent Offers return AdmitDraining),
// waits for in-flight Offers, and closes the queue. It reports whether this
// call performed the close; false means another caller already had.
func (a *Admission[T]) Close() bool {
	if !a.draining.CompareAndSwap(false, true) {
		return false
	}
	a.enqueuers.Wait()
	if a.queue != nil {
		close(a.queue)
	}
	return true
}

// Draining reports whether Close has been called.
func (a *Admission[T]) Draining() bool { return a.draining.Load() }

// QueueDepth and QueueCapacity expose the queue gauges.
func (a *Admission[T]) QueueDepth() int    { return len(a.queue) }
func (a *Admission[T]) QueueCapacity() int { return cap(a.queue) }

// InflightDepth and InflightCapacity expose the token gauges; both are 0
// when no cap is configured.
func (a *Admission[T]) InflightDepth() int    { return len(a.tokens) }
func (a *Admission[T]) InflightCapacity() int { return cap(a.tokens) }
