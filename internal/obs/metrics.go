package obs

import (
	"math"
	"sync/atomic"
)

// counterCell is a monotone integer cell.
type counterCell struct{ v atomic.Uint64 }

// gaugeCell is a float64 cell stored as IEEE-754 bits; Add is a CAS loop.
type gaugeCell struct{ bits atomic.Uint64 }

func (g *gaugeCell) load() float64   { return math.Float64frombits(g.bits.Load()) }
func (g *gaugeCell) store(v float64) { g.bits.Store(math.Float64bits(v)) }
func (g *gaugeCell) add(d float64) {
	for {
		old := g.bits.Load()
		nu := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, nu) {
			return
		}
	}
}

// CounterVec is a labelled counter family.
type CounterVec struct{ f *family }

// With resolves the counter for one label-value assignment. Hot paths should
// resolve once and keep the handle.
func (v *CounterVec) With(labelValues ...string) *Counter {
	return &Counter{c: v.f.childFor(labelValues)}
}

// Counter is one monotonically increasing series.
type Counter struct{ c *child }

// Inc adds one.
func (c *Counter) Inc() { c.c.count.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.c.count.v.Add(n) }

// Value returns the current count — for run summaries and tests, not for
// exposition (WriteMerged renders the whole registry).
func (c *Counter) Value() uint64 { return c.c.count.v.Load() }

// GaugeVec is a labelled gauge family.
type GaugeVec struct{ f *family }

// With resolves the gauge for one label-value assignment.
func (v *GaugeVec) With(labelValues ...string) *Gauge {
	return &Gauge{c: v.f.childFor(labelValues)}
}

// Gauge is one series that can go up and down.
type Gauge struct{ c *child }

// Set stores v.
func (g *Gauge) Set(v float64) { g.c.gauge.store(v) }

// Add adds d (negative to subtract).
func (g *Gauge) Add(d float64) { g.c.gauge.add(d) }

// Inc adds one.
func (g *Gauge) Inc() { g.c.gauge.add(1) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return g.c.gauge.load() }

// HistogramVec is a labelled histogram family.
type HistogramVec struct{ f *family }

// With resolves the histogram for one label-value assignment.
func (v *HistogramVec) With(labelValues ...string) *Histogram {
	return &Histogram{buckets: v.f.buckets, c: v.f.childFor(labelValues)}
}

// Histogram is one series of bucketed observations.
type Histogram struct {
	buckets []float64
	c       *child
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// Buckets are few (≤ ~16); linear scan beats binary search at this size
	// and keeps the loop branch-predictable.
	for i, ub := range h.buckets {
		if v <= ub {
			h.c.bins[i].v.Add(1)
			break
		}
	}
	h.c.count.v.Add(1)
	h.c.sum.add(v)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.c.count.v.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return h.c.sum.load() }
