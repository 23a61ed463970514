// Package obs is the repository's observability layer: a dependency-free
// metrics registry rendered in Prometheus text exposition format, structured
// logging on log/slog with per-request id propagation, and a pooled ring of
// per-request trace records (wide events) that callers fill with their own
// stage timings.
//
// The registry is built for hot paths: metric handles are resolved once
// (a single map access under an RWMutex read lock) and then recorded with
// atomics only, so instrumenting a request costs a few uncontended atomic
// adds — no mutex is taken per observation, and scraping never blocks
// recording. The trade-off is the usual Prometheus-client one: a scrape is
// not a point-in-time snapshot across series, which monitoring tolerates by
// design (counters are monotone, rates smooth the skew).
//
// Two registry scopes are used across the repository: long-lived components
// with an HTTP surface (the serve layer) own a private Registry so tests and
// multiple instances never share series, while process-wide concerns — the
// experiment cache, build info — live on Default, which serving handlers
// chain onto their own exposition.
package obs

import (
	"fmt"
	"net/http"
	"strings"
	"sync"
)

// Registry is a concurrent collection of metric families. The zero value is
// not usable; build with NewRegistry.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family

	// constNames/constValues are appended to every rendered series — the
	// registry-scope identity labels (a cluster replica's "replica" label).
	// Render-time only: metric handles and hot-path recording never see them.
	constNames  []string
	constValues []string
}

// Default is the process-wide registry for series that are not owned by one
// component instance: experiment-cache traffic, build info. Servers render
// it after their own registry so one scrape sees both scopes.
var Default = NewRegistry()

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// SetConstLabels attaches name/value pairs rendered on every series of the
// registry — the identity of a registry scope when several instances of the
// same component are scraped through one page (each cluster replica's serve
// registry carries replica="<i>"). It must be called before the first scrape
// and panics on malformed names or a dangling value, like registration does.
// Recording handles are unaffected: the pairs exist only in the exposition.
func (r *Registry) SetConstLabels(pairs ...string) {
	if len(pairs)%2 != 0 {
		panic("obs: SetConstLabels needs name/value pairs")
	}
	names := make([]string, 0, len(pairs)/2)
	values := make([]string, 0, len(pairs)/2)
	for i := 0; i < len(pairs); i += 2 {
		if err := checkLabelName(pairs[i]); err != nil {
			panic(fmt.Sprintf("obs: %v", err))
		}
		names = append(names, pairs[i])
		values = append(values, pairs[i+1])
	}
	r.mu.Lock()
	r.constNames, r.constValues = names, values
	r.mu.Unlock()
}

// metric family kinds, in exposition-format spelling.
const (
	kindCounter   = "counter"
	kindGauge     = "gauge"
	kindHistogram = "histogram"
)

// family is one named metric family and its children (one per label-value
// combination).
type family struct {
	name    string
	help    string
	kind    string
	labels  []string
	buckets []float64 // histograms only

	mu       sync.RWMutex
	children map[string]*child
	sampled  func() float64 // gauge families registered via GaugeFunc
}

// child is one series: a concrete label-value assignment and its value cells.
// Exactly one of the value groups is used, per the family kind.
type child struct {
	labelValues []string

	count counterCell // counters; histogram _count
	gauge gaugeCell
	bins  []counterCell // histogram per-bucket (non-cumulative) counts
	sum   gaugeCell     // histogram _sum
}

// register returns the family for name, creating it on first use. Re-registering
// an existing name with a different kind, help, label set or bucket layout is a
// programming error and panics — silent divergence would corrupt the exposition.
func (r *Registry) register(name, help, kind string, labels []string, buckets []float64) *family {
	if err := checkMetricName(name); err != nil {
		panic(fmt.Sprintf("obs: %v", err))
	}
	for _, l := range labels {
		if err := checkLabelName(l); err != nil {
			panic(fmt.Sprintf("obs: metric %s: %v", name, err))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind || f.help != help || !equalStrings(f.labels, labels) || !equalFloats(f.buckets, buckets) {
			panic(fmt.Sprintf("obs: metric %s re-registered with a different definition", name))
		}
		return f
	}
	f := &family{
		name:     name,
		help:     help,
		kind:     kind,
		labels:   append([]string(nil), labels...),
		buckets:  append([]float64(nil), buckets...),
		children: make(map[string]*child),
	}
	r.families[name] = f
	return f
}

// childFor resolves (creating if needed) the series for one label-value
// assignment. The fast path is a read-locked map hit; callers are expected to
// cache the returned handle when instrumenting hot paths.
func (f *family) childFor(values []string) *child {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %s wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, "\xff")
	f.mu.RLock()
	c, ok := f.children[key]
	f.mu.RUnlock()
	if ok {
		return c
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok = f.children[key]; ok {
		return c
	}
	c = &child{labelValues: append([]string(nil), values...)}
	if f.kind == kindHistogram {
		c.bins = make([]counterCell, len(f.buckets))
	}
	f.children[key] = c
	return c
}

// Counter registers (or retrieves) a counter family.
func (r *Registry) Counter(name, help string, labels ...string) *CounterVec {
	return &CounterVec{f: r.register(name, help, kindCounter, labels, nil)}
}

// Gauge registers (or retrieves) a gauge family.
func (r *Registry) Gauge(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{f: r.register(name, help, kindGauge, labels, nil)}
}

// GaugeFunc registers an unlabelled gauge whose value is sampled by fn at
// scrape time — the natural shape for instantaneous properties owned by the
// instrumented component (queue depth, pool size).
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.register(name, help, kindGauge, nil, nil)
	f.mu.Lock()
	f.sampled = fn
	f.mu.Unlock()
}

// Histogram registers (or retrieves) a histogram family with the given
// upper bucket bounds (an implicit +Inf bucket is always rendered).
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...string) *HistogramVec {
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("obs: metric %s: buckets must be strictly increasing", name))
		}
	}
	return &HistogramVec{f: r.register(name, help, kindHistogram, labels, buckets)}
}

// Handler returns an http.Handler rendering WriteMerged over the registries
// under the Prometheus text content type — the one /metrics surface of serve
// and cluster alike. A cluster passes each replica's registry, which repeats
// the serve families under its own replica label, and the exposition still
// has one family block per name.
func Handler(regs ...*Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		WriteMerged(w, regs...)
	})
}

// DurationBuckets is the default histogram layout for pipeline-stage and
// task durations: roughly logarithmic from 100 µs to 10 s.
var DurationBuckets = []float64{0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
