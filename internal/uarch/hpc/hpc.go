// Package hpc models the Hardware Performance Counter interface of the
// simulated machine: the nine perf events the paper studies, a counter bank
// populated from the cache hierarchy and branch predictor, and the
// measurement-noise model (background-process interference) that motivates
// the paper's R-fold repetition of every reading.
package hpc

import (
	"fmt"

	"advhunter/internal/rng"
	"advhunter/internal/uarch/branch"
	"advhunter/internal/uarch/cache"
)

// Event identifies one perf-style counter.
type Event int

// The five core events plus the four cache-miss sub-events of the ablation
// study (Section 6 of the paper).
const (
	Instructions Event = iota
	Branches
	BranchMisses
	CacheReferences
	CacheMisses
	L1DLoadMisses
	L1ILoadMisses
	LLCLoadMisses
	LLCStoreMisses
	DTLBLoadMisses
	NumEvents // sentinel
)

// String returns the perf-tool spelling of the event.
func (e Event) String() string {
	switch e {
	case Instructions:
		return "instructions"
	case Branches:
		return "branches"
	case BranchMisses:
		return "branch-misses"
	case CacheReferences:
		return "cache-references"
	case CacheMisses:
		return "cache-misses"
	case L1DLoadMisses:
		return "L1-dcache-load-misses"
	case L1ILoadMisses:
		return "L1-icache-load-misses"
	case LLCLoadMisses:
		return "LLC-load-misses"
	case LLCStoreMisses:
		return "LLC-store-misses"
	case DTLBLoadMisses:
		return "dTLB-load-misses"
	default:
		return fmt.Sprintf("event(%d)", int(e))
	}
}

// ParseEvent maps a perf-tool event name back to its identifier.
func ParseEvent(name string) (Event, error) {
	for e := Event(0); e < NumEvents; e++ {
		if e.String() == name {
			return e, nil
		}
	}
	return 0, fmt.Errorf("hpc: unknown event %q", name)
}

// CoreEvents returns the five events of the paper's main evaluation.
func CoreEvents() []Event {
	return []Event{Instructions, Branches, BranchMisses, CacheReferences, CacheMisses}
}

// CacheAblationEvents returns the four cache-miss sub-events of the paper's
// ablation study.
func CacheAblationEvents() []Event {
	return []Event{L1DLoadMisses, L1ILoadMisses, LLCLoadMisses, LLCStoreMisses}
}

// AllEvents returns every modelled event.
func AllEvents() []Event {
	out := make([]Event, NumEvents)
	for i := range out {
		out[i] = Event(i)
	}
	return out
}

// Counts is one full reading of the counter bank (true, noise-free values;
// stored as float64 because downstream statistics are real-valued).
type Counts [NumEvents]float64

// Get returns the value of one event.
func (c Counts) Get(e Event) float64 { return c[e] }

// Collect derives a Counts snapshot from the simulated hardware after an
// inference run. instructions is the architectural retired-instruction
// count maintained by the engine.
//
// Event mapping (matching how the perf generic events alias on Intel parts):
// cache-references / cache-misses count demand traffic reaching the LLC and
// missing it; LLC-load-misses / LLC-store-misses split LLC misses by kind;
// L1-dcache-load-misses and L1-icache-load-misses come from the private L1s.
func Collect(instructions uint64, h *cache.Hierarchy, bp *branch.Counted) Counts {
	var c Counts
	llc := h.LLC.Stats()
	l1d := h.L1D.Stats()
	l1i := h.L1I.Stats()
	c[Instructions] = float64(instructions)
	c[Branches] = float64(bp.S.Branches)
	c[BranchMisses] = float64(bp.S.Mispredicts)
	c[CacheReferences] = float64(llc.Accesses)
	c[CacheMisses] = float64(llc.Misses)
	c[L1DLoadMisses] = float64(l1d.LoadMisses)
	c[L1ILoadMisses] = float64(l1i.FetchMisses)
	c[LLCLoadMisses] = float64(llc.LoadMisses + llc.FetchMisses)
	c[LLCStoreMisses] = float64(llc.StoreMisses)
	if h.DTLB != nil {
		c[DTLBLoadMisses] = float64(h.DTLB.Stats().Misses)
	}
	return c
}

// NoiseModel describes measurement disturbance from background activity.
// A reading of a true count t for event e is distributed as
//
//	t·(1 + N(0, Rel)) + |N(0, EventRel[e]·t)| + spike
//
// where Rel is the base jitter every counter shows (cycle drift, counter
// multiplexing), EventRel is per-event background contamination, and spike
// is an occasional large disturbance (a context switch landing inside the
// measured region) of size SpikeScale·EventRel[e]·t.
type NoiseModel struct {
	// Rel is the relative jitter applied to every event.
	Rel float64
	// EventRel is the per-event relative scale of additive background
	// contamination.
	EventRel [NumEvents]float64
	// AbsFloor is a per-event absolute contamination floor (counts added by
	// background activity even when the measured process generates none,
	// e.g. write-backs from other processes landing in the counting window).
	AbsFloor [NumEvents]float64
	// SpikeProb is the per-reading probability of a contamination spike.
	SpikeProb float64
	// SpikeScale multiplies the additive contamination during a spike.
	SpikeScale float64
}

// DefaultNoise reflects the character of run-to-run `perf stat` variation
// on a desktop: high-rate events (instructions, branches) absorb lots of
// background activity; generic cache-references additionally counts
// speculative and prefetcher LLC probes, making it by far the noisiest
// cache event; demand-miss counts are comparatively quiet, with store-side
// (write-back) counts noisier than load-side ones because write-back timing
// depends on eviction pressure from other processes.
func DefaultNoise() NoiseModel {
	m := NoiseModel{Rel: 0.005, SpikeProb: 0.02, SpikeScale: 8}
	m.EventRel[Instructions] = 0.03
	m.EventRel[Branches] = 0.03
	m.EventRel[BranchMisses] = 0.05
	m.EventRel[CacheReferences] = 0.35
	m.EventRel[CacheMisses] = 0.004
	m.EventRel[L1DLoadMisses] = 0.01
	m.EventRel[L1ILoadMisses] = 0.02
	m.EventRel[LLCLoadMisses] = 0.006
	m.EventRel[LLCStoreMisses] = 0.04
	m.EventRel[DTLBLoadMisses] = 0.05
	m.AbsFloor[BranchMisses] = 6
	m.AbsFloor[LLCStoreMisses] = 10
	m.AbsFloor[L1ILoadMisses] = 2
	return m
}

// Sampler draws noisy readings of a true counter snapshot.
type Sampler struct {
	Model NoiseModel
	r     *rng.Rand
}

// NewSamplerFrom builds a sampler around an existing noise stream. It is the
// hook for per-sample noise re-keying: callers fork one stream per sample so
// that reading i is a pure function of (model, truth, seed, i) and therefore
// independent of which worker performs it.
func NewSamplerFrom(model NoiseModel, r *rng.Rand) *Sampler {
	return &Sampler{Model: model, r: r}
}

// Sample returns one noisy reading of the true counts.
func (s *Sampler) Sample(truth Counts) Counts {
	var out Counts
	for e := Event(0); e < NumEvents; e++ {
		t := truth[e]
		v := t * (1 + s.r.Normal(0, s.Model.Rel))
		contam := s.Model.EventRel[e]*t + s.Model.AbsFloor[e]
		if contam > 0 {
			n := s.r.Normal(0, contam)
			if n < 0 {
				n = -n
			}
			v += n
		}
		if s.r.Float64() < s.Model.SpikeProb {
			v += s.Model.SpikeScale * contam
		}
		if v < 0 {
			v = 0
		}
		out[e] = v
	}
	return out
}

// MeasureMean simulates the paper's protocol: read the counters R times and
// keep the per-event mean (Section 5.2's Ē statistics).
func (s *Sampler) MeasureMean(truth Counts, repeats int) Counts {
	if repeats <= 0 {
		panic("hpc: non-positive repeat count")
	}
	var acc Counts
	for i := 0; i < repeats; i++ {
		one := s.Sample(truth)
		for e := range acc {
			acc[e] += one[e]
		}
	}
	for e := range acc {
		acc[e] /= float64(repeats)
	}
	return acc
}

// MarshalText lets events serve as JSON map keys and text fields.
func (e Event) MarshalText() ([]byte, error) { return []byte(e.String()), nil }

// UnmarshalText parses the perf spelling of an event.
func (e *Event) UnmarshalText(b []byte) error {
	ev, err := ParseEvent(string(b))
	if err != nil {
		return err
	}
	*e = ev
	return nil
}
