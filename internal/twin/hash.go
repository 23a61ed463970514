package twin

import (
	"fmt"
	"math"

	"advhunter/internal/engine"
	"advhunter/internal/models"
	"advhunter/internal/nn"
)

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

type fnv64 uint64

func (h *fnv64) word(v uint64) {
	*h ^= fnv64(v)
	*h *= fnvPrime
}

func (h *fnv64) str(s string) {
	h.word(uint64(len(s)))
	for i := 0; i < len(s); i++ {
		h.word(uint64(s[i]))
	}
}

// ModelHash fingerprints a model's architecture and parameters: FNV-1a over
// the input/output metadata, every layer name in walk order, and each
// parameter's name, shape and exact float64 bits. A retrained, rebuilt or
// differently-shaped model changes the hash, silently invalidating any twin
// table profiled from the old one.
func ModelHash(m *models.Model) uint64 {
	h := fnv64(fnvOffset)
	h.str(m.Meta.Arch)
	h.word(uint64(m.Meta.InC))
	h.word(uint64(m.Meta.InH))
	h.word(uint64(m.Meta.InW))
	h.word(uint64(m.Meta.Classes))
	m.Net.Walk(func(l nn.Layer) {
		h.str(l.Name())
		for _, p := range l.Params() {
			h.str(p.Name)
			for _, d := range p.Value.Shape() {
				h.word(uint64(d))
			}
			for _, v := range p.Value.Data() {
				h.word(math.Float64bits(v))
			}
		}
	})
	return uint64(h)
}

// MachineHash fingerprints a machine configuration. Value-typed parts
// (cache geometries, TLB, quantization, co-runner) hash by content; the
// pluggable prefetcher hashes by dynamic type, which is what distinguishes
// configurations in practice — its tuning fields are fixed per type in this
// codebase.
//
// The literals "bp=<nil>" and "scalar=false" are the terms of a
// configurable branch predictor (always unset, so always the engine's
// gshare) and of a replay-mode switch, both of which the engine no longer
// has. They stay so that the hashed text, and with it every committed twin
// table's key, is unchanged; dropping them would make those tables miss and
// force a re-profile at start-up.
func MachineHash(cfg engine.MachineConfig) uint64 {
	h := fnv64(fnvOffset)
	h.str(fmt.Sprintf("l1i=%#v l1d=%#v l2=%#v llc=%#v dtlb=%#v pf=%T bp=<nil> branchy=%v q=%d co=%#v scalar=false",
		cfg.Hierarchy.L1I, cfg.Hierarchy.L1D, cfg.Hierarchy.L2, cfg.Hierarchy.LLC,
		cfg.Hierarchy.DTLB, cfg.Hierarchy.L1DPrefetcher,
		cfg.BranchyKernels, cfg.QuantLevels, cfg.CoRunner))
	return uint64(h)
}
