package cache

// Prefetcher issues speculative fills into a cache level after demand
// accesses. Prefetch traffic is modelled as ordinary fills (it displaces
// lines and can generate lower-level traffic) but is not counted as a demand
// access by callers of Hierarchy.
type Prefetcher interface {
	// Observe is called with each demand access address (line-aligned) and
	// whether it missed; the prefetcher may issue fills into the target.
	Observe(addr uint64, miss bool, target Level)
	// Fork returns an independent prefetcher of the same configuration in its
	// power-on state, so concurrent hierarchy replicas built from one shared
	// HierarchyConfig do not share stride/confidence state.
	Fork() Prefetcher
	// Reset returns the prefetcher to its power-on state in place, without
	// allocating. Equivalent to replacing it with Fork()'s result.
	Reset()
}

// NextLinePrefetcher fetches addr+LineB on every demand miss.
type NextLinePrefetcher struct {
	LineB int
	// Issued counts prefetches sent.
	Issued uint64
}

// Observe implements Prefetcher.
func (p *NextLinePrefetcher) Observe(addr uint64, miss bool, target Level) {
	if miss {
		p.Issued++
		target.Access(addr+uint64(p.LineB), Prefetch)
	}
}

// Fork implements Prefetcher.
func (p *NextLinePrefetcher) Fork() Prefetcher {
	return &NextLinePrefetcher{LineB: p.LineB}
}

// Reset implements Prefetcher.
func (p *NextLinePrefetcher) Reset() { p.Issued = 0 }

// StridePrefetcher detects a constant line stride over recent accesses and
// runs ahead by Degree lines once locked.
type StridePrefetcher struct {
	LineB  int
	Degree int
	// Issued counts prefetches sent.
	Issued uint64

	last   uint64
	stride int64
	conf   int
}

// Observe implements Prefetcher.
func (p *StridePrefetcher) Observe(addr uint64, miss bool, target Level) {
	if p.last != 0 {
		s := int64(addr) - int64(p.last)
		if s == p.stride && s != 0 {
			if p.conf < 3 {
				p.conf++
			}
		} else {
			p.stride = s
			p.conf = 0
		}
	}
	p.last = addr
	if p.conf >= 2 && p.stride != 0 {
		degree := p.Degree
		if degree <= 0 {
			degree = 2
		}
		for d := 1; d <= degree; d++ {
			p.Issued++
			target.Access(uint64(int64(addr)+p.stride*int64(d)), Prefetch)
		}
	}
}

// Fork implements Prefetcher.
func (p *StridePrefetcher) Fork() Prefetcher {
	return &StridePrefetcher{LineB: p.LineB, Degree: p.Degree}
}

// Reset implements Prefetcher.
func (p *StridePrefetcher) Reset() {
	p.Issued = 0
	p.last = 0
	p.stride = 0
	p.conf = 0
}

// HierarchyConfig describes the full simulated memory system.
type HierarchyConfig struct {
	L1I, L1D, L2, LLC Config
	// L1DPrefetcher optionally attaches a prefetcher to the L1 data cache.
	L1DPrefetcher Prefetcher
	// DTLB configures the data TLB. A zero-valued config disables it.
	DTLB TLBConfig
}

// DefaultHierarchyConfig models a scaled-down desktop part (the paper used
// an Intel i7-9700). Capacities are shrunk in proportion to the lite models'
// working sets so the LLC is contended the way a full-size model contends a
// full-size LLC.
func DefaultHierarchyConfig() HierarchyConfig {
	return HierarchyConfig{
		L1I:  Config{Name: "L1I", SizeB: 8 << 10, Ways: 4, LineB: 64, Policy: LRU},
		L1D:  Config{Name: "L1D", SizeB: 8 << 10, Ways: 8, LineB: 64, Policy: LRU},
		L2:   Config{Name: "L2", SizeB: 64 << 10, Ways: 8, LineB: 64, Policy: LRU},
		LLC:  Config{Name: "LLC", SizeB: 64 << 10, Ways: 16, LineB: 64, Policy: LRU},
		DTLB: DefaultDTLBConfig(),
	}
}

// Hierarchy wires L1I and L1D above a unified L2 above the LLC above DRAM,
// and adds the zero-content-aware (ZCA) front-end: loads and stores of cache
// lines whose data is entirely zero are satisfied by a zero-line tag
// structure and never move data (Dusser et al., ICS'09). The instrumented
// engine decides zero-ness from actual activation values.
type Hierarchy struct {
	L1I, L1D, L2, LLC *Cache
	// DTLB is the data TLB (nil when disabled). Every demand data access —
	// including those the ZCA structure absorbs — is translated first,
	// since the zero-line tags are physically indexed; translation traffic
	// is therefore (nearly) input-independent.
	DTLB       *TLB
	Mem        *Memory
	prefetcher Prefetcher

	// ZeroLoads and ZeroStores count accesses absorbed by the ZCA buffer.
	ZeroLoads  uint64
	ZeroStores uint64
}

// NewHierarchy builds the four-level system. The configured L1D prefetcher,
// if any, is forked so that hierarchies built from one shared config never
// share prefetcher state.
func NewHierarchy(cfg HierarchyConfig) *Hierarchy {
	mem := &Memory{}
	llc := New(cfg.LLC, mem)
	l2 := New(cfg.L2, llc)
	var pf Prefetcher
	if cfg.L1DPrefetcher != nil {
		pf = cfg.L1DPrefetcher.Fork()
	}
	h := &Hierarchy{
		L1I:        New(cfg.L1I, l2),
		L1D:        New(cfg.L1D, l2),
		L2:         l2,
		LLC:        llc,
		Mem:        mem,
		prefetcher: pf,
	}
	if cfg.DTLB.Entries > 0 {
		h.DTLB = NewTLB(cfg.DTLB, l2)
	}
	return h
}

// Load issues a demand data load. zero marks the line as all-zero content,
// which the ZCA front-end absorbs.
func (h *Hierarchy) Load(addr uint64, zero bool) {
	if h.DTLB != nil {
		h.DTLB.Translate(addr)
	}
	if zero {
		h.ZeroLoads++
		return
	}
	before := h.L1D.stats.Misses
	h.L1D.Access(addr, Load)
	if h.prefetcher != nil {
		h.prefetcher.Observe(addr, h.L1D.stats.Misses != before, h.L1D)
	}
}

// Store issues a demand data store; all-zero lines are absorbed by the ZCA
// tag structure.
func (h *Hierarchy) Store(addr uint64, zero bool) {
	if h.DTLB != nil {
		h.DTLB.Translate(addr)
	}
	if zero {
		h.ZeroStores++
		return
	}
	h.L1D.Access(addr, Store)
}

// Fetch issues an instruction fetch.
func (h *Hierarchy) Fetch(addr uint64) {
	h.L1I.Access(addr, Fetch)
}

// LoadRun issues n demand loads over the consecutive lines starting at base
// (which must be line-aligned). zero, when non-nil, marks per line whether
// its content is all zero, in which case the ZCA front-end absorbs it. The
// run is behaviour-identical to n Load calls. Per-line event order —
// translate, then ZCA check, then L1D access, then prefetcher observation —
// is part of the contract, because DTLB walks inject page-table traffic into
// the L2 and reordering them against demand fills would change its state and
// therefore the counts. The run is therefore processed one page segment at a
// time: the segment's translations run first (only the first can miss and
// walk; the rest are guaranteed hits with no L2 side effects, so hoisting
// them above the segment's data accesses is invisible), then the segment's
// data accesses — which keeps every walk ordered against demand traffic
// exactly as the scalar interleaving would.
func (h *Hierarchy) LoadRun(base uint64, n int, zero []bool) {
	lineB, lineShift := uint64(h.L1D.cfg.LineB), h.L1D.shift
	dtlb, l1d, pf := h.DTLB, h.L1D, h.prefetcher
	addr, i := base, 0
	for i < n {
		k := n - i
		if dtlb != nil {
			if linesLeft := int((dtlb.pageEnd(addr) - addr) >> lineShift); linesLeft < k {
				k = linesLeft
			}
			dtlb.TranslateRun(addr, lineShift, k)
		}
		if zero == nil && pf == nil {
			// Weight streams: no ZCA mask, no prefetcher — hand the whole
			// segment to the tight tag-walking loop.
			l1d.AccessRun(addr, k, Load)
			addr += uint64(k) * lineB
		} else {
			for j := 0; j < k; j++ {
				if zero != nil && zero[i+j] {
					h.ZeroLoads++
				} else if pf != nil {
					before := l1d.stats.Misses
					l1d.Access(addr, Load)
					pf.Observe(addr, l1d.stats.Misses != before, l1d)
				} else {
					l1d.Access(addr, Load)
				}
				addr += lineB
			}
		}
		i += k
	}
}

// StoreRun issues n demand stores over the consecutive lines starting at
// base, behaviour-identical to n Store calls (see LoadRun for the page-
// segment ordering argument).
func (h *Hierarchy) StoreRun(base uint64, n int, zero []bool) {
	lineB, lineShift := uint64(h.L1D.cfg.LineB), h.L1D.shift
	dtlb, l1d := h.DTLB, h.L1D
	addr, i := base, 0
	for i < n {
		k := n - i
		if dtlb != nil {
			if linesLeft := int((dtlb.pageEnd(addr) - addr) >> lineShift); linesLeft < k {
				k = linesLeft
			}
			dtlb.TranslateRun(addr, lineShift, k)
		}
		if zero == nil {
			l1d.AccessRun(addr, k, Store)
			addr += uint64(k) * lineB
		} else {
			for j := 0; j < k; j++ {
				if zero[i+j] {
					h.ZeroStores++
				} else {
					l1d.Access(addr, Store)
				}
				addr += lineB
			}
		}
		i += k
	}
}

// FetchRun issues n instruction fetches over the consecutive lines starting
// at base.
func (h *Hierarchy) FetchRun(base uint64, n int) {
	h.L1I.AccessRun(base, n, Fetch)
}

// Reset returns every level (and the ZCA counters) to a cold state. The
// prefetcher is reset to its power-on state so that stride/confidence
// carry-over cannot leak one measurement's access pattern into the next —
// each post-Reset run is a pure function of the inference it observes.
func (h *Hierarchy) Reset() {
	h.L1I.Reset()
	h.L1D.Reset()
	h.L2.Reset()
	h.LLC.Reset()
	if h.prefetcher != nil {
		h.prefetcher.Reset()
	}
	if h.DTLB != nil {
		h.DTLB.Reset()
	}
	h.Mem.Reset()
	h.ZeroLoads = 0
	h.ZeroStores = 0
}
