package cache

import "math/bits"

// TLBConfig describes a set-associative translation look-aside buffer.
type TLBConfig struct {
	Name    string
	Entries int
	Ways    int
	// PageB is the page size in bytes (power of two; 4 KiB by default).
	PageB int
}

// DefaultDTLBConfig models a small first-level data TLB.
func DefaultDTLBConfig() TLBConfig {
	return TLBConfig{Name: "dTLB", Entries: 64, Ways: 4, PageB: 4096}
}

// Validate panics on degenerate configurations.
func (c TLBConfig) Validate() {
	if c.Entries <= 0 || c.Ways <= 0 || c.PageB <= 0 {
		panic("cache: non-positive TLB geometry")
	}
	if c.PageB&(c.PageB-1) != 0 {
		panic("cache: TLB page size not a power of two")
	}
	if c.Entries%c.Ways != 0 {
		panic("cache: TLB entries not divisible by ways")
	}
	sets := c.Entries / c.Ways
	if sets&(sets-1) != 0 {
		panic("cache: TLB set count not a power of two")
	}
}

// TLBStats counts translation activity.
type TLBStats struct {
	Accesses uint64
	Hits     uint64
	Misses   uint64
	// Walks counts page-table walks (one per miss).
	Walks uint64
}

// TLB is an LRU set-associative translation buffer. A miss triggers a page
// walk, modelled as WalkLevels loads of page-table lines through the walk
// target (the unified L2 in the default hierarchy), so translation misses
// pollute the caches exactly like hardware walkers do.
type TLB struct {
	cfg     TLBConfig
	entries []line
	tick    uint64
	stats   TLBStats
	shift   uint
	setMask uint64
	// WalkTarget absorbs page-walk memory traffic (nil disables the walk
	// side effects; misses are still counted).
	WalkTarget Level
	// WalkLevels is the number of page-table levels touched per walk.
	WalkLevels int
	// walkTableBase is where the simulated page tables live.
	walkTableBase uint64

	// lastPage/lastSlot memoise the most recent translation. Spans walk
	// consecutive lines within a page, so the common case re-translates the
	// page just translated. The slot is re-verified (valid + tag) before
	// use and page tags are unique per set, so the memo is only a search
	// shortcut — hit accounting and LRU stamping are identical to the scan.
	lastPage uint64
	lastSlot int32
}

// NewTLB builds the translation buffer.
func NewTLB(cfg TLBConfig, walkTarget Level) *TLB {
	cfg.Validate()
	sets := cfg.Entries / cfg.Ways
	return &TLB{
		cfg:           cfg,
		entries:       make([]line, cfg.Entries),
		shift:         uint(bits.TrailingZeros(uint(cfg.PageB))),
		setMask:       uint64(sets - 1),
		WalkTarget:    walkTarget,
		WalkLevels:    2,
		walkTableBase: 0x7f00_0000,
		lastSlot:      -1,
	}
}

// Stats returns a copy of the counters.
func (t *TLB) Stats() TLBStats { return t.stats }

// Reset restores the power-on state.
func (t *TLB) Reset() {
	for i := range t.entries {
		t.entries[i] = line{}
	}
	t.tick = 0
	t.stats = TLBStats{}
	t.lastPage, t.lastSlot = 0, -1
}

// Translate looks up the page of addr, walking the page table on a miss.
func (t *TLB) Translate(addr uint64) {
	t.stats.Accesses++
	page := addr >> t.shift
	if t.lastSlot >= 0 && page == t.lastPage {
		if e := &t.entries[t.lastSlot]; e.valid && e.tag == page {
			t.stats.Hits++
			t.tick++
			e.lru = t.tick
			return
		}
	}
	set := page & t.setMask
	base := int(set) * t.cfg.Ways
	ways := t.entries[base : base+t.cfg.Ways]
	for w := range ways {
		if ways[w].valid && ways[w].tag == page {
			t.stats.Hits++
			t.tick++
			ways[w].lru = t.tick
			t.lastPage, t.lastSlot = page, int32(base+w)
			return
		}
	}
	t.stats.Misses++
	t.stats.Walks++
	if t.WalkTarget != nil {
		// Each level of the walk reads one page-table line; the line
		// address is derived from the page number so distinct pages touch
		// distinct (but repeatable) table lines.
		for lvl := 0; lvl < t.WalkLevels; lvl++ {
			entry := t.walkTableBase + uint64(lvl)<<20 + (page>>(uint(lvl)*9))*8
			t.WalkTarget.Access(entry&^63, Load)
		}
	}
	victim := 0
	bestTick := ways[0].lru
	for w := range ways {
		if !ways[w].valid {
			victim = w
			break
		}
		if ways[w].lru < bestTick {
			victim, bestTick = w, ways[w].lru
		}
	}
	t.tick++
	ways[victim] = line{valid: true, tag: page, lru: t.tick}
	t.lastPage, t.lastSlot = page, int32(base+victim)
}

// pageEnd returns the first address past addr's page.
func (t *TLB) pageEnd(addr uint64) uint64 {
	return (addr>>t.shift + 1) << t.shift
}

// TranslateRun translates n consecutive lines of size 1<<lineShift starting
// at addr, leaving exactly the statistics, replacement state, and page-walk
// traffic of n individual Translate calls. After the first line of a page is
// translated its entry is resident and nothing else touches the TLB before
// the run's remaining same-page lines, so those are guaranteed hits whose
// only effects are counter increments and a recency restamp — they are
// accounted in bulk instead of re-probed one by one.
func (t *TLB) TranslateRun(addr uint64, lineShift uint, n int) {
	for n > 0 {
		t.Translate(addr)
		// Lines left in this page after addr's; each is a guaranteed hit on
		// the slot Translate just installed (lastSlot).
		k := int((t.pageEnd(addr) - addr) >> lineShift)
		if k > n {
			k = n
		}
		if k > 1 {
			// Scalar equivalent: k-1 × {Accesses++, Hits++, tick++, lru=tick}.
			t.stats.Accesses += uint64(k - 1)
			t.stats.Hits += uint64(k - 1)
			t.tick += uint64(k - 1)
			t.entries[t.lastSlot].lru = t.tick
		}
		addr += uint64(k) << lineShift
		n -= k
	}
}
