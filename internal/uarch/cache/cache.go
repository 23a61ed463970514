// Package cache implements the memory-hierarchy model of the simulated
// machine: set-associative write-back, write-allocate caches with pluggable
// replacement policies (LRU, tree-PLRU, SRRIP, random), optional next-line
// and stride prefetchers, and a composable multi-level hierarchy (L1I, L1D,
// unified L2, LLC) whose per-level statistics back the perf-style events in
// internal/uarch/hpc.
//
// The model is a trace-driven functional simulator: it tracks tags and
// dirtiness, not data or timing. That is exactly the fidelity Hardware
// Performance Counters expose — event *counts* — which is all AdvHunter
// consumes.
package cache

import (
	"fmt"
	"math/bits"

	"advhunter/internal/rng"
)

// AccessKind distinguishes demand loads, stores and instruction fetches.
type AccessKind int

// Access kinds. Prefetch fills a line like a load but is accounted
// separately so prefetching reduces (rather than relabels) demand misses.
const (
	Load AccessKind = iota
	Store
	Fetch
	Prefetch
)

// String names the access kind.
func (k AccessKind) String() string {
	switch k {
	case Load:
		return "load"
	case Store:
		return "store"
	case Fetch:
		return "fetch"
	case Prefetch:
		return "prefetch"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Policy selects the replacement strategy of a cache.
type Policy int

// Replacement policies.
const (
	LRU Policy = iota
	PLRU
	SRRIP
	Random
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case LRU:
		return "lru"
	case PLRU:
		return "plru"
	case SRRIP:
		return "srrip"
	case Random:
		return "random"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// Config describes one cache level.
type Config struct {
	Name   string
	SizeB  int // total capacity in bytes
	Ways   int
	LineB  int // line size in bytes (power of two)
	Policy Policy
	// Seed drives the Random policy (ignored otherwise).
	Seed uint64
}

// Sets returns the number of sets implied by the configuration.
func (c Config) Sets() int { return c.SizeB / (c.Ways * c.LineB) }

// Validate panics on degenerate configurations.
func (c Config) Validate() {
	if c.SizeB <= 0 || c.Ways <= 0 || c.LineB <= 0 {
		panic(fmt.Sprintf("cache: non-positive geometry in %+v", c))
	}
	if c.LineB&(c.LineB-1) != 0 {
		panic(fmt.Sprintf("cache: line size %d not a power of two", c.LineB))
	}
	if c.SizeB%(c.Ways*c.LineB) != 0 || c.Sets() == 0 {
		panic(fmt.Sprintf("cache: size %dB not divisible into %d ways of %dB lines", c.SizeB, c.Ways, c.LineB))
	}
	if s := c.Sets(); s&(s-1) != 0 {
		panic(fmt.Sprintf("cache: set count %d not a power of two", s))
	}
}

// Stats counts the events observed at one cache level.
type Stats struct {
	Accesses       uint64
	Hits           uint64
	Misses         uint64
	LoadMisses     uint64
	StoreMisses    uint64
	FetchMisses    uint64
	PrefetchMisses uint64
	Evictions      uint64
	WriteBacks     uint64
}

// Level is anything that can absorb a memory access: a lower cache or DRAM.
type Level interface {
	Access(addr uint64, kind AccessKind)
}

// Memory is the terminal level; it only counts traffic.
type Memory struct {
	Accesses uint64
}

// Access counts one DRAM transaction.
func (m *Memory) Access(addr uint64, kind AccessKind) { m.Accesses++ }

// Reset clears the DRAM counter.
func (m *Memory) Reset() { m.Accesses = 0 }

// line is one cache line's metadata.
type line struct {
	valid bool
	dirty bool
	tag   uint64
	// lru is the RRPV for SRRIP and the recency stamp for the TLB; the
	// cache-level LRU policy keeps an explicit recency list instead.
	lru uint64
}

// Cache is one set-associative level.
type Cache struct {
	cfg      Config
	Next     Level
	sets     []line // Sets()*Ways entries, set-major
	plruBits []uint64
	rand     *rng.Rand
	stats    Stats
	shift    uint
	setMask  uint64

	// mru[s] is the way of set s touched most recently (hit or fill). A
	// demand access probes it before the full way scan; tags are unique
	// within a set, so the probe finds exactly the way the scan would and
	// replacement state sees the identical update. It is purely a search
	// shortcut for the L1 re-touch pattern of the conv inner loop.
	mru []int16
	// fillCount[s] is the number of valid ways in set s. Lines only become
	// valid (fills) and are never invalidated outside Reset, so the valid
	// ways always form the prefix [0, fillCount) and the "first invalid
	// way" victim scan reduces to reading the counter.
	fillCount []int16
	// Per-set recency list for the LRU policy (head = most recent, tail =
	// least). The list order is exactly descending order of the global
	// timestamps the previous implementation stamped on touch/insert —
	// timestamps were unique, so the tail is precisely the way the
	// min-timestamp scan picked, found in O(1) instead of O(ways).
	lruHead, lruTail []int16
	lruNext, lruPrev []int16 // indexed set*Ways+way; -1 terminates

	// sig packs one signature byte per way (wpset words per set): the eight
	// tag bits just above the set index, the first bits that differ between
	// tags competing for one set. A probe broadcasts the lookup signature and
	// finds candidate ways with a SWAR zero-byte scan, so the common miss
	// costs a couple of word ops instead of a full way walk. Candidates are
	// re-verified against the real tag (valid ways hold unique tags, unfilled
	// ways read as signature 0), so the index can only save work, never
	// change an outcome.
	sig      []uint64
	wpset    int
	sigShift uint
}

// New builds a cache level on top of next.
func New(cfg Config, next Level) *Cache {
	cfg.Validate()
	if next == nil {
		panic("cache: nil next level")
	}
	sets := cfg.Sets()
	wpset := (cfg.Ways + 7) / 8
	c := &Cache{
		cfg:       cfg,
		Next:      next,
		sets:      make([]line, sets*cfg.Ways),
		shift:     uint(bits.TrailingZeros(uint(cfg.LineB))),
		setMask:   uint64(sets - 1),
		mru:       make([]int16, sets),
		fillCount: make([]int16, sets),
		sig:       make([]uint64, sets*wpset),
		wpset:     wpset,
		sigShift:  uint(bits.Len(uint(sets - 1))),
	}
	if cfg.Policy == PLRU {
		c.plruBits = make([]uint64, sets)
	}
	if cfg.Policy == LRU {
		c.lruHead = make([]int16, sets)
		c.lruTail = make([]int16, sets)
		c.lruNext = make([]int16, sets*cfg.Ways)
		c.lruPrev = make([]int16, sets*cfg.Ways)
		for i := range c.lruHead {
			c.lruHead[i], c.lruTail[i] = -1, -1
		}
	}
	if cfg.Policy == Random {
		c.rand = rng.New(cfg.Seed ^ 0xcafef00d)
	}
	return c
}

// Config returns the level's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a copy of the level's counters.
func (c *Cache) Stats() Stats { return c.stats }

// Reset invalidates all lines and clears statistics, returning the cache to
// a cold state. The Random policy stream is NOT reset so repeated
// measurements see fresh victim choices.
func (c *Cache) Reset() {
	for i := range c.sets {
		c.sets[i] = line{}
	}
	for i := range c.plruBits {
		c.plruBits[i] = 0
	}
	for i := range c.mru {
		c.mru[i] = 0
	}
	for i := range c.fillCount {
		c.fillCount[i] = 0
	}
	for i := range c.lruHead {
		c.lruHead[i], c.lruTail[i] = -1, -1
	}
	for i := range c.sig {
		c.sig[i] = 0
	}
	c.stats = Stats{}
}

// Access performs one demand access, recursing into lower levels on miss and
// on dirty-victim write-back.
func (c *Cache) Access(addr uint64, kind AccessKind) {
	c.access(addr, addr>>c.shift, kind)
}

// AccessRun performs n demand accesses of kind over the consecutive lines
// starting at base. It is behaviour-identical to calling Access once per
// line — same hits, misses, evictions, write-backs and replacement updates
// in the same order — but decomposes the address once and walks the tag in
// a tight loop.
func (c *Cache) AccessRun(base uint64, n int, kind AccessKind) {
	lineB := uint64(c.cfg.LineB)
	addr, tag := base, base>>c.shift
	for i := 0; i < n; i++ {
		c.access(addr, tag, kind)
		addr += lineB
		tag++
	}
}

func (c *Cache) access(addr, tag uint64, kind AccessKind) {
	c.stats.Accesses++
	set := tag & c.setMask
	base := int(set) * c.cfg.Ways

	// MRU short-circuit: the conv inner loop re-reads the same input rows
	// once per output channel, so the hottest line of a set is hit over and
	// over. The probe is re-verified (valid + tag), and a set never holds
	// two ways with one tag (fills happen only after a full-scan miss), so
	// a probe hit is exactly the hit the scan would have found.
	if m := int(c.mru[set]); c.sets[base+m].valid && c.sets[base+m].tag == tag {
		c.stats.Hits++
		c.touch(set, base, m)
		if kind == Store {
			c.sets[base+m].dirty = true
		}
		return
	}

	// Signature probe: broadcast the lookup byte and flag matching ways with
	// the SWAR zero-byte trick. False positives (and flagged bytes past the
	// last way, which read as 0) are rejected by the tag re-check; a verified
	// match is THE match, since valid tags are unique within a set.
	ways := c.sets[base : base+c.cfg.Ways]
	sigBase := int(set) * c.wpset
	bcast := uint64(uint8(tag>>c.sigShift)) * 0x0101010101010101
	for wi := 0; wi < c.wpset; wi++ {
		x := c.sig[sigBase+wi] ^ bcast
		m := (x - 0x0101010101010101) &^ x & 0x8080808080808080
		for m != 0 {
			w := wi<<3 + bits.TrailingZeros64(m)>>3
			if w < len(ways) && ways[w].valid && ways[w].tag == tag {
				c.stats.Hits++
				c.mru[set] = int16(w)
				c.touch(set, base, w)
				if kind == Store {
					ways[w].dirty = true
				}
				return
			}
			m &= m - 1
		}
	}

	// Miss.
	c.stats.Misses++
	switch kind {
	case Load:
		c.stats.LoadMisses++
	case Store:
		c.stats.StoreMisses++
	case Fetch:
		c.stats.FetchMisses++
	case Prefetch:
		c.stats.PrefetchMisses++
	}
	victim := c.victim(set, base, ways)
	if ways[victim].valid {
		c.stats.Evictions++
		if ways[victim].dirty {
			c.stats.WriteBacks++
			c.nextAccess(ways[victim].tag<<c.shift, Store)
		}
	} else {
		c.fillCount[set]++
	}
	// Fill from below (write-allocate: stores also fetch the line).
	fillKind := Load
	if kind == Fetch {
		fillKind = Fetch
	}
	c.nextAccess(addr, fillKind)
	ways[victim] = line{valid: true, dirty: kind == Store, tag: tag}
	sw := sigBase + victim>>3
	sh := uint(victim&7) * 8
	c.sig[sw] = c.sig[sw]&^(0xff<<sh) | uint64(uint8(tag>>c.sigShift))<<sh
	c.mru[set] = int16(victim)
	c.insert(set, base, victim)
}

// nextAccess forwards a miss-path transaction to the next level. The type
// assertion devirtualises the common cache-below-cache case (skipping the
// interface dispatch and the exported wrapper) while still reading Next at
// call time, so tests that interpose a recording Level keep working.
func (c *Cache) nextAccess(addr uint64, kind AccessKind) {
	if nc, ok := c.Next.(*Cache); ok {
		nc.access(addr, addr>>nc.shift, kind)
	} else {
		c.Next.Access(addr, kind)
	}
}

// touch updates replacement metadata on a hit.
func (c *Cache) touch(set uint64, base, w int) {
	switch c.cfg.Policy {
	case LRU:
		// Head check here keeps the dominant already-most-recent hit free of
		// the list-surgery call.
		if int(c.lruHead[set]) != w {
			c.lruMoveFront(set, base, w)
		}
	case PLRU:
		c.plruTouch(set, w)
	case SRRIP:
		c.sets[base+w].lru = 0 // promote to near-immediate re-reference
	case Random:
		// stateless
	}
}

// insert initialises replacement metadata for a newly filled way. For LRU
// the way is never on the list here: either it was invalid (first fill) or
// it is the evicted tail, which victim unlinked.
func (c *Cache) insert(set uint64, base, w int) {
	switch c.cfg.Policy {
	case LRU:
		c.lruPushFront(set, base, w)
	case PLRU:
		c.plruTouch(set, w)
	case SRRIP:
		c.sets[base+w].lru = 2 // long re-reference interval on insertion
	case Random:
	}
}

// victim selects the way to replace in the set. It is only called on the
// miss path, and the caller always refills the returned way immediately.
func (c *Cache) victim(set uint64, base int, ways []line) int {
	// Invalid ways first, for every policy: fills land at increasing way
	// indices, so the first invalid way is exactly fillCount.
	if f := int(c.fillCount[set]); f < c.cfg.Ways {
		return f
	}
	switch c.cfg.Policy {
	case LRU:
		// The recency-list tail; unlink it here so insert can push the
		// refilled way back to the front unconditionally.
		w := int(c.lruTail[set])
		p := c.lruPrev[base+w]
		c.lruTail[set] = p
		if p >= 0 {
			c.lruNext[base+int(p)] = -1
		} else {
			c.lruHead[set] = -1
		}
		return w
	case PLRU:
		return c.plruVictim(set)
	case SRRIP:
		// Find (aging as needed) a way with maximal RRPV (3).
		for {
			for w := range ways {
				if ways[w].lru >= 3 {
					return w
				}
			}
			for w := range ways {
				ways[w].lru++
			}
		}
	case Random:
		return c.rand.Intn(len(ways))
	}
	return 0
}

// lruPushFront links w (currently unlinked) at the head of set's recency
// list.
func (c *Cache) lruPushFront(set uint64, base, w int) {
	h := c.lruHead[set]
	c.lruNext[base+w] = h
	c.lruPrev[base+w] = -1
	if h >= 0 {
		c.lruPrev[base+int(h)] = int16(w)
	} else {
		c.lruTail[set] = int16(w)
	}
	c.lruHead[set] = int16(w)
}

// lruMoveFront moves an on-list way to the head of set's recency list.
func (c *Cache) lruMoveFront(set uint64, base, w int) {
	if int(c.lruHead[set]) == w {
		return
	}
	p, n := c.lruPrev[base+w], c.lruNext[base+w] // p >= 0: w is not the head
	c.lruNext[base+int(p)] = n
	if n >= 0 {
		c.lruPrev[base+int(n)] = p
	} else {
		c.lruTail[set] = p
	}
	c.lruPushFront(set, base, w)
}

// plruTouch flips the tree bits along w's path so the path points away.
func (c *Cache) plruTouch(set uint64, w int) {
	bitsState := c.plruBits[set]
	node := 0
	levels := bits.Len(uint(c.cfg.Ways)) - 1
	for level := 0; level < levels; level++ {
		bit := (w >> (levels - 1 - level)) & 1
		if bit == 0 {
			bitsState |= 1 << uint(node) // point right (away from taken left path)
			node = 2*node + 1
		} else {
			bitsState &^= 1 << uint(node) // point left
			node = 2*node + 2
		}
	}
	c.plruBits[set] = bitsState
}

// plruVictim follows the tree bits to the pseudo-LRU way.
func (c *Cache) plruVictim(set uint64) int {
	bitsState := c.plruBits[set]
	node, w := 0, 0
	levels := bits.Len(uint(c.cfg.Ways)) - 1
	for level := 0; level < levels; level++ {
		if bitsState&(1<<uint(node)) != 0 { // points right
			w = w<<1 | 1
			node = 2*node + 2
		} else {
			w = w << 1
			node = 2*node + 1
		}
	}
	return w
}
