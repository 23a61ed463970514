package core

import (
	"encoding/binary"
	"hash/maphash"
	"math"
	"sync"
	"time"
	"unsafe"

	"advhunter/internal/tensor"
	"advhunter/internal/uarch/hpc"
)

// Fingerprint hashes a tensor's shape and exact float64 contents (FNV-1a over
// the raw bit patterns). It is unkeyed and cheap to invert: each step is
// (h ^ w) * prime with an invertible prime, so a client can pick its last
// pixel to land any input on any chosen fingerprint. It is therefore only
// fit for affinity routing, where a collision costs cache locality and
// nothing else; never key state that decides a verdict by it — the truth
// cache uses the seeded TruthCache.Key instead.
func Fingerprint(x *tensor.Tensor) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	h ^= uint64(x.Rank())
	h *= prime
	for _, d := range x.Shape() {
		h ^= uint64(d)
		h *= prime
	}
	for _, v := range x.Data() {
		h ^= math.Float64bits(v)
		h *= prime
	}
	return h
}

// Truth is the noise-free outcome of one simulated inference: the hard-label
// prediction, its softmax confidence, and the true HPC counts. It is the part
// of a measurement that is a pure function of the input — everything the
// noise protocol adds on top is keyed by the sample index, not the input.
type Truth struct {
	Pred   int
	Conf   float64
	Counts hpc.Counts
}

// TruthCacheStats reports cache effectiveness.
type TruthCacheStats struct {
	Hits   uint64
	Misses uint64
}

// TruthCache memoises Truth values by input key (see Key) with LRU
// eviction. It is safe for concurrent use — serve workers measuring on
// separate engine replicas share one cache, so a repeated query pays the
// simulated inference only once regardless of which worker sees it.
type TruthCache struct {
	seed  maphash.Seed // per-cache secret keying Key
	mu    sync.Mutex
	cap   int
	index map[uint64]int
	slots []truthSlot
	head  int // most recently used; -1 when empty
	tail  int // least recently used; -1 when empty
	stats TruthCacheStats
}

type truthSlot struct {
	key        uint64
	truth      Truth
	prev, next int
}

// NewTruthCache builds a cache holding up to capacity entries. A capacity
// <= 0 returns nil, and a nil *TruthCache is a valid "always miss, never
// store" cache for every method, so callers can thread an optional cache
// without branching.
func NewTruthCache(capacity int) *TruthCache {
	if capacity <= 0 {
		return nil
	}
	return &TruthCache{
		seed:  maphash.MakeSeed(),
		cap:   capacity,
		index: make(map[uint64]int, capacity),
		head:  -1,
		tail:  -1,
	}
}

// Key is x's cache key: a maphash, under the cache's per-process random
// seed, of x's rank, shape and raw float64 bit patterns (so -0/+0 and NaN
// payloads are distinguished exactly like the engine would distinguish
// them). A client that cannot see the seed cannot aim an input at another
// input's key, which is what makes serving a hit without comparing inputs
// sound: the simulated engine is deterministic, so equal inputs imply equal
// (pred, conf, counts), and unequal ones collide only by 64-bit chance. A
// nil cache keys everything 0.
func (c *TruthCache) Key(x *tensor.Tensor) uint64 {
	if c == nil {
		return 0
	}
	// The data is hashed as the float64s' own bytes — their bit patterns —
	// in one call, which is several times faster than re-encoding them.
	data := x.Data()
	raw := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(data))), 8*len(data))
	var buf [64]byte
	b := binary.LittleEndian.AppendUint64(buf[:0], uint64(x.Rank()))
	for _, d := range x.Shape() {
		b = binary.LittleEndian.AppendUint64(b, uint64(d))
	}
	b = binary.LittleEndian.AppendUint64(b, maphash.Bytes(c.seed, raw))
	return maphash.Bytes(c.seed, b)
}

// Get returns the memoised truth for key, marking the entry most recently
// used.
func (c *TruthCache) Get(key uint64) (Truth, bool) {
	if c == nil {
		return Truth{}, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	i, ok := c.index[key]
	if !ok {
		c.stats.Misses++
		return Truth{}, false
	}
	c.stats.Hits++
	c.moveFront(i)
	return c.slots[i].truth, true
}

// Put stores the truth for key, evicting the least recently used entry at
// capacity. Storing an existing key refreshes its recency (the truth
// is identical by construction — it is a pure function of the input).
func (c *TruthCache) Put(key uint64, t Truth) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if i, ok := c.index[key]; ok {
		c.slots[i].truth = t
		c.moveFront(i)
		return
	}
	var i int
	if len(c.slots) < c.cap {
		i = len(c.slots)
		c.slots = append(c.slots, truthSlot{})
	} else {
		i = c.tail
		c.unlink(i)
		delete(c.index, c.slots[i].key)
	}
	c.slots[i] = truthSlot{key: key, truth: t, prev: -1, next: -1}
	c.pushFront(i)
	c.index[key] = i
}

// Len returns the number of resident entries.
func (c *TruthCache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.index)
}

// Bytes reports the cache's approximate resident size: the slot array
// (key, truth, recency links) plus a per-entry share of the index
// map. It is an accounting estimate for capacity planning — the
// advhunter_*_cache_bytes gauges — not an exact heap measurement.
func (c *TruthCache) Bytes() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	// One slot: key (8) + Truth{Pred, Conf, Counts} (16 + 8·NumEvents) +
	// prev/next (16). One index entry: key + value + bucket overhead ≈ 48.
	const slotBytes = 8 + 16 + 8*int(hpc.NumEvents) + 16
	const indexBytes = 48
	return len(c.slots)*slotBytes + len(c.index)*indexBytes
}

// Stats returns a snapshot of the hit/miss counters.
func (c *TruthCache) Stats() TruthCacheStats {
	if c == nil {
		return TruthCacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// unlink removes slot i from the recency list.
func (c *TruthCache) unlink(i int) {
	s := &c.slots[i]
	if s.prev >= 0 {
		c.slots[s.prev].next = s.next
	} else {
		c.head = s.next
	}
	if s.next >= 0 {
		c.slots[s.next].prev = s.prev
	} else {
		c.tail = s.prev
	}
	s.prev, s.next = -1, -1
}

// pushFront links slot i (currently unlinked) as most recently used.
func (c *TruthCache) pushFront(i int) {
	c.slots[i].prev = -1
	c.slots[i].next = c.head
	if c.head >= 0 {
		c.slots[c.head].prev = i
	} else {
		c.tail = i
	}
	c.head = i
}

// moveFront marks slot i most recently used.
func (c *TruthCache) moveFront(i int) {
	if c.head == i {
		return
	}
	c.unlink(i)
	c.pushFront(i)
}

// MeasureAtCached is MeasureAt with truth-count memoisation: the noise-free
// inference outcome is looked up in (or inserted into) cache by
// cache.Key(x), and the R noisy readings are then drawn from sample index i's
// stream exactly as MeasureAt would draw them. Because the noise is keyed by
// i — never by the truth's provenance — the returned Measurement is
// bit-identical to an uncached MeasureAt(i, x) on both hit and miss paths.
// The second return reports whether the truth came from the cache. A nil
// cache degrades to plain MeasureAt.
func (m *Measurer) MeasureAtCached(cache *TruthCache, i uint64, x *tensor.Tensor) (Measurement, bool) {
	if cache == nil {
		return m.MeasureAt(i, x), false
	}
	var start time.Time
	if m.Observe != nil {
		start = time.Now()
	}
	key := cache.Key(x)
	t, hit := cache.Get(key)
	if !hit {
		pred, conf, truth := m.Engine.InferConf(x)
		t = Truth{Pred: pred, Conf: conf, Counts: truth}
		cache.Put(key, t)
	}
	meas := Measurement{
		Pred:      t.Pred,
		TrueLabel: -1,
		Counts:    m.noiseAt(i).MeasureMean(t.Counts, m.R),
		Conf:      t.Conf,
	}
	if m.Observe != nil {
		m.Observe(time.Since(start), meas)
	}
	return meas, hit
}
