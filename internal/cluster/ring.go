// Package cluster is the multi-replica tier of the serving stack: N
// in-process serve.Server instances behind a fingerprint-affinity router,
// with a merged per-replica /metrics page.
//
// The design constraint comes from the truth cache: each replica memoises
// noise-free counts by query fingerprint, so a router that scattered repeats
// of the same query across replicas would multiply the simulated-inference
// cost by the replica count. Routing by fingerprint over a consistent-hash
// ring keeps every repeat on one replica, preserving single-replica cache
// locality while the fleet scales — the same sharded-state-without-losing-
// lookup-locality constraint Blacklight's per-client state tables face.
package cluster

import (
	"fmt"
	"sort"
)

// Ring is a consistent-hash ring over replica indices: each replica owns
// VNodes pseudo-random points on a uint64 circle, and a key is assigned to
// the replica owning the first point at or after the key's hash. Growing the
// fleet from n to n+1 replicas leaves replicas 0..n-1's points untouched, so
// only the keys falling into the new replica's arcs move (≈1/(n+1) of them),
// and removing the last replica moves only the keys it owned — the minimal-
// disruption property the rebalance tests pin.
type Ring struct {
	points []ringPoint // sorted by hash
}

type ringPoint struct {
	hash    uint64
	replica int
}

// DefaultVNodes balances assignment evenness against ring size: 64 points
// per replica keeps the per-replica key share within a few percent of 1/n
// for small fleets.
const DefaultVNodes = 64

// NewRing builds a ring of the given replica count with vnodes points per
// replica (0 selects DefaultVNodes).
func NewRing(replicas, vnodes int) *Ring {
	if replicas <= 0 {
		panic(fmt.Sprintf("cluster: ring needs at least one replica, got %d", replicas))
	}
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	r := &Ring{points: make([]ringPoint, 0, replicas*vnodes)}
	for rep := 0; rep < replicas; rep++ {
		for v := 0; v < vnodes; v++ {
			// Each vnode's position depends only on (replica, vnode), never on
			// the fleet size — the invariant minimal disruption rests on.
			h := mix64(uint64(rep)<<32 | uint64(v))
			r.points = append(r.points, ringPoint{hash: h, replica: rep})
		}
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
	return r
}

// Lookup assigns one key (a query fingerprint) to a replica: binary search
// for the first ring point at or after the key's mixed hash, wrapping past
// the top of the circle. The key is re-mixed so structure in fingerprints
// (nearby values, shared low bits) cannot correlate with vnode positions.
func (r *Ring) Lookup(key uint64) int {
	h := mix64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].replica
}

// mix64 is the splitmix64 finaliser: a cheap bijective mixer whose output
// bits are uniformly sensitive to every input bit.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
