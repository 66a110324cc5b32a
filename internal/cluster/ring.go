// Package cluster turns single-box privcountd instances into a
// shardable fleet. The paper's mechanisms are expensive to construct
// (LP and interior-point solves measured in seconds) but cheap and
// immutable to serve, which rewards building each mechanism once,
// cluster-wide, and replicating the finished artifact. Three pieces
// deliver that:
//
//   - a consistent-hash ring (Ring) mapping canonical Spec IDs to an
//     owner plus replicas, so each mechanism has one home responsible
//     for building it and R-1 peers holding warm copies;
//
//   - a warm-sync agent (Node.Start / Node.SyncNow) that polls peers'
//     mechanism lists, which carry each ready artifact's ETag, and pulls
//     only the artifacts this node owns or replicates and holds neither
//     in its cache nor in its store, importing them through the
//     service's existing decode→verify→install path;
//
//   - the routing decision (Node.ForwardTo) that internal/httpapi asks
//     once per request and once per query op, proxying to the owner
//     whatever this node neither owns nor replicates.
//
// The peer set is fixed when the node is built: every node's ring is a
// function of privcountd's -peers flag alone, so nodes given the same
// list agree on every owner without talking to each other.
//
// Trust: the cluster layer adds no new trust boundary. Every pulled
// artifact passes the same CRC framing, spec cross-validation, and full
// Instantiate re-verification as an operator-driven PUT; a corrupt or
// mismatched artifact from a peer is rejected and counted, never
// installed.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
)

// Peer is one privcountd instance in the fleet, identified by the base
// URL its peers reach it at (e.g. "http://10.0.0.7:8080"). The URL is
// the peer's identity on the ring: every node must use the same
// spelling for the ring assignments to agree fleet-wide.
type Peer struct {
	URL string
}

// Static is the fleet's peer set, fixed for the node's lifetime — the
// list privcountd's -peers flag configures.
type Static []Peer

// Ring is an immutable consistent-hash ring: each peer is hashed onto a
// 64-bit circle at VirtualNodes points, and a key's owners are the
// first distinct peers clockwise from the key's own hash. Virtual nodes
// smooth the load split (with v points per peer the expected imbalance
// shrinks as 1/sqrt(v)); consistent hashing keeps reassignment minimal
// when the peer set changes — adding or removing one peer moves only
// the keys that peer gains or loses, never reshuffles the fleet.
type Ring struct {
	points []ringPoint // sorted by hash
	peers  []Peer
	vnodes int
}

type ringPoint struct {
	hash uint64
	peer int // index into peers
}

// DefaultVirtualNodes is the per-peer virtual-node count when the
// config leaves it zero: enough to keep the expected ownership
// imbalance under a few percent for small fleets without making ring
// construction or lookup measurable.
const DefaultVirtualNodes = 64

// NewRing builds the ring for peers with vnodes virtual nodes per peer
// (0 = DefaultVirtualNodes). Peers must be non-empty and distinct.
func NewRing(peers []Peer, vnodes int) (*Ring, error) {
	if len(peers) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one peer")
	}
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	seen := make(map[string]bool, len(peers))
	for _, p := range peers {
		if p.URL == "" {
			return nil, fmt.Errorf("cluster: peer with empty URL")
		}
		if seen[p.URL] {
			return nil, fmt.Errorf("cluster: duplicate peer %s", p.URL)
		}
		seen[p.URL] = true
	}
	r := &Ring{
		points: make([]ringPoint, 0, len(peers)*vnodes),
		peers:  append([]Peer(nil), peers...),
		vnodes: vnodes,
	}
	for i, p := range r.peers {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{
				hash: hashKey(p.URL + "#" + strconv.Itoa(v)),
				peer: i,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		a, b := r.points[i], r.points[j]
		if a.hash != b.hash {
			return a.hash < b.hash
		}
		// Identical hashes (astronomically unlikely with FNV-64 over
		// distinct URLs, but cheap to pin down): break ties by peer so
		// every node sorts the ring identically.
		return a.peer < b.peer
	})
	return r, nil
}

// hashKey is the ring's hash: FNV-1a 64 followed by a splitmix64-style
// finalizer. Speed is irrelevant here — lookups are one hash plus a
// binary search on a few hundred points — what matters is that every
// node computes identical placements (a stdlib hash with no
// process-local seed, plus fixed mixing constants, guarantees it) and
// that near-identical inputs spread across the whole ring. Raw FNV-1a
// fails the second requirement: its avalanche on the last few bytes is
// weak, and ring inputs differ exactly there ("…#0" through "…#63"
// vnode suffixes, peer URLs differing in one host octet), which
// clusters the points and starves peers of ownership. The finalizer's
// two xor-shift-multiply rounds restore full-width dispersion.
func hashKey(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Owners returns the first count distinct peers clockwise from key's
// hash: the owner first, then the replicas. count is clamped to the
// peer-set size. The result is freshly allocated.
func (r *Ring) Owners(key string, count int) []Peer {
	if count <= 0 {
		count = 1
	}
	if count > len(r.peers) {
		count = len(r.peers)
	}
	h := hashKey(key)
	// First point with hash >= h, wrapping to 0.
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]Peer, 0, count)
	for n := 0; n < len(r.points) && len(out) < count; n++ {
		if p := r.peers[r.points[(i+n)%len(r.points)].peer]; !taken(out, p) {
			out = append(out, p)
		}
	}
	return out
}

// taken reports whether p is already in out. out holds at most one
// entry per peer of the fleet, so a scan beats allocating a set.
func taken(out []Peer, p Peer) bool {
	for _, q := range out {
		if q == p {
			return true
		}
	}
	return false
}

// Owner returns the single owning peer for key.
func (r *Ring) Owner(key string) Peer { return r.Owners(key, 1)[0] }

// Peers returns the ring's peer set (a copy).
func (r *Ring) Peers() []Peer { return append([]Peer(nil), r.peers...) }

// Size returns the number of peers on the ring.
func (r *Ring) Size() int { return len(r.peers) }

// VirtualNodes returns the per-peer virtual-node count the ring was
// built with.
func (r *Ring) VirtualNodes() int { return r.vnodes }
