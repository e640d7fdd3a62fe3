// Package fleet makes a set of cdcsd replicas agree on which one owns
// a job without talking to each other: rendezvous (highest-random-
// weight) hashing over a static peer list. Every replica is configured
// with the same `-peers` list and its own `-self` address; Route(key)
// then evaluates the same pure function everywhere, so any replica can
// compute any job's owner locally — no coordinator, no gossip, no
// shared state.
//
// Rendezvous hashing was chosen over a hash ring because the peer sets
// here are small (a handful of replicas) and it gives the two
// properties the serving layer needs with no tuning knobs:
//
//   - balance: each peer owns an even share of the key space (each
//     key independently picks the peer with the highest score), and
//   - minimal disruption: removing a peer reassigns only the keys it
//     owned — every other key keeps its owner, so a restarting
//     replica does not reshuffle which replica holds each workload's
//     jobs and WAL records.
//
// The score is FNV-1a over "peer\x00key" passed through a splitmix64
// finalizer: FNV alone clusters badly on shared prefixes (peer
// addresses differ only in the port), the finalizer's avalanche fixes
// that. The function is deterministic across processes and platforms,
// which is what lets N independently-started daemons agree.
package fleet

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
)

// Router answers "which replica owns this key" for one static fleet.
// It is immutable after New and safe for concurrent use.
type Router struct {
	self  string
	peers []string // normalized, deduplicated, sorted; includes self
}

// New builds a Router for the fleet in peers, identifying this replica
// as self. Addresses are normalized (trimmed, trailing slash dropped)
// and deduplicated; self is added to the set if the list omits it. An
// empty self is an error — a replica that cannot name itself cannot
// tell forwarded traffic from its own.
func New(self string, peers []string) (*Router, error) {
	self = normalize(self)
	if self == "" {
		return nil, fmt.Errorf("fleet: empty self address")
	}
	seen := map[string]bool{self: true}
	out := []string{self}
	for _, p := range peers {
		p = normalize(p)
		if p == "" || seen[p] {
			continue
		}
		seen[p] = true
		out = append(out, p)
	}
	sort.Strings(out)
	return &Router{self: self, peers: out}, nil
}

// normalize canonicalizes one peer address so that configuration
// spelling ("http://a:1/" vs "http://a:1") cannot split the fleet's
// view of the key space.
func normalize(addr string) string {
	return strings.TrimSuffix(strings.TrimSpace(addr), "/")
}

// Self returns this replica's normalized address.
func (r *Router) Self() string { return r.self }

// Peers returns the full normalized membership, self included, in
// sorted order.
func (r *Router) Peers() []string {
	out := make([]string, len(r.peers))
	copy(out, r.peers)
	return out
}

// Route returns the peer that owns key: the member with the highest
// rendezvous score. Ties (astronomically unlikely with 64-bit scores)
// break toward the lexicographically first peer via the sorted
// membership order.
func (r *Router) Route(key string) string {
	best := r.peers[0]
	bestScore := score(best, key)
	for _, p := range r.peers[1:] {
		if s := score(p, key); s > bestScore {
			best, bestScore = p, s
		}
	}
	return best
}

// score is the rendezvous weight of (peer, key): FNV-1a over
// "peer\x00key" (the NUL keeps "ab"+"c" and "a"+"bc" distinct),
// finalized with the splitmix64 mixer for avalanche.
func score(peer, key string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(peer))
	_, _ = h.Write([]byte{0})
	_, _ = h.Write([]byte(key))
	return mix64(h.Sum64())
}

// mix64 is the splitmix64 finalizer: full-avalanche mixing so nearby
// FNV outputs (peer addresses differing in one digit) spread across
// the whole 64-bit range.
func mix64(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}
