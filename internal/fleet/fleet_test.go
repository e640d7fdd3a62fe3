package fleet

import (
	"fmt"
	"testing"
)

func mustNew(t *testing.T, self string, peers []string) *Router {
	t.Helper()
	r, err := New(self, peers)
	if err != nil {
		t.Fatalf("New(%q, %v): %v", self, peers, err)
	}
	return r
}

func threeReplicas() []string {
	return []string{
		"http://127.0.0.1:18181",
		"http://127.0.0.1:18182",
		"http://127.0.0.1:18183",
	}
}

func TestNewNormalizesAndIncludesSelf(t *testing.T) {
	r := mustNew(t, " http://a:1/ ", []string{"http://b:2", "http://a:1", "http://b:2/", ""})
	want := []string{"http://a:1", "http://b:2"}
	got := r.Peers()
	if len(got) != len(want) {
		t.Fatalf("Peers() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Peers() = %v, want %v", got, want)
		}
	}
	if r.Self() != "http://a:1" {
		t.Errorf("Self() = %q, want normalized http://a:1", r.Self())
	}
	// Self absent from the peer list is added, not an error.
	r2 := mustNew(t, "http://c:3", []string{"http://a:1"})
	if len(r2.Peers()) != 2 {
		t.Errorf("self not folded into membership: %v", r2.Peers())
	}
}

func TestNewRejectsEmptySelf(t *testing.T) {
	if _, err := New("  ", []string{"http://a:1"}); err == nil {
		t.Fatal("New with empty self must fail")
	}
}

// TestRouteAgreement is the property the fleet depends on: every
// replica, constructed with its own self but the same membership,
// computes the same owner for every key.
func TestRouteAgreement(t *testing.T) {
	peers := threeReplicas()
	routers := make([]*Router, len(peers))
	for i, self := range peers {
		routers[i] = mustNew(t, self, peers)
	}
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("wan:%d", i)
		owner := routers[0].Route(key)
		for _, r := range routers[1:] {
			if got := r.Route(key); got != owner {
				t.Fatalf("replicas disagree on key %q: %q vs %q", key, owner, got)
			}
		}
	}
}

// TestRouteBalance: each of three peers should own roughly a third of
// a large key set. The bound is loose (>=20% each) — the test guards
// against degenerate hashing (one peer owning everything), not exact
// uniformity.
func TestRouteBalance(t *testing.T) {
	r := mustNew(t, threeReplicas()[0], threeReplicas())
	const n = 30000
	counts := map[string]int{}
	for i := 0; i < n; i++ {
		counts[r.Route(fmt.Sprintf("job-%d", i))]++
	}
	if len(counts) != 3 {
		t.Fatalf("only %d of 3 peers own keys: %v", len(counts), counts)
	}
	for _, p := range r.Peers() {
		if c := counts[p]; c < n/5 {
			t.Errorf("peer %s owns %d of %d keys (< 20%%): degenerate distribution %v", p, c, n, counts)
		}
	}
}

// TestMinimalDisruption: removing one peer must reassign only the keys
// it owned — rendezvous hashing's defining property.
func TestMinimalDisruption(t *testing.T) {
	peers := threeReplicas()
	full := mustNew(t, peers[0], peers)
	reduced := mustNew(t, peers[0], peers[:2]) // peers[2] removed
	for i := 0; i < 5000; i++ {
		key := fmt.Sprintf("job-%d", i)
		before := full.Route(key)
		after := reduced.Route(key)
		if before != peers[2] && after != before {
			t.Fatalf("key %q moved from %q to %q although its owner was not removed", key, before, after)
		}
		if before == peers[2] && after == peers[2] {
			t.Fatalf("key %q still routed to removed peer", key)
		}
	}
}

// TestRouteDeterministicAcrossConstruction: the score function has no
// process-local state, so two routers with identical membership agree
// byte-for-byte.
func TestRouteDeterministicAcrossConstruction(t *testing.T) {
	a := mustNew(t, "http://x:1", []string{"http://x:1", "http://y:2"})
	b := mustNew(t, "http://y:2", []string{"http://y:2", "http://x:1"})
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("k%d", i)
		if a.Route(key) != b.Route(key) {
			t.Fatalf("construction order changed routing for %q", key)
		}
	}
}

func TestSinglePeerFleet(t *testing.T) {
	r := mustNew(t, "http://a:1", nil)
	if got := r.Route("anything"); got != r.Self() {
		t.Errorf("single-replica fleet routed a key to %q, want self", got)
	}
}
