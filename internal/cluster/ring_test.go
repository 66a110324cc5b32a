package cluster

import (
	"fmt"
	"testing"
	"time"

	"privcount/internal/service"
)

func testPeers(n int) []Peer {
	peers := make([]Peer, n)
	for i := range peers {
		peers[i] = Peer{URL: fmt.Sprintf("http://10.0.0.%d:8080", i+1)}
	}
	return peers
}

func testKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("lp:n=%d:a=0.5", i+1)
	}
	return keys
}

func TestRingConstructionErrors(t *testing.T) {
	cases := []struct {
		name  string
		peers []Peer
	}{
		{"empty", nil},
		{"emptyURL", []Peer{{URL: ""}}},
		{"duplicate", []Peer{{URL: "http://a:1"}, {URL: "http://a:1"}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewRing(tc.peers, 0); err == nil {
				t.Fatalf("NewRing(%v) succeeded, want error", tc.peers)
			}
		})
	}
}

func TestRingDeterminism(t *testing.T) {
	// Two independently built rings over the same peer set must agree on
	// every placement — the property the whole fleet depends on, since
	// each node builds its own ring.
	peers := testPeers(5)
	r1, err := NewRing(peers, 0)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := NewRing(peers, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range testKeys(500) {
		o1, o2 := r1.Owners(key, 3), r2.Owners(key, 3)
		for i := range o1 {
			if o1[i] != o2[i] {
				t.Fatalf("key %s: ring 1 owners %v, ring 2 owners %v", key, o1, o2)
			}
		}
	}
}

func TestRingOwnersDistinctAndClamped(t *testing.T) {
	r, err := NewRing(testPeers(3), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range testKeys(100) {
		owners := r.Owners(key, 2)
		if len(owners) != 2 {
			t.Fatalf("Owners(%s, 2) returned %d peers", key, len(owners))
		}
		if owners[0] == owners[1] {
			t.Fatalf("Owners(%s, 2) repeated peer %v", key, owners[0])
		}
		if got := r.Owner(key); got != owners[0] {
			t.Fatalf("Owner(%s) = %v, want first of Owners %v", key, got, owners[0])
		}
		// Replication beyond the fleet clamps instead of erroring or
		// repeating peers.
		all := r.Owners(key, 99)
		if len(all) != 3 {
			t.Fatalf("Owners(%s, 99) returned %d peers, want 3", key, len(all))
		}
		seen := map[Peer]bool{}
		for _, p := range all {
			if seen[p] {
				t.Fatalf("Owners(%s, 99) repeated peer %v", key, p)
			}
			seen[p] = true
		}
	}
}

func TestRingDistribution(t *testing.T) {
	// With 64 virtual nodes per peer the ownership split over many keys
	// should be roughly even. The bound is loose (half to double the
	// fair share) — this guards against a broken hash or walk, not
	// statistical perfection.
	const npeers, nkeys = 4, 8000
	r, err := NewRing(testPeers(npeers), 0)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, key := range testKeys(nkeys) {
		counts[r.Owner(key).URL]++
	}
	fair := nkeys / npeers
	for url, c := range counts {
		if c < fair/2 || c > fair*2 {
			t.Errorf("peer %s owns %d of %d keys (fair share %d)", url, c, nkeys, fair)
		}
	}
	if len(counts) != npeers {
		t.Errorf("only %d of %d peers own any keys", len(counts), npeers)
	}
}

func TestRingMinimalReassignment(t *testing.T) {
	// Consistent hashing's defining property: removing one peer moves
	// only the keys that peer owned; every other key keeps its owner.
	peers := testPeers(4)
	full, err := NewRing(peers, 0)
	if err != nil {
		t.Fatal(err)
	}
	reduced, err := NewRing(peers[:3], 0)
	if err != nil {
		t.Fatal(err)
	}
	removed := peers[3].URL
	moved := 0
	for _, key := range testKeys(2000) {
		before := full.Owner(key)
		after := reduced.Owner(key)
		if before.URL == removed {
			moved++
			continue // had to move somewhere
		}
		if before != after {
			t.Fatalf("key %s moved from surviving peer %s to %s", key, before.URL, after.URL)
		}
	}
	if moved == 0 {
		t.Fatal("removed peer owned no keys; distribution is broken")
	}
}

func TestParseRouteMode(t *testing.T) {
	for _, in := range []string{"", "proxy"} {
		if got, err := ParseRouteMode(in); err != nil || got != RouteProxy {
			t.Errorf("ParseRouteMode(%q) = %v, %v; want proxy", in, got, err)
		}
	}
	for _, in := range []string{"redirect", "gossip", "Proxy"} {
		if _, err := ParseRouteMode(in); err == nil {
			t.Errorf("ParseRouteMode(%q) succeeded, want error", in)
		}
	}
}

func TestNodeConfigValidation(t *testing.T) {
	svc := service.New(service.Config{Capacity: 8})
	defer svc.Close()
	peers := Static(testPeers(3))

	if _, err := New(nil, Config{Self: peers[0].URL, Membership: peers}); err == nil {
		t.Error("New with nil service succeeded")
	}
	if _, err := New(svc, Config{Self: peers[0].URL}); err == nil {
		t.Error("New with nil membership succeeded")
	}
	if _, err := New(svc, Config{Self: "", Membership: peers}); err == nil {
		t.Error("New with empty self succeeded")
	}
	if _, err := New(svc, Config{Self: "http://not-a-member:1", Membership: peers}); err == nil {
		t.Error("New with self outside the peer set succeeded")
	}

	n, err := New(svc, Config{Self: peers[0].URL, Membership: peers})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer n.Close()
	if n.Replication() != DefaultReplication {
		t.Errorf("Replication = %d, want default %d", n.Replication(), DefaultReplication)
	}
	st := n.Status()
	if len(st.Peers) != 3 || st.Self != peers[0].URL {
		t.Errorf("Status = %+v, want 3 peers with self %s", st, peers[0].URL)
	}
}

func TestNodeSelfNormalization(t *testing.T) {
	// -self and -peers spellings differing only in case or trailing
	// slash must still identify the same ring member.
	svc := service.New(service.Config{Capacity: 8})
	defer svc.Close()
	peers := Static([]Peer{{URL: "http://node-a:8080"}, {URL: "http://node-b:8080"}})
	n, err := New(svc, Config{Self: "HTTP://NODE-A:8080/", Membership: peers})
	if err != nil {
		t.Fatalf("New with differently spelled self: %v", err)
	}
	defer n.Close()
	if n.Self() != "http://node-a:8080" {
		t.Errorf("Self = %q, want normalized %q", n.Self(), "http://node-a:8080")
	}
}

func TestNodeOwnershipFullReplication(t *testing.T) {
	// R = fleet size means every node owns everything — the
	// 3-node/R=3 configuration the acceptance suite uses.
	svc := service.New(service.Config{Capacity: 8})
	defer svc.Close()
	peers := Static(testPeers(3))
	n, err := New(svc, Config{Self: peers[1].URL, Membership: peers, Replication: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	for _, key := range testKeys(50) {
		if !n.Owns(key) {
			t.Fatalf("R=3 of 3 peers: node does not own %s", key)
		}
	}
}

func TestNodeOwnerAgreesAcrossNodes(t *testing.T) {
	// Every node must compute the same owner for every key, and exactly
	// R nodes must claim ownership.
	peers := Static(testPeers(4))
	nodes := make([]*Node, len(peers))
	for i, p := range peers {
		svc := service.New(service.Config{Capacity: 8})
		defer svc.Close()
		n, err := New(svc, Config{Self: p.URL, Membership: peers, Replication: 2, PollInterval: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		defer n.Close()
		nodes[i] = n
	}
	for _, key := range testKeys(200) {
		owner0 := nodes[0].ring.Owner(key).URL
		claiming := 0
		for _, n := range nodes {
			if o := n.ring.Owner(key).URL; o != owner0 {
				t.Fatalf("key %s: node %s says owner %s, node %s says %s",
					key, nodes[0].Self(), owner0, n.Self(), o)
			}
			if n.Owns(key) {
				claiming++
			}
		}
		if claiming != 2 {
			t.Fatalf("key %s: %d nodes claim ownership, want R=2", key, claiming)
		}
	}
}

// TestNodeForwardToMatchesOwners pins the routing decision against the
// ring: on a 3-node ring at every replication factor, a node forwards
// an ID, to the ring owner, exactly when it is not among the ID's
// owners.
func TestNodeForwardToMatchesOwners(t *testing.T) {
	peers := Static(testPeers(3))
	r, err := NewRing(peers, 0)
	if err != nil {
		t.Fatal(err)
	}
	svc := service.New(service.Config{Capacity: 8})
	defer svc.Close()
	for _, rep := range []int{1, 2, 3} {
		for _, self := range peers {
			n, err := New(svc, Config{Self: self.URL, Membership: peers, Replication: rep, PollInterval: time.Hour})
			if err != nil {
				t.Fatal(err)
			}
			forwarded := 0
			for _, key := range testKeys(200) {
				owners := r.Owners(key, rep)
				holds := false
				for _, p := range owners {
					holds = holds || p == self
				}
				owner, fwd := n.ForwardTo(key)
				switch {
				case fwd == holds:
					t.Fatalf("R=%d self=%s key=%s: forward=%v, but self in owners %v = %v",
						rep, self.URL, key, fwd, owners, holds)
				case fwd && owner != owners[0].URL:
					t.Fatalf("R=%d self=%s key=%s: forwards to %s, ring owner is %s",
						rep, self.URL, key, owner, owners[0].URL)
				case !fwd && owner != "":
					t.Fatalf("R=%d self=%s key=%s: serves locally but names owner %q", rep, self.URL, key, owner)
				}
				if fwd {
					forwarded++
				}
				if n.Owns(key) == fwd {
					t.Fatalf("R=%d key=%s: Owns disagrees with ForwardTo", rep, key)
				}
			}
			if rep < 3 && forwarded == 0 {
				t.Errorf("R=%d self=%s: forwarded none of 200 keys", rep, self.URL)
			}
			if rep == 3 && forwarded != 0 {
				t.Errorf("R=3 of 3: forwarded %d keys, want none", forwarded)
			}
			n.Close()
		}
	}
}
