package cluster_test

// The multi-node acceptance suite: three real privcountd stacks —
// service, cluster node, HTTP mux — wired over loopback listeners into
// one fleet, exercised through the public HTTP surface and the SDK.
// Sync is driven by explicit SyncNow calls (PollInterval is set far out)
// so the tests assert convergence per pass instead of sleeping.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"privcount/client"
	"privcount/internal/cluster"
	"privcount/internal/core"
	"privcount/internal/httpapi"
	"privcount/internal/metrics"
	"privcount/internal/service"
)

// testNode is one fleet member's full stack.
type testNode struct {
	url    string
	svc    *service.Service
	store  *service.MemStore
	node   *cluster.Node
	server *httptest.Server
}

// fleetOption adjusts node i's service and cluster configuration before
// the node starts.
type fleetOption func(i int, sc *service.Config, cc *cluster.Config)

// startFleet brings up n nodes with the given replication factor, every
// node backed by its own MemStore. Listeners are
// created first so the full peer URL set is known before any ring is
// built.
func startFleet(t testing.TB, n, replication int, opts ...fleetOption) []*testNode {
	t.Helper()
	listeners := make([]net.Listener, n)
	peers := make([]cluster.Peer, n)
	for i := range listeners {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		listeners[i] = l
		peers[i] = cluster.Peer{URL: "http://" + l.Addr().String()}
	}
	fleet := make([]*testNode, n)
	for i := range fleet {
		store := service.NewMemStore()
		sc := service.Config{Capacity: 64, Store: store}
		cc := cluster.Config{
			Self:         peers[i].URL,
			Membership:   cluster.Static(peers),
			Replication:  replication,
			PollInterval: time.Hour, // tests drive SyncNow explicitly
		}
		for _, opt := range opts {
			opt(i, &sc, &cc)
		}
		svc := service.New(sc)
		node, err := cluster.New(svc, cc)
		if err != nil {
			t.Fatalf("cluster.New: %v", err)
		}
		srv := httptest.NewUnstartedServer(httpapi.NewMuxWithCluster(svc, metrics.NewRegistry(), node))
		srv.Listener.Close()
		srv.Listener = listeners[i]
		srv.Start()
		fleet[i] = &testNode{url: peers[i].URL, svc: svc, store: store, node: node, server: srv}
		t.Cleanup(func() {
			srv.Close()
			node.Close()
			svc.Close()
		})
	}
	return fleet
}

// acceptanceSpec is the mechanism the warm-sync acceptance flow builds:
// the LP n=256 spec from the acceptance criteria, downgraded to a
// closed-form geometric mechanism when the race detector or -short
// would make the solve unreasonable.
func acceptanceSpec(t *testing.T) service.Spec {
	if testing.Short() || raceEnabled {
		t.Log("using closed-form gm spec (short mode or race detector)")
		return service.Spec{Kind: service.KindGeometric, N: 64, Alpha: 0.5}
	}
	return service.Spec{Kind: service.KindLP, N: 256, Alpha: 0.5,
		Props: core.WeakHonesty | core.ColumnMonotone}
}

// TestClusterWarmSyncServesWithoutBuilds is the headline acceptance
// flow: a mechanism built on node A is served by nodes B and C after
// one sync pass, with zero solver invocations on either — and a second
// pass moves no bytes (the listed ETags all match the local copies).
func TestClusterWarmSyncServesWithoutBuilds(t *testing.T) {
	fleet := startFleet(t, 3, 3) // R=3: everyone replicates everything
	spec := acceptanceSpec(t)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()

	a, err := client.New(fleet[0].url)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Create(ctx, spec); err != nil {
		t.Fatalf("Create on A: %v", err)
	}
	if _, err := a.WaitReady(ctx, spec); err != nil {
		t.Fatalf("WaitReady on A: %v", err)
	}

	for _, tn := range fleet[1:] {
		if err := tn.node.SyncNow(ctx); err != nil {
			t.Fatalf("SyncNow on %s: %v", tn.url, err)
		}
	}
	for i, tn := range fleet[1:] {
		st := tn.svc.Stats()
		if st.Builds != 0 {
			t.Fatalf("node %d ran %d builds; warm-sync must import without solving", i+1, st.Builds)
		}
		e, err := tn.svc.Peek(spec)
		if err != nil || e.State() != service.BuildReady {
			t.Fatalf("node %d: mechanism not ready after sync (err=%v)", i+1, err)
		}
		cs := tn.node.Status()
		if cs.SyncPulls < 1 || cs.SyncBytes <= 0 {
			t.Fatalf("node %d: sync counters %+v, want at least one pull with bytes", i+1, cs)
		}

		// Serve through the HTTP surface and confirm no build resulted.
		c, err := client.New(tn.url)
		if err != nil {
			t.Fatal(err)
		}
		out, err := c.SampleBatch(ctx, spec, []int{0, spec.N / 2, spec.N})
		if err != nil {
			t.Fatalf("SampleBatch on node %d: %v", i+1, err)
		}
		for _, o := range out {
			if o < 0 || o > spec.N {
				t.Fatalf("node %d sampled out-of-range output %d", i+1, o)
			}
		}
		if st := tn.svc.Stats(); st.Builds != 0 {
			t.Fatalf("node %d built while serving a synced mechanism", i+1)
		}
	}

	// Second pass: everyone already holds the artifact and the peers'
	// listed ETags match it — pulls and bytes freeze.
	b := fleet[1]
	before := b.node.Status()
	if err := b.node.SyncNow(ctx); err != nil {
		t.Fatalf("second SyncNow: %v", err)
	}
	after := b.node.Status()
	if after.SyncPulls != before.SyncPulls || after.SyncBytes != before.SyncBytes {
		t.Fatalf("second sync pass pulled again: before %+v, after %+v", before, after)
	}
	if after.SyncPasses != before.SyncPasses+1 {
		t.Fatalf("sync pass counter did not advance: %d -> %d", before.SyncPasses, after.SyncPasses)
	}
}

// TestClusterRestartResync: B restarts from an empty store and
// converges in one sync pass — the ring tells the fresh process what it
// should hold, and the peers still have it.
func TestClusterRestartResync(t *testing.T) {
	fleet := startFleet(t, 3, 3)
	spec := service.Spec{Kind: service.KindGeometric, N: 32, Alpha: 0.5}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	a, err := client.New(fleet[0].url)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Create(ctx, spec); err != nil {
		t.Fatal(err)
	}
	if _, err := a.WaitReady(ctx, spec); err != nil {
		t.Fatal(err)
	}
	if err := fleet[1].node.SyncNow(ctx); err != nil {
		t.Fatal(err)
	}

	// "Restart" B: a brand-new service with an empty store, plus a new
	// cluster node claiming B's URL on the same ring. (The old B keeps
	// serving HTTP — irrelevant here, the fresh node only pulls.)
	svc2 := service.New(service.Config{Capacity: 64, Store: service.NewMemStore()})
	defer svc2.Close()
	peers := make([]cluster.Peer, len(fleet))
	for i, tn := range fleet {
		peers[i] = cluster.Peer{URL: tn.url}
	}
	node2, err := cluster.New(svc2, cluster.Config{
		Self:         fleet[1].url,
		Membership:   cluster.Static(peers),
		Replication:  3,
		PollInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer node2.Close()
	if err := node2.SyncNow(ctx); err != nil {
		t.Fatalf("post-restart SyncNow: %v", err)
	}
	e, err := svc2.Peek(spec)
	if err != nil || e.State() != service.BuildReady {
		t.Fatalf("restarted node did not re-sync the mechanism (err=%v)", err)
	}
	if st := svc2.Stats(); st.Builds != 0 {
		t.Fatalf("restarted node solved instead of syncing: %d builds", st.Builds)
	}
	if st := node2.Status(); st.SyncPulls != 1 {
		t.Fatalf("restarted node on an empty store pulled %d artifacts, want 1", st.SyncPulls)
	}
}

// splitFleet returns a spec's owning node and some non-owning node
// under an R=1 fleet, where routing actually has work to do.
func splitFleet(t *testing.T, fleet []*testNode, spec service.Spec) (owner, other *testNode) {
	t.Helper()
	id := spec.ID()
	for _, tn := range fleet {
		if tn.node.Owns(id) {
			owner = tn
		} else if other == nil {
			other = tn
		}
	}
	if owner == nil || other == nil {
		t.Fatalf("fleet did not split ownership for %s", id)
	}
	return owner, other
}

// TestClusterProxyRouting: with R=1, a request for a non-owned ID sent
// to the wrong node is proxied to the owner and answered correctly,
// without the wrong node building anything.
func TestClusterProxyRouting(t *testing.T) {
	fleet := startFleet(t, 3, 1)
	spec := service.Spec{Kind: service.KindGeometric, N: 32, Alpha: 0.5}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	owner, other := splitFleet(t, fleet, spec)

	oc, err := client.New(owner.url)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := oc.Create(ctx, spec); err != nil {
		t.Fatal(err)
	}
	if _, err := oc.WaitReady(ctx, spec); err != nil {
		t.Fatal(err)
	}

	// Status read against the non-owner: proxied, so the document shows
	// the owner's ready state even though the non-owner's cache is cold.
	nc, err := client.New(other.url)
	if err != nil {
		t.Fatal(err)
	}
	st, err := nc.Status(ctx, spec)
	if err != nil {
		t.Fatalf("Status via non-owner: %v", err)
	}
	if !st.Ready() {
		t.Fatalf("Status via non-owner = %q, want ready", st.State)
	}

	// A query op lands on the non-owner, goes to the owner in one hop, and the
	// non-owner still never builds.
	out, err := nc.SampleBatch(ctx, spec, []int{1, 2, 3})
	if err != nil {
		t.Fatalf("SampleBatch via non-owner: %v", err)
	}
	if len(out) != 3 {
		t.Fatalf("SampleBatch returned %d outputs", len(out))
	}
	if stats := other.svc.Stats(); stats.Builds != 0 {
		t.Fatalf("non-owner built the mechanism (%d builds); routing failed", stats.Builds)
	}
	if stats := other.svc.Stats(); stats.Entries != 0 {
		t.Fatalf("non-owner cached the mechanism (%d entries); forward must not admit locally", stats.Entries)
	}
}

// TestClusterStatusRoute exercises GET /v2/cluster end to end through
// the SDK, then a plain client pointed at one node: what it creates
// lands on the ring's holders, and its mixed-owner batches come back in
// op order.
func TestClusterStatusRoute(t *testing.T) {
	fleet := startFleet(t, 3, 2)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	c, err := client.New(fleet[0].url)
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.ClusterStatus(ctx)
	if err != nil {
		t.Fatalf("ClusterStatus: %v", err)
	}
	if st.Self != fleet[0].url {
		t.Errorf("Self = %q, want %q", st.Self, fleet[0].url)
	}
	if len(st.Peers) != 3 || st.Replication != 2 || st.RouteMode != "proxy" {
		t.Errorf("ClusterStatus = %+v, want 3 peers, R=2, proxy", st)
	}
	if st.VirtualNodes != cluster.DefaultVirtualNodes {
		t.Errorf("VirtualNodes = %d, want default %d", st.VirtualNodes, cluster.DefaultVirtualNodes)
	}

	// A client pointed at a node that neither owns nor replicates the
	// spec still reaches it: the mechanism created through that node is
	// built on the owner alone, and after one sync pass lives on exactly
	// the nodes the ring names as owner and replicas. The test's own
	// ring, built from the same peers, names each owner.
	peers := make([]cluster.Peer, len(fleet))
	for i, tn := range fleet {
		peers[i] = cluster.Peer{URL: tn.url}
	}
	ring, err := cluster.NewRing(peers, 0)
	if err != nil {
		t.Fatal(err)
	}
	spec := service.Spec{Kind: service.KindGeometric, N: 16, Alpha: 0.5}
	id := spec.ID()
	var entry *testNode
	for _, tn := range fleet {
		if !tn.node.Owns(id) {
			entry = tn
		}
	}
	if entry == nil {
		t.Fatalf("every node holds %s at R=2 of 3", id)
	}
	ec, err := client.New(entry.url)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ec.Create(ctx, spec); err != nil {
		t.Fatalf("Create via non-holder: %v", err)
	}
	if _, err := ec.WaitReady(ctx, spec); err != nil {
		t.Fatalf("WaitReady via non-holder: %v", err)
	}
	if _, err := ec.Sample(ctx, spec, 7); err != nil {
		t.Fatalf("Sample via non-holder: %v", err)
	}
	for _, tn := range fleet {
		if _, err := tn.svc.Peek(spec); (err == nil) != (tn.url == ring.Owner(id).URL) {
			t.Errorf("%s: holds %s = %v before sync, want it on the owner %s alone", tn.url, id, err == nil, ring.Owner(id).URL)
		}
	}
	syncAll(t, ctx, fleet)
	for _, tn := range fleet {
		if _, err := tn.svc.Peek(spec); (err == nil) != tn.node.Owns(id) {
			t.Errorf("%s: holds %s = %v after sync, owns it = %v", tn.url, id, err == nil, tn.node.Owns(id))
		}
	}

	// Mixed-owner batch through the same node: the answers come back in
	// op order. Seeded batch ops are deterministic, so each op's answer
	// must equal what the op's owner gives for it alone.
	specs := []service.Spec{
		{Kind: service.KindGeometric, N: 8, Alpha: 0.5},
		{Kind: service.KindGeometric, N: 12, Alpha: 0.25},
		{Kind: service.KindGeometric, N: 20, Alpha: 0.75},
		{Kind: service.KindGeometric, N: 40, Alpha: 0.5},
		{Kind: service.KindGeometric, N: 80, Alpha: 0.5},
	}
	owners := make(map[string]bool)
	ops := make([]client.Op, len(specs))
	for i, s := range specs {
		seed := uint64(100 + i)
		ops[i] = client.Op{Op: client.OpBatch, ID: s.ID(), Counts: []int{0, s.N / 2, s.N}, Seed: &seed}
		owners[ring.Owner(s.ID()).URL] = true
	}
	if len(owners) < 2 {
		t.Fatal("every batch spec has the same owner; want a mixed-owner batch")
	}
	results, err := ec.Query(ctx, ops)
	if err != nil {
		t.Fatalf("Query via non-holder: %v", err)
	}
	if len(results) != len(ops) {
		t.Fatalf("Query returned %d results for %d ops", len(results), len(ops))
	}
	for i, res := range results {
		if res.Error != nil {
			t.Fatalf("op %d failed: %v", i, res.Error)
		}
		owner := ring.Owner(specs[i].ID()).URL
		oc, err := client.New(owner)
		if err != nil {
			t.Fatal(err)
		}
		alone, err := oc.Query(ctx, ops[i:i+1])
		if err != nil || alone[0].Error != nil {
			t.Fatalf("op %d alone on its owner %s: %v %v", i, owner, err, alone)
		}
		if fmt.Sprint(res.Outputs) != fmt.Sprint(alone[0].Outputs) {
			t.Fatalf("op %d: batch answered %v, its owner alone %v", i, res.Outputs, alone[0].Outputs)
		}
	}
}

// TestClusterSyncRejectsBadArtifact: a peer serving garbage artifact
// bytes cannot poison a node — the import path re-verifies, the
// artifact is rejected and counted, and the mechanism stays absent.
func TestClusterSyncRejectsBadArtifact(t *testing.T) {
	spec := service.Spec{Kind: service.KindGeometric, N: 16, Alpha: 0.5}
	id := spec.ID()

	// A hostile "peer": lists a ready mechanism, serves junk for it.
	hostile := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v2/mechanisms":
			json.NewEncoder(w).Encode(map[string]any{
				"mechanisms": []map[string]any{{"id": id, "state": "ready"}},
			})
		case "/v2/mechanisms/" + id + "/artifact":
			w.Write([]byte("not an artifact"))
		default:
			http.NotFound(w, r)
		}
	}))
	defer hostile.Close()

	svc := service.New(service.Config{Capacity: 8})
	defer svc.Close()
	self := "http://127.0.0.1:1" // never dialed: sync skips self
	node, err := cluster.New(svc, cluster.Config{
		Self:         self,
		Membership:   cluster.Static([]cluster.Peer{{URL: self}, {URL: hostile.URL}}),
		Replication:  2,
		PollInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	err = node.SyncNow(ctx)
	if err == nil {
		t.Fatal("SyncNow succeeded against a peer serving garbage")
	}
	if st := node.Status(); st.SyncRejects != 1 {
		t.Fatalf("SyncRejects = %d, want 1", st.SyncRejects)
	}
	if _, err := svc.Peek(spec); !errors.Is(err, service.ErrNotAdmitted) {
		t.Fatalf("Peek after rejected import: err = %v, want ErrNotAdmitted", err)
	}
	if st := node.Status(); st.SyncPulls != 0 {
		t.Fatalf("SyncPulls = %d after rejection, want 0", st.SyncPulls)
	}
}

// TestClusterProxyLoopPrevention: a request already routed once is
// served locally even by a node that does not own the ID — the header
// breaks the cycle two disagreeing rings could otherwise produce.
func TestClusterProxyLoopPrevention(t *testing.T) {
	fleet := startFleet(t, 3, 1)
	spec := service.Spec{Kind: service.KindGeometric, N: 16, Alpha: 0.5}
	_, other := splitFleet(t, fleet, spec)

	req, err := http.NewRequest(http.MethodGet, other.url+"/v2/mechanisms/"+spec.ID(), nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(cluster.RoutedHeader, "http://elsewhere:1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	// Served locally: the non-owner's own (empty) cache answers 404
	// not_admitted instead of proxying onward to the true owner.
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("routed request answered %d, want local 404", resp.StatusCode)
	}
	var env client.Envelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil || env.Error == nil {
		t.Fatalf("routed 404 had no error envelope: %v", err)
	}
	if env.Error.Code != client.CodeNotAdmitted {
		t.Fatalf("routed 404 code = %q, want not_admitted", env.Error.Code)
	}
}

// TestClusterMetricsExposition: the privcount_cluster_* and
// privcount_forward_* series appear on /metrics with live values.
func TestClusterMetricsExposition(t *testing.T) {
	fleet := startFleet(t, 3, 3)
	spec := service.Spec{Kind: service.KindGeometric, N: 8, Alpha: 0.5}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	a, err := client.New(fleet[0].url)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Create(ctx, spec); err != nil {
		t.Fatal(err)
	}
	if _, err := a.WaitReady(ctx, spec); err != nil {
		t.Fatal(err)
	}
	if err := fleet[1].node.SyncNow(ctx); err != nil {
		t.Fatal(err)
	}

	body := scrape(t, fleet[1].url)
	for _, want := range []string{
		"privcount_cluster_sync_pulls_total 1",
		"privcount_cluster_ring_size 3",
		"privcount_cluster_owned_mechanisms 1",
		"privcount_cluster_sync_passes_total 1",
		// R=3: every node owns everything, so nothing is forwarded.
		"privcount_forward_hops_total 0",
		"privcount_forwarded_ops_total 0",
		"privcount_forward_fallbacks_total 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestNodeStartRunsBackgroundPasses pins the background sync loop:
// Start ticks at PollInterval, each tick completes a pass (counted and
// timestamped), and Close joins the loop.
func TestNodeStartRunsBackgroundPasses(t *testing.T) {
	svc := service.New(service.Config{Capacity: 8})
	defer svc.Close()
	self := "http://127.0.0.1:1" // never dialed: the only peer is self
	node, err := cluster.New(svc, cluster.Config{
		Self:         self,
		Membership:   cluster.Static([]cluster.Peer{{URL: self}}),
		PollInterval: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	node.Start()
	deadline := time.Now().Add(10 * time.Second)
	for node.Status().SyncPasses < 2 {
		if time.Now().After(deadline) {
			t.Fatal("background sync never completed two passes")
		}
		time.Sleep(time.Millisecond)
	}
	st := node.Status()
	if st.LastSync.IsZero() {
		t.Error("LastSync still zero after completed passes")
	}
	node.Close()
	settled := node.Status().SyncPasses
	time.Sleep(20 * time.Millisecond)
	if got := node.Status().SyncPasses; got != settled {
		t.Errorf("passes advanced after Close: %d -> %d", settled, got)
	}
}

// TestNodeReplicationClamped pins that a replication factor beyond the
// fleet size clamps to the fleet size.
func TestNodeReplicationClamped(t *testing.T) {
	svc := service.New(service.Config{Capacity: 8})
	defer svc.Close()
	self := "http://127.0.0.1:1"
	node, err := cluster.New(svc, cluster.Config{
		Self:        self,
		Membership:  cluster.Static([]cluster.Peer{{URL: self}}),
		Replication: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	if got := node.Replication(); got != 1 {
		t.Errorf("Replication = %d, want clamped to fleet size 1", got)
	}
}

// listingPeer is a fake peer whose GET /v2/mechanisms lists id ready
// with the given artifact ETag ("" lists none). It answers any other
// request 404 and counts it in *other.
func listingPeer(t *testing.T, id, etag string, other *atomic.Int64) *httptest.Server {
	t.Helper()
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v2/mechanisms" {
			other.Add(1)
			http.NotFound(w, r)
			return
		}
		doc := map[string]any{"id": id, "state": "ready"}
		if etag != "" {
			doc["etag"] = etag
		}
		json.NewEncoder(w).Encode(map[string]any{"mechanisms": []map[string]any{doc}})
	}))
	t.Cleanup(peer.Close)
	return peer
}

// readyService returns a service built from cfg that holds spec ready.
func readyService(t *testing.T, spec service.Spec, cfg service.Config) *service.Service {
	t.Helper()
	svc := service.New(cfg)
	t.Cleanup(svc.Close)
	if _, err := svc.Get(spec); err != nil {
		t.Fatal(err)
	}
	return svc
}

// nodeWithPeer returns a node over svc on a two-peer ring with peerURL,
// so the node replicates everything.
func nodeWithPeer(t *testing.T, svc *service.Service, peerURL string) *cluster.Node {
	t.Helper()
	self := "http://127.0.0.1:1" // never dialed: sync skips self
	node, err := cluster.New(svc, cluster.Config{
		Self:         self,
		Membership:   cluster.Static([]cluster.Peer{{URL: self}, {URL: peerURL}}),
		Replication:  2,
		PollInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(node.Close)
	return node
}

// trueETag returns the ETag of spec's artifact as an honest peer lists it.
func trueETag(t *testing.T, spec service.Spec) string {
	t.Helper()
	etag, err := readyService(t, spec, service.Config{}).ExportETag(spec)
	if err != nil {
		t.Fatal(err)
	}
	return etag
}

// TestClusterSyncCountsConflicts: a peer whose listed artifact ETag
// diverges from a local *ready* copy is a conflict, not a pull — the
// local mechanism is kept (deterministic encoding makes honest replicas
// byte-identical, so divergence is a real signal), the counter records
// it for operators, and no artifact is requested.
func TestClusterSyncCountsConflicts(t *testing.T) {
	spec := service.Spec{Kind: service.KindGeometric, N: 16, Alpha: 0.5}
	var other atomic.Int64
	diverged := listingPeer(t, spec.ID(), `"deadbeef"`, &other)
	svc := readyService(t, spec, service.Config{Capacity: 8})
	node := nodeWithPeer(t, svc, diverged.URL)

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := node.SyncNow(ctx); err != nil {
		t.Fatalf("SyncNow: %v", err)
	}
	st := node.Status()
	if st.SyncConflicts != 1 {
		t.Fatalf("SyncConflicts = %d, want 1", st.SyncConflicts)
	}
	if st.SyncPulls != 0 {
		t.Fatalf("SyncPulls = %d, want 0 (conflicts keep the local copy)", st.SyncPulls)
	}
	e, err := svc.Peek(spec)
	if err != nil || e.State() != service.BuildReady {
		t.Fatalf("local mechanism after conflict: %v, %v; want still ready", e, err)
	}
	// A second pass re-detects the same divergence — conflicts are
	// per-observation, and the local copy still wins.
	if err := node.SyncNow(ctx); err != nil {
		t.Fatalf("second SyncNow: %v", err)
	}
	if st := node.Status(); st.SyncConflicts != 2 || st.SyncPulls != 0 {
		t.Fatalf("after second pass: conflicts=%d pulls=%d, want 2, 0", st.SyncConflicts, st.SyncPulls)
	}
	if n := other.Load(); n != 0 {
		t.Fatalf("sync sent %d requests besides the list, want 0", n)
	}
}

// TestClusterSyncAgreeingETag: a peer listing the local copy's own ETag
// is agreement — no conflict, no pull, no request besides the list.
func TestClusterSyncAgreeingETag(t *testing.T) {
	spec := service.Spec{Kind: service.KindGeometric, N: 16, Alpha: 0.5}
	var other atomic.Int64
	agreeing := listingPeer(t, spec.ID(), trueETag(t, spec), &other)
	node := nodeWithPeer(t, readyService(t, spec, service.Config{Capacity: 8}), agreeing.URL)

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := node.SyncNow(ctx); err != nil {
		t.Fatalf("SyncNow: %v", err)
	}
	st := node.Status()
	if st.SyncConflicts != 0 || st.SyncPulls != 0 || st.SyncErrors != 0 {
		t.Fatalf("conflicts=%d pulls=%d errors=%d, want 0, 0, 0", st.SyncConflicts, st.SyncPulls, st.SyncErrors)
	}
	if n := other.Load(); n != 0 {
		t.Fatalf("sync sent %d requests besides the list, want 0", n)
	}
}

// TestClusterSyncHeldWithoutETag: a peer listing a mechanism this node
// holds as ready but with no ETag cannot be compared. That is a counted
// sync error on every pass, not a silent skip; nothing is pulled and
// the local copy stays ready.
func TestClusterSyncHeldWithoutETag(t *testing.T) {
	spec := service.Spec{Kind: service.KindGeometric, N: 16, Alpha: 0.5}
	var other atomic.Int64
	bare := listingPeer(t, spec.ID(), "", &other)
	svc := readyService(t, spec, service.Config{Capacity: 8})
	node := nodeWithPeer(t, svc, bare.URL)

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for pass := 1; pass <= 2; pass++ {
		if err := node.SyncNow(ctx); err == nil {
			t.Fatalf("pass %d: SyncNow succeeded against a peer listing no etag", pass)
		}
		st := node.Status()
		if st.SyncErrors != int64(pass) || st.SyncConflicts != 0 || st.SyncPulls != 0 {
			t.Fatalf("pass %d: errors=%d conflicts=%d pulls=%d, want %d, 0, 0",
				pass, st.SyncErrors, st.SyncConflicts, st.SyncPulls, pass)
		}
	}
	if n := other.Load(); n != 0 {
		t.Fatalf("sync sent %d requests besides the list, want 0", n)
	}
	if e, err := svc.Peek(spec); err != nil || e.State() != service.BuildReady {
		t.Fatalf("local mechanism: %v, %v; want still ready", e, err)
	}
}

// TestClusterSyncComparesRebuiltCopy: a corrupt artifact in the store
// counts as a held copy, so a peer listing the true ETag is a conflict
// and nothing is pulled. Once a query quarantines the stored copy and
// rebuilds it, the next pass compares the rebuilt install, which agrees.
func TestClusterSyncComparesRebuiltCopy(t *testing.T) {
	spec := service.Spec{Kind: service.KindGeometric, N: 16, Alpha: 0.5}
	var other atomic.Int64
	peer := listingPeer(t, spec.ID(), trueETag(t, spec), &other)
	store := service.NewMemStore()
	if err := store.Put(spec.ID(), []byte("corrupt artifact")); err != nil {
		t.Fatal(err)
	}
	svc := service.New(service.Config{Capacity: 8, Store: store})
	defer svc.Close()
	node := nodeWithPeer(t, svc, peer.URL)

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := node.SyncNow(ctx); err != nil {
		t.Fatalf("SyncNow: %v", err)
	}
	if st := node.Status(); st.SyncConflicts != 1 || st.SyncPulls != 0 {
		t.Fatalf("corrupt stored copy: conflicts=%d pulls=%d, want 1, 0", st.SyncConflicts, st.SyncPulls)
	}
	if _, err := svc.Get(spec); err != nil {
		t.Fatal(err)
	}
	if st := svc.Stats(); st.StoreQuarantines != 1 || st.Builds != 1 {
		t.Fatalf("stats %+v, want the stored copy quarantined and rebuilt", st)
	}
	if err := node.SyncNow(ctx); err != nil {
		t.Fatalf("second SyncNow: %v", err)
	}
	if st := node.Status(); st.SyncConflicts != 1 || st.SyncPulls != 0 {
		t.Fatalf("after rebuild: conflicts=%d pulls=%d, want still 1, 0", st.SyncConflicts, st.SyncPulls)
	}
	if n := other.Load(); n != 0 {
		t.Fatalf("sync sent %d requests besides the list, want 0", n)
	}
}

// TestClusterSyncSeesReimportedCopy: an import over a ready entry
// changes the bytes the node serves, and the next pass compares the
// peer's listed ETag with the new install, not the one the previous
// pass agreed with.
func TestClusterSyncSeesReimportedCopy(t *testing.T) {
	spec, err := service.ParseSpec("lp:n=4:a=0.5:RH")
	if err != nil {
		t.Fatal(err)
	}
	var other atomic.Int64
	etag := trueETag(t, spec)
	peer := listingPeer(t, spec.ID(), etag, &other)
	svc := readyService(t, spec, service.Config{Capacity: 8})
	node := nodeWithPeer(t, svc, peer.URL)

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := node.SyncNow(ctx); err != nil {
		t.Fatalf("SyncNow: %v", err)
	}
	if st := node.Status(); st.SyncConflicts != 0 || st.SyncPulls != 0 || st.SyncErrors != 0 {
		t.Fatalf("pass 1: conflicts=%d pulls=%d errors=%d, want 0, 0, 0", st.SyncConflicts, st.SyncPulls, st.SyncErrors)
	}

	// Re-import a column-stochastic variant over the ready entry: two
	// cells of column 0 swapped.
	data, err := svc.ExportArtifact(spec)
	if err != nil {
		t.Fatal(err)
	}
	a, err := service.DecodeArtifact(data)
	if err != nil {
		t.Fatal(err)
	}
	k := spec.N + 1
	a.Probs[0], a.Probs[k] = a.Probs[k], a.Probs[0]
	if _, err := svc.ImportArtifact(spec, a.Encode()); err != nil {
		t.Fatalf("import the variant: %v", err)
	}
	if got, err := svc.ExportETag(spec); err != nil || got == etag {
		t.Fatalf("ETag after import = %q, %v; want one that differs from %q", got, err, etag)
	}

	if err := node.SyncNow(ctx); err != nil {
		t.Fatalf("second SyncNow: %v", err)
	}
	if st := node.Status(); st.SyncConflicts != 1 || st.SyncPulls != 0 {
		t.Fatalf("pass 2: conflicts=%d pulls=%d, want 1, 0", st.SyncConflicts, st.SyncPulls)
	}
	if n := other.Load(); n != 0 {
		t.Fatalf("sync sent %d requests besides the list, want 0", n)
	}
}

// TestClusterSyncUnparseableListedID: a peer listing an ID that is not
// a spec is a counted sync error, and no artifact is requested for it.
func TestClusterSyncUnparseableListedID(t *testing.T) {
	var other atomic.Int64
	peer := listingPeer(t, "not-a-spec", `"deadbeef"`, &other)
	svc := service.New(service.Config{Capacity: 8})
	defer svc.Close()
	node := nodeWithPeer(t, svc, peer.URL)

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := node.SyncNow(ctx); err == nil {
		t.Fatal("SyncNow succeeded against a peer listing an unparseable ID")
	}
	if st := node.Status(); st.SyncErrors != 1 || st.SyncPulls != 0 || st.SyncRejects != 0 {
		t.Fatalf("errors=%d pulls=%d rejects=%d, want 1, 0, 0", st.SyncErrors, st.SyncPulls, st.SyncRejects)
	}
	if n := other.Load(); n != 0 {
		t.Fatalf("sync sent %d requests besides the list, want 0", n)
	}
}

// TestClusterSyncRejectsForgedClosedForm: a peer serving a gm artifact
// whose matrix is column-stochastic but not GM's (two cells of column 0
// swapped) is refused on sync and counted as a reject.
func TestClusterSyncRejectsForgedClosedForm(t *testing.T) {
	spec := service.Spec{Kind: service.KindGeometric, N: 8, Alpha: 0.5}
	id := spec.ID()
	src := service.New(service.Config{Seed: 1})
	defer src.Close()
	if _, err := src.Get(spec); err != nil {
		t.Fatal(err)
	}
	data, err := src.ExportArtifact(spec)
	if err != nil {
		t.Fatal(err)
	}
	a, err := service.DecodeArtifact(data)
	if err != nil {
		t.Fatal(err)
	}
	k := spec.N + 1
	a.Probs[0], a.Probs[k] = a.Probs[k], a.Probs[0]
	forged := a.Encode()

	hostile := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v2/mechanisms":
			json.NewEncoder(w).Encode(map[string]any{
				"mechanisms": []map[string]any{{"id": id, "state": "ready"}},
			})
		case "/v2/mechanisms/" + id + "/artifact":
			w.Write(forged)
		default:
			http.NotFound(w, r)
		}
	}))
	defer hostile.Close()

	svc := service.New(service.Config{Capacity: 8})
	defer svc.Close()
	self := "http://127.0.0.1:1" // never dialed: sync skips self
	node, err := cluster.New(svc, cluster.Config{
		Self:         self,
		Membership:   cluster.Static([]cluster.Peer{{URL: self}, {URL: hostile.URL}}),
		Replication:  2,
		PollInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := node.SyncNow(ctx); err == nil {
		t.Fatal("SyncNow succeeded against a peer serving a forged GM")
	}
	if st := node.Status(); st.SyncRejects != 1 || st.SyncPulls != 0 {
		t.Fatalf("SyncRejects = %d, SyncPulls = %d; want 1 and 0", st.SyncRejects, st.SyncPulls)
	}
	if _, err := svc.Peek(spec); !errors.Is(err, service.ErrNotAdmitted) {
		t.Fatalf("Peek after rejected import: err = %v, want ErrNotAdmitted", err)
	}
}
