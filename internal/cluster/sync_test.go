package cluster_test

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"privcount/internal/cluster"
	"privcount/internal/httpapi"
	"privcount/internal/metrics"
	"privcount/internal/service"
)

// requestCounter is an http.RoundTripper that counts the peer requests
// a node sends, split into list GETs, artifact GETs and forwarded query
// POSTs.
type requestCounter struct {
	lists, artifacts, queries, other atomic.Int64
}

func (c *requestCounter) RoundTrip(r *http.Request) (*http.Response, error) {
	switch {
	case r.Method == http.MethodGet && r.URL.Path == "/v2/mechanisms":
		c.lists.Add(1)
	case r.Method == http.MethodGet && strings.HasSuffix(r.URL.Path, "/artifact"):
		c.artifacts.Add(1)
	case r.Method == http.MethodPost && r.URL.Path == "/v2/query":
		c.queries.Add(1)
	default:
		c.other.Add(1)
	}
	return http.DefaultTransport.RoundTrip(r)
}

func (c *requestCounter) total() int64 {
	return c.lists.Load() + c.artifacts.Load() + c.queries.Load() + c.other.Load()
}

// countRequests gives every node an HTTP client whose transport is the
// node's counter.
func countRequests(counters []*requestCounter) fleetOption {
	return func(i int, _ *service.Config, cc *cluster.Config) {
		cc.HTTPClient = &http.Client{Transport: counters[i], Timeout: 30 * time.Second}
	}
}

// gmSpecs returns k distinct closed-form specs that build in
// microseconds.
func gmSpecs(k int) []service.Spec {
	specs := make([]service.Spec, k)
	for i := range specs {
		specs[i] = service.Spec{Kind: service.KindGeometric, N: 8, Alpha: 0.1 + 0.8*float64(i)/float64(k)}
	}
	return specs
}

// buildOn makes every spec ready on tn.
func buildOn(t testing.TB, tn *testNode, specs []service.Spec) {
	t.Helper()
	for _, spec := range specs {
		if _, err := tn.svc.Get(spec); err != nil {
			t.Fatalf("build %s: %v", spec.ID(), err)
		}
	}
}

// syncAll runs one pass on every node.
func syncAll(t testing.TB, ctx context.Context, fleet []*testNode) {
	t.Helper()
	for _, tn := range fleet {
		if err := tn.node.SyncNow(ctx); err != nil {
			t.Fatalf("SyncNow on %s: %v", tn.url, err)
		}
	}
}

// TestClusterConvergedPassIsOneListPerPeer: once the replicas agree, a
// sync pass sends one GET /v2/mechanisms per peer and no artifact
// request at all.
func TestClusterConvergedPassIsOneListPerPeer(t *testing.T) {
	counters := []*requestCounter{{}, {}, {}}
	fleet := startFleet(t, 3, 3, countRequests(counters))
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	specs := gmSpecs(5)
	buildOn(t, fleet[0], specs)
	syncAll(t, ctx, fleet)
	for i, tn := range fleet {
		for _, spec := range specs {
			if e, err := tn.svc.Peek(spec); err != nil || e.State() != service.BuildReady {
				t.Fatalf("node %d: %s not ready after one pass (err=%v)", i, spec.ID(), err)
			}
		}
	}

	for i, tn := range fleet {
		c := counters[i]
		lists, artifacts, other := c.lists.Load(), c.artifacts.Load(), c.other.Load()
		if err := tn.node.SyncNow(ctx); err != nil {
			t.Fatalf("node %d: converged SyncNow: %v", i, err)
		}
		if got := c.lists.Load() - lists; got != 2 {
			t.Errorf("node %d: converged pass sent %d list requests, want 1 per peer (2)", i, got)
		}
		if got := c.artifacts.Load() - artifacts; got != 0 {
			t.Errorf("node %d: converged pass sent %d artifact requests, want 0", i, got)
		}
		if got := c.other.Load() - other; got != 0 {
			t.Errorf("node %d: converged pass sent %d other requests, want 0", i, got)
		}
	}
}

// waitStored waits until the store holds n artifacts: imports persist
// in the background.
func waitStored(t testing.TB, store *service.MemStore, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for store.Len() < n {
		if time.Now().After(deadline) {
			t.Fatalf("store holds %d artifacts, want %d", store.Len(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestClusterEvictedReplicaStaysPut: a replica whose cache is smaller
// than what it owns keeps the evicted artifacts in its store. A second
// pass pulls nothing, an evicted ID is served from the store with no
// build, and a node restarted on the filled store pulls nothing either.
func TestClusterEvictedReplicaStaysPut(t *testing.T) {
	const capacity = 2
	small := func(i int, sc *service.Config, _ *cluster.Config) {
		if i == 1 {
			sc.Capacity, sc.Shards = capacity, 1
		}
	}
	fleet := startFleet(t, 2, 2, small)
	a, b := fleet[0], fleet[1]
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	specs := gmSpecs(6)
	buildOn(t, a, specs)

	if err := b.node.SyncNow(ctx); err != nil {
		t.Fatalf("first SyncNow: %v", err)
	}
	first := b.node.Status()
	if first.SyncPulls != int64(len(specs)) {
		t.Fatalf("first pass pulled %d, want %d", first.SyncPulls, len(specs))
	}
	if st := b.svc.Stats(); st.Entries != capacity || st.Evictions == 0 {
		t.Fatalf("B caches %d entries with %d evictions, want %d and some", st.Entries, st.Evictions, capacity)
	}
	waitStored(t, b.store, len(specs))

	if err := b.node.SyncNow(ctx); err != nil {
		t.Fatalf("second SyncNow: %v", err)
	}
	second := b.node.Status()
	if second.SyncPulls != first.SyncPulls || second.SyncBytes != first.SyncBytes {
		t.Fatalf("second pass re-pulled evicted replicas: pulls %d -> %d, bytes %d -> %d",
			first.SyncPulls, second.SyncPulls, first.SyncBytes, second.SyncBytes)
	}
	if second.SyncConflicts != 0 || second.SyncErrors != 0 {
		t.Fatalf("second pass: conflicts=%d errors=%d, want 0, 0", second.SyncConflicts, second.SyncErrors)
	}

	var evicted service.Spec
	for _, spec := range specs {
		if _, err := b.svc.Peek(spec); err != nil {
			evicted = spec
			break
		}
	}
	before := b.svc.Stats()
	if _, err := b.svc.Sample(evicted, 3); err != nil {
		t.Fatalf("Sample on evicted %s: %v", evicted.ID(), err)
	}
	after := b.svc.Stats()
	if after.StoreHits != before.StoreHits+1 || after.Builds != 0 {
		t.Fatalf("evicted %s: store hits %d -> %d, builds %d; want one store hit and 0 builds",
			evicted.ID(), before.StoreHits, after.StoreHits, after.Builds)
	}

	// Restart B on its filled store: a fresh service and node under B's
	// URL. Every owned artifact is held in the store, so nothing moves.
	svc2 := service.New(service.Config{Capacity: capacity, Shards: 1, Store: b.store})
	defer svc2.Close()
	node2, err := cluster.New(svc2, cluster.Config{
		Self:         b.url,
		Membership:   cluster.Static([]cluster.Peer{{URL: a.url}, {URL: b.url}}),
		Replication:  2,
		PollInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer node2.Close()
	if err := node2.SyncNow(ctx); err != nil {
		t.Fatalf("post-restart SyncNow: %v", err)
	}
	if st := node2.Status(); st.SyncPulls != 0 || st.SyncConflicts != 0 {
		t.Fatalf("restart on a filled store: pulls=%d conflicts=%d, want 0, 0", st.SyncPulls, st.SyncConflicts)
	}
}

// readCounter is a Store that counts its Get calls.
type readCounter struct {
	service.Store
	gets atomic.Int64
}

func (r *readCounter) Get(id string) ([]byte, error) {
	r.gets.Add(1)
	return r.Store.Get(id)
}

// BenchmarkSyncPassConverged times one SyncNow on a replica of a
// converged three-node, R=3 fleet holding 64 ready mechanisms, and
// reports the peer requests the pass sends (one list per peer when
// converged) and the replica's store reads. In "ready" the replica
// caches every ID, so a pass reads nothing; in "evicted" its cache holds
// 8, so a pass re-reads and hashes the stored copy of each evicted ID
// once per peer that lists it.
func BenchmarkSyncPassConverged(b *testing.B) {
	b.Run("ready", func(b *testing.B) { benchSyncPass(b, 256, 0) })
	b.Run("evicted", func(b *testing.B) { benchSyncPass(b, 8, 1) })
}

// benchSyncPass runs BenchmarkSyncPassConverged with the replica's
// cache at capacity entries over shards (0: the default).
func benchSyncPass(b *testing.B, capacity, shards int) {
	counters := []*requestCounter{{}, {}, {}}
	var reads *readCounter
	sizes := func(i int, sc *service.Config, _ *cluster.Config) {
		sc.Capacity = 256
		if i == 1 {
			sc.Capacity, sc.Shards = capacity, shards
			reads = &readCounter{Store: sc.Store}
			sc.Store = reads
		}
	}
	fleet := startFleet(b, 3, 3, sizes, countRequests(counters))
	ctx := context.Background()
	specs := gmSpecs(64)
	buildOn(b, fleet[0], specs)
	syncAll(b, ctx, fleet)
	waitStored(b, fleet[1].store, len(specs))
	node, c := fleet[1].node, counters[1]
	start, startReads := c.total(), reads.gets.Load()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := node.SyncNow(ctx); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(c.total()-start)/float64(b.N), "requests/pass")
	b.ReportMetric(float64(reads.gets.Load()-startReads)/float64(b.N), "store_reads/pass")
	if st := node.Status(); st.SyncPulls != int64(len(specs)) {
		b.Fatalf("pulls = %d, want %d", st.SyncPulls, len(specs))
	}
}

// TestClusterStartedTogetherCountsNoSyncErrors: three nodes whose sync
// loops start before any of them listens converge with no sync error,
// and a peer that dies afterwards is still counted by the survivors.
func TestClusterStartedTogetherCountsNoSyncErrors(t *testing.T) {
	const poll = 600 * time.Millisecond
	addrs := make([]string, 3)
	peers := make([]cluster.Peer, len(addrs))
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		addrs[i] = l.Addr().String()
		peers[i] = cluster.Peer{URL: "http://" + addrs[i]}
		l.Close() // nothing listens until every node has started
	}
	nodes := make([]*cluster.Node, len(addrs))
	muxes := make([]http.Handler, len(addrs))
	for i := range nodes {
		svc := service.New(service.Config{Capacity: 8})
		t.Cleanup(svc.Close)
		node, err := cluster.New(svc, cluster.Config{
			Self: peers[i].URL, Membership: cluster.Static(peers), Replication: 3, PollInterval: poll,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(node.Close)
		node.Start()
		nodes[i] = node
		muxes[i] = httpapi.NewMuxWithCluster(svc, metrics.NewRegistry(), node)
	}
	// Daemons started together still come up over some milliseconds.
	time.Sleep(50 * time.Millisecond)
	servers := make([]*httptest.Server, len(addrs))
	for i, addr := range addrs {
		l, err := net.Listen("tcp", addr)
		if err != nil {
			t.Fatalf("listen again on %s: %v", addr, err)
		}
		srv := httptest.NewUnstartedServer(muxes[i])
		srv.Listener.Close()
		srv.Listener = l
		srv.Start()
		t.Cleanup(srv.Close)
		servers[i] = srv
	}

	// waitPasses waits until node has completed at least k passes.
	waitPasses := func(node *cluster.Node, k int64) cluster.Status {
		t.Helper()
		deadline := time.Now().Add(20 * time.Second)
		for {
			st := node.Status()
			if st.SyncPasses >= k {
				return st
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s completed %d sync passes, want %d", st.Self, st.SyncPasses, k)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	for _, node := range nodes {
		if st := waitPasses(node, 2); st.SyncErrors != 0 {
			t.Errorf("%s counted %d sync errors on a healthy fleet, want 0", st.Self, st.SyncErrors)
		}
	}

	servers[2].Close()
	nodes[2].Close()
	for _, node := range nodes[:2] {
		if st := waitPasses(node, node.Status().SyncPasses+2); st.SyncErrors == 0 {
			t.Errorf("%s counted no sync error after a peer died", st.Self)
		}
	}
}
