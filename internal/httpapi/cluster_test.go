package httpapi

// Handler-level tests for the cluster routing layer: two real stacks
// (service + cluster node + mux) over loopback listeners, exercised at
// the HTTP surface. The full multi-node acceptance suite — warm sync,
// restart convergence, hostile peers — lives in internal/cluster; these
// tests pin the routing middleware's own behaviour from the handler
// package's side: proxy relay, dead-owner 502s, per-owner query
// forwarding with local fallback, and the /v2/cluster document.

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"privcount/client"
	"privcount/internal/cluster"
	"privcount/internal/metrics"
	"privcount/internal/service"
)

// clusterPair boots a two-node fleet with replication 1, so every ID
// has exactly one owner and the other node must route.
func clusterPair(t *testing.T) (a, b *httptest.Server, nodeA, nodeB *cluster.Node) {
	servers, nodes := clusterFleet(t, 2)
	return servers[0], servers[1], nodes[0], nodes[1]
}

// clusterFleet boots an n-node fleet with replication 1.
func clusterFleet(t *testing.T, n int) ([]*httptest.Server, []*cluster.Node) {
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
	servers := make([]*httptest.Server, n)
	nodes := make([]*cluster.Node, n)
	for i := range servers {
		svc := service.New(service.Config{Capacity: 32, Seed: uint64(i) + 1})
		node, err := cluster.New(svc, cluster.Config{
			Self:         peers[i].URL,
			Membership:   cluster.Static(peers),
			Replication:  1,
			PollInterval: time.Hour,
		})
		if err != nil {
			t.Fatalf("cluster.New: %v", err)
		}
		srv := httptest.NewUnstartedServer(NewMuxWithCluster(svc, metrics.NewRegistry(), node))
		srv.Listener.Close()
		srv.Listener = listeners[i]
		srv.Start()
		t.Cleanup(srv.Close)
		t.Cleanup(node.Close)
		t.Cleanup(svc.Close)
		servers[i] = srv
		nodes[i] = node
	}
	return servers, nodes
}

// idOwnedBy scans cheap geometric specs for one whose ring owner is
// (or is not, per want) the given node.
func idOwnedBy(t *testing.T, node *cluster.Node, want bool) string {
	t.Helper()
	for n := 4; n <= 4096; n++ {
		spec := service.Spec{Kind: service.KindGeometric, N: n, Alpha: 0.5}
		if node.Owns(spec.ID()) == want {
			return spec.ID()
		}
	}
	t.Fatalf("no spec with Owns == %v among n=4..4096", want)
	return ""
}

// TestRoutedProxyRelaysToOwner pins the proxy path: a PUT landing on
// the non-owner is relayed to the owner, which builds; the non-owner's
// service stays untouched.
func TestRoutedProxyRelaysToOwner(t *testing.T) {
	a, _, nodeA, nodeB := clusterPair(t)
	id := idOwnedBy(t, nodeA, false) // A must proxy it to B
	if !nodeB.Owns(id) {
		t.Fatalf("ring disagreement: neither node owns %s", id)
	}
	ca, err := client.New(a.URL)
	if err != nil {
		t.Fatal(err)
	}
	ctx := t.Context()
	var spec service.Spec
	if err := spec.UnmarshalText([]byte(id)); err != nil {
		t.Fatal(err)
	}
	if _, err := ca.Create(ctx, spec); err != nil {
		t.Fatalf("Create via non-owner: %v", err)
	}
	if _, err := ca.WaitReady(ctx, spec); err != nil {
		t.Fatalf("WaitReady via non-owner: %v", err)
	}
	// The mechanism lives on the owner; the proxying node built nothing
	// and cached nothing.
	if st := nodeA.Status(); st.CachedMechanisms != 0 {
		t.Errorf("non-owner cached %d mechanisms, want 0", st.CachedMechanisms)
	}
	if st := nodeB.Status(); st.CachedMechanisms != 1 {
		t.Errorf("owner cached %d mechanisms, want 1", st.CachedMechanisms)
	}
}

// TestRoutedDeadOwnerIs502 pins writeProxyError: when the ring owner is
// unreachable the proxying node answers 502 with the retryable
// build_canceled code.
func TestRoutedDeadOwnerIs502(t *testing.T) {
	a, b, nodeA, _ := clusterPair(t)
	id := idOwnedBy(t, nodeA, false)
	b.Close() // the owner goes away
	resp, err := http.Get(a.URL + "/v2/mechanisms/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("status %d, want 502", resp.StatusCode)
	}
	var env client.Envelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if env.Error == nil || env.Error.Code != client.CodeBuildCanceled {
		t.Errorf("error = %+v, want build_canceled", env.Error)
	}
	if !client.IsRetryable(env.Error) {
		t.Error("dead-owner 502 must be retryable")
	}
}

// TestQueryForwardsOpsAndFallsBack pins the forwarding path: query ops
// for non-owned mechanisms execute on their owners, one hop per owner,
// and when one owner is dead only its group falls back to a local solve
// instead of failing.
func TestQueryForwardsOpsAndFallsBack(t *testing.T) {
	servers, nodes := clusterFleet(t, 3)
	idB, idC := idOwnedBy(t, nodes[1], true), idOwnedBy(t, nodes[2], true)
	ca, err := client.New(servers[0].URL)
	if err != nil {
		t.Fatal(err)
	}
	ctx := t.Context()
	ops := []client.Op{
		{Op: client.OpSample, ID: idB, Count: 2}, {Op: client.OpSample, ID: idC, Count: 1},
		{Op: client.OpSample, ID: idB, Count: 3}, {Op: client.OpSample, ID: idC, Count: 0},
	}
	query := func() {
		t.Helper()
		res, err := ca.Query(ctx, ops)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range res {
			if r.Error != nil {
				t.Fatalf("op %d: %v", i, r.Err())
			}
		}
	}
	query()
	for i, want := range []int{0, 1, 1} {
		if st := nodes[i].Status(); st.CachedMechanisms != want {
			t.Errorf("node %d cached %d mechanisms, want %d", i, st.CachedMechanisms, want)
		}
	}

	servers[2].Close()
	query()
	// Only the dead owner's mechanism is built here.
	if st := nodes[0].Status(); st.CachedMechanisms != 1 {
		t.Errorf("local fallback cached %d mechanisms, want 1", st.CachedMechanisms)
	}
	body := scrapeMetrics(t, servers[0].URL)
	for _, want := range []string{
		"privcount_forward_hops_total 4",
		"privcount_forwarded_ops_total 8",
		"privcount_forward_fallbacks_total 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// scrapeMetrics returns a server's /metrics exposition.
func scrapeMetrics(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// TestGetClusterDocument pins the /v2/cluster response shape against
// the node's own status.
func TestGetClusterDocument(t *testing.T) {
	a, _, nodeA, _ := clusterPair(t)
	resp, err := http.Get(a.URL + "/v2/cluster")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var doc client.ClusterStatus
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	st := nodeA.Status()
	if doc.Self != st.Self || len(doc.Peers) != 2 || doc.Replication != 1 || doc.RouteMode != "proxy" {
		t.Errorf("document = %+v, want self=%s peers=2 replication=1 proxy", doc, st.Self)
	}
	if doc.VirtualNodes != st.VirtualNodes || doc.PollSeconds != st.PollInterval.Seconds() {
		t.Errorf("ring parameters = %+v, want %+v", doc, st)
	}
}

// TestRoutedHeaderServesLocally pins loop prevention at the handler:
// a request carrying the routed header is answered locally even for a
// non-owned ID (here: 404 not_admitted, since nothing is cached).
func TestRoutedHeaderServesLocally(t *testing.T) {
	a, _, nodeA, _ := clusterPair(t)
	id := idOwnedBy(t, nodeA, false)
	req, err := http.NewRequest(http.MethodGet, a.URL+"/v2/mechanisms/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(cluster.RoutedHeader, "http://elsewhere:1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want local 404 not_admitted", resp.StatusCode)
	}
	var env client.Envelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if env.Error == nil || env.Error.Code != client.CodeNotAdmitted {
		t.Errorf("error = %+v, want not_admitted", env.Error)
	}
}
