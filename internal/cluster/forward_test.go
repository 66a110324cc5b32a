package cluster_test

import (
	"context"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"privcount/client"
	"privcount/internal/service"
)

// specsOwnedBy returns k closed-form specs whose ring owner is owner.
// The forwarding fleets run at R=1, where owning an ID means being its
// only holder.
func specsOwnedBy(t testing.TB, owner *testNode, k int) []service.Spec {
	t.Helper()
	var out []service.Spec
	for i := 0; len(out) < k; i++ {
		if i == 1000 {
			t.Fatalf("%s owns fewer than %d of 1000 gm specs", owner.url, k)
		}
		spec := service.Spec{Kind: service.KindGeometric, N: 8 + i, Alpha: 0.5}
		if owner.node.Owns(spec.ID()) {
			out = append(out, spec)
		}
	}
	return out
}

// mixedBatch is an 8-op query naming two specs of the entry node
// (fleet[0]) and three of each other node, interleaved, so forwarded ops
// of one owner are not adjacent in the batch.
func mixedBatch(t testing.TB, fleet []*testNode) []client.Op {
	t.Helper()
	local, b, c := specsOwnedBy(t, fleet[0], 2), specsOwnedBy(t, fleet[1], 3), specsOwnedBy(t, fleet[2], 3)
	order := []service.Spec{b[0], local[0], c[0], b[1], c[1], local[1], b[2], c[2]}
	seed := uint64(11)
	ops := make([]client.Op, len(order))
	for i, spec := range order {
		switch i % 3 {
		case 0:
			ops[i] = client.Op{Op: client.OpBatch, ID: spec.ID(), Counts: []int{0, 3, spec.N}, Seed: &seed}
		case 1:
			ops[i] = client.Op{Op: client.OpSample, ID: spec.ID(), Count: 2}
		default:
			ops[i] = client.Op{Op: client.OpEstimate, ID: spec.ID(), Outputs: []int{1, 2, 3}}
		}
	}
	return ops
}

// TestClusterForwardedBatchOneHopPerOwner: an 8-op batch naming
// mechanisms of both other nodes sends exactly one POST /v2/query to
// each, and every op runs on its owner.
func TestClusterForwardedBatchOneHopPerOwner(t *testing.T) {
	counters := []*requestCounter{{}, {}, {}}
	fleet := startFleet(t, 3, 1, countRequests(counters))
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	ops := mixedBatch(t, fleet)
	entry, err := client.New(fleet[0].url)
	if err != nil {
		t.Fatal(err)
	}
	res, err := entry.Query(ctx, ops)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r.Error != nil {
			t.Fatalf("op %d (%s %s): %v", i, ops[i].Op, ops[i].ID, r.Err())
		}
	}
	if got := counters[0].queries.Load(); got != 2 {
		t.Errorf("entry sent %d peer query POSTs, want 2 (one per owner)", got)
	}
	for i, want := range []int64{2, 3, 3} {
		if got := fleet[i].svc.Stats().Builds; got != want {
			t.Errorf("node %d built %d mechanisms, want %d", i, got, want)
		}
	}
}

// TestClusterForwardedGroupMatchesOwner: a forwarded group answers
// exactly what its owner answers locally — seeded batches draw the same
// outputs — and a bad op keeps its own error code while its groupmates
// succeed.
func TestClusterForwardedGroupMatchesOwner(t *testing.T) {
	counters := []*requestCounter{{}, {}, {}}
	fleet := startFleet(t, 3, 1, countRequests(counters))
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	specs := specsOwnedBy(t, fleet[1], 2)
	seed := uint64(5)
	ops := []client.Op{
		{Op: client.OpBatch, ID: specs[0].ID(), Counts: []int{1, 2, 3, 4}, Seed: &seed},
		{Op: client.OpBatch, ID: specs[1].ID(), Counts: []int{specs[1].N + 1}, Seed: &seed},
		{Op: client.OpBatch, ID: specs[1].ID(), Counts: []int{0, specs[1].N}, Seed: &seed},
	}
	query := func(tn *testNode) []client.OpResult {
		c, err := client.New(tn.url)
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Query(ctx, ops)
		if err != nil {
			t.Fatalf("query on %s: %v", tn.url, err)
		}
		return res
	}
	forwarded := query(fleet[0])
	if got := counters[0].queries.Load(); got != 1 {
		t.Fatalf("entry sent %d peer query POSTs, want 1", got)
	}
	if got := fleet[0].svc.Stats().Builds; got != 0 {
		t.Fatalf("entry built %d mechanisms, want 0", got)
	}
	direct := query(fleet[1])
	if !reflect.DeepEqual(forwarded, direct) {
		t.Fatalf("forwarded results %+v differ from the owner's %+v", forwarded, direct)
	}
	if forwarded[0].Error != nil || forwarded[2].Error != nil {
		t.Fatalf("groupmates of the bad op failed: %v, %v", forwarded[0].Err(), forwarded[2].Err())
	}
	if e := forwarded[1].Error; e == nil || e.Code != client.CodeSpecInvalid {
		t.Fatalf("bad op answered %+v, want spec_invalid", e)
	}
	if body := scrape(t, fleet[0].url); !strings.Contains(body, `privcount_http_errors_total{code="spec_invalid"} 1`) {
		t.Errorf("entry did not count the forwarded op's error once:\n%s", body)
	}
}

// scrape returns the node's /metrics exposition.
func scrape(t testing.TB, url string) string {
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

// BenchmarkQueryForwardedBatch times the mixed 8-op batch of
// TestClusterForwardedBatchOneHopPerOwner against a warm three-node
// fleet, and reports the peer hops the entry node sends per batch.
func BenchmarkQueryForwardedBatch(b *testing.B) {
	counters := []*requestCounter{{}, {}, {}}
	fleet := startFleet(b, 3, 1, countRequests(counters))
	ctx := context.Background()
	ops := mixedBatch(b, fleet)
	entry, err := client.New(fleet[0].url)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := entry.Query(ctx, ops); err != nil { // builds every mechanism
		b.Fatal(err)
	}
	start := counters[0].queries.Load()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := entry.Query(ctx, ops); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(counters[0].queries.Load()-start)/float64(b.N), "hops/op")
}
