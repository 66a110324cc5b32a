// Cluster request routing: the HTTP layer's half of internal/cluster.
//
// A fleet member serves an ID-keyed route itself when it owns or
// replicates the ID (or already holds the mechanism warm); anything
// else is proxied to the ring owner over the node's peer HTTP client.
// cluster.Node.ForwardTo makes that decision, once per request. A
// buffered POST /v2/query asks it once per op and sends each owner its
// ops in one hop (forwardHop). Routed requests carry
// cluster.RoutedHeader, and a request arriving with that header is
// always served locally — two nodes started with different -peers
// lists can therefore disagree about ownership without bouncing a
// request between each other.

package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"privcount/client"
	"privcount/internal/cluster"
	"privcount/internal/service"
)

// routed wraps an ID-keyed handler with cluster ownership routing. On a
// single-box mux it is the identity; on a fleet member it serves
// locally when this node should hold the mechanism (owner or replica),
// already holds it warm, or the request was already routed once — and
// otherwise proxies to the ring owner.
func (a *api) routed(h http.HandlerFunc) http.HandlerFunc {
	if a.node == nil {
		return h
	}
	return func(w http.ResponseWriter, r *http.Request) {
		spec, err := pathSpec(r)
		if err != nil {
			// Malformed IDs hash nowhere; let the handler write the
			// taxonomy error.
			h(w, r)
			return
		}
		if r.Header.Get(cluster.RoutedHeader) == "" {
			if owner, ok := a.node.ForwardTo(spec.ID()); ok && !a.readyLocally(spec) {
				a.proxyTo(w, r, owner)
				return
			}
		}
		h(w, r)
	}
}

// readyLocally reports whether this node already holds the mechanism
// warm, so a non-owner with a ready copy serves it rather than bouncing
// traffic to the owner. The ring is fixed at start, so a non-owner gets
// one two ways: a local fallback run after a failed hop to the owner,
// or a routed request from a node started with another -peers list.
func (a *api) readyLocally(spec service.Spec) bool {
	e, err := a.svc.Peek(spec)
	return err == nil && e.State() == service.BuildReady
}

// proxyHeaders are the request headers a proxy hop relays; everything
// else (tracing, auth experiments) stops at the edge node.
var proxyHeaders = []string{"Content-Type", "Accept", "If-None-Match", "Content-Length"}

// relayHeaders are the response headers relayed back from the owner.
var relayHeaders = []string{"Content-Type", "ETag", "Retry-After", "Link", "Location"}

// proxyTo relays the request to the owner node and copies the response
// back verbatim. The forwarded request carries cluster.RoutedHeader so
// the owner serves it locally no matter what its own ring says.
func (a *api) proxyTo(w http.ResponseWriter, r *http.Request, owner string) {
	preq, err := http.NewRequestWithContext(r.Context(), r.Method, owner+r.URL.RequestURI(), r.Body)
	if err != nil {
		a.writeProxyError(w, owner, err)
		return
	}
	for _, k := range proxyHeaders {
		if v := r.Header.Get(k); v != "" {
			preq.Header.Set(k, v)
		}
	}
	preq.ContentLength = r.ContentLength
	preq.Header.Set(cluster.RoutedHeader, a.node.Self())
	resp, err := a.node.Client().Do(preq)
	if err != nil {
		a.writeProxyError(w, owner, err)
		return
	}
	defer resp.Body.Close()
	for _, k := range relayHeaders {
		if v := resp.Header.Get(k); v != "" {
			w.Header().Set(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	if _, err := io.Copy(w, resp.Body); err != nil {
		// The status line is committed; nothing to do but log-by-metric.
		a.errorCodes.With(string(client.CodeBuildCanceled)).Inc()
	}
}

// writeProxyError reports an unreachable owner: 502 with the retryable
// build_canceled code, so SDK retry policies treat a dead peer like any
// other transient server condition.
func (a *api) writeProxyError(w http.ResponseWriter, owner string, err error) {
	e := &client.Error{
		Code:       client.CodeBuildCanceled,
		Message:    fmt.Sprintf("cluster proxy to owner %s failed: %v", owner, err),
		HTTPStatus: http.StatusBadGateway,
	}
	a.countError(e)
	writeJSON(w, e.HTTPStatus, client.Envelope{Error: e})
}

// forwardHopTimeout bounds one forwarded hop independently of the
// enclosing request: the local fallback needs time left on the clock.
const forwardHopTimeout = 30 * time.Second

// forwardGroup is the ops of one query batch bound for one owner: their
// indices in the batch, in batch order.
type forwardGroup struct {
	owner string
	idx   []int
}

// addToGroup appends op i to owner's group, starting the group on the
// owner's first op. A fleet has few peers, so the scan is short.
func addToGroup(groups []forwardGroup, owner string, i int) []forwardGroup {
	for k := range groups {
		if groups[k].owner == owner {
			groups[k].idx = append(groups[k].idx, i)
			return groups
		}
	}
	return append(groups, forwardGroup{owner: owner, idx: []int{i}})
}

// forwardHop sends g's ops to their owner as one routed POST
// /v2/query and scatters the answers into results by index. It returns
// false, having written no result, when the hop fails — transport
// error, non-200 status, wrong result count or undecodable body — and
// the group should run locally.
func (a *api) forwardHop(ctx context.Context, g forwardGroup, ops []client.Op, results []client.OpResult) bool {
	group := make([]client.Op, len(g.idx))
	for k, i := range g.idx {
		group[k] = ops[i]
	}
	body, err := json.Marshal(client.QueryRequest{Ops: group})
	if err != nil {
		return false
	}
	ctx, cancel := context.WithTimeout(ctx, forwardHopTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, g.owner+"/v2/query", bytes.NewReader(body))
	if err != nil {
		return false
	}
	req.Header.Set("Content-Type", client.ContentTypeJSON)
	req.Header.Set(cluster.RoutedHeader, a.node.Self())
	a.forwardHops.Inc()
	a.forwardedOps.Add(float64(len(group)))
	resp, err := a.node.Client().Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return false
	}
	var qr client.QueryResponse
	if err := json.NewDecoder(io.LimitReader(resp.Body, 16<<20)).Decode(&qr); err != nil || len(qr.Results) != len(group) {
		return false
	}
	for k, i := range g.idx {
		if e := qr.Results[k].Error; e != nil {
			// The owner answered with a taxonomy error — that is the
			// result (it counted the code on its side; count it here
			// too, since this node's response carries it).
			a.countError(e)
		}
		results[i] = qr.Results[k]
	}
	return true
}

// getCluster serves GET /v2/cluster: the node's ring membership, sync
// counters, and ownership snapshot.
func (a *api) getCluster(w http.ResponseWriter, _ *http.Request) {
	st := a.node.Status()
	doc := client.ClusterStatus{
		Self:             st.Self,
		Peers:            st.Peers,
		Replication:      st.Replication,
		VirtualNodes:     st.VirtualNodes,
		RouteMode:        "proxy", // the only mode; the field stays on the wire
		PollSeconds:      st.PollInterval.Seconds(),
		SyncPasses:       st.SyncPasses,
		SyncPulls:        st.SyncPulls,
		SyncBytes:        st.SyncBytes,
		SyncConflicts:    st.SyncConflicts,
		SyncRejects:      st.SyncRejects,
		SyncErrors:       st.SyncErrors,
		OwnedMechanisms:  st.OwnedMechanisms,
		CachedMechanisms: st.CachedMechanisms,
	}
	if !st.LastSync.IsZero() {
		doc.LastSyncUnix = st.LastSync.Unix()
	}
	writeJSON(w, http.StatusOK, doc)
}
