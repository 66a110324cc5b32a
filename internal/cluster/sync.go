package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"privcount/internal/service"
)

// maxSyncArtifactBytes caps a single pulled artifact at the limit the
// HTTP layer enforces on operator PUTs (MaxArtifactBytes in client and
// internal/service agree on 256 MiB), so a misbehaving peer cannot make
// the sync agent buffer unbounded data.
const maxSyncArtifactBytes = int64(service.MaxArtifactBytes)

// peerList is the slice of GET /v2/mechanisms the sync agent needs:
// IDs, states and artifact ETags. Decoding into client.MechanismList
// would work too, but this keeps the cluster package's wire coupling to
// the three fields the protocol actually reads.
type peerList struct {
	Mechanisms []struct {
		ID    string `json:"id"`
		State string `json:"state"`
		ETag  string `json:"etag"`
	} `json:"mechanisms"`
}

// syncOnce is the background loop body: one full pass, errors logged
// and counted but never fatal to the loop.
func (n *Node) syncOnce() {
	ctx, cancel := context.WithTimeout(context.Background(), n.cfg.PollInterval+30*time.Second)
	defer cancel()
	if err := n.SyncNow(ctx); err != nil {
		n.cfg.Logf("cluster: sync pass: %v", err)
	}
}

// SyncNow runs one warm-sync pass synchronously: for every peer, fetch
// the mechanism list and compare each ready ID this node owns or
// replicates with the local copy, by the artifact ETag the list
// carries. The service names the local copy (Service.HeldETag): the
// ready cache entry, else the artifact in the store, so an evicted
// replica stays a replica and reloads from the store on its next query.
// Equal ETags are agreement and send nothing; an ID held nowhere
// locally is pulled; a different ETag is counted as a conflict and the
// local copy is kept — artifacts are content-addressed and every build,
// LP solves included, is a function of its spec alone, so a conflict
// signals peer divergence worth alerting on, not data to merge. A
// converged pass is therefore one list request per peer, and the agent
// keeps no per-ID state between passes.
//
// The returned error aggregates per-peer failures; a partially failed
// pass still imports everything reachable. Tests drive this directly;
// production nodes get it from the Start loop.
func (n *Node) SyncNow(ctx context.Context) error {
	var errs []error
	for _, p := range n.ring.peers {
		if p.URL == n.cfg.Self {
			continue
		}
		if err := n.syncPeer(ctx, p.URL); err != nil {
			n.syncErrs.Add(1)
			n.cfg.Logf("cluster: peer %s: %v", p.URL, err)
			errs = append(errs, fmt.Errorf("peer %s: %w", p.URL, err))
		}
	}
	n.syncs.Add(1)
	n.lastSync.Store(time.Now().UnixNano())
	return errors.Join(errs...)
}

// syncPeer fetches one peer's mechanism list, pulls what this node
// owns and holds nowhere, and counts conflicts with what it holds.
func (n *Node) syncPeer(ctx context.Context, peerURL string) error {
	list, err := n.fetchList(ctx, peerURL)
	if err != nil {
		return err
	}
	var errs []error
	for _, m := range list.Mechanisms {
		if m.State != "ready" || !n.Owns(m.ID) {
			continue
		}
		spec, err := service.ParseSpec(m.ID)
		if err != nil {
			// A peer's list is outside input: a bad ID is an error,
			// not a pull.
			errs = append(errs, fmt.Errorf("%s: listed id: %w", m.ID, err))
			continue
		}
		local, held := n.svc.HeldETag(spec)
		switch {
		case !held:
			if err := n.pullArtifact(ctx, peerURL, spec); err != nil {
				errs = append(errs, fmt.Errorf("%s: %w", m.ID, err))
			}
		case m.ETag == "":
			// Nothing to compare the local copy with: an error, so a
			// peer that stops listing ETags is seen, not skipped.
			errs = append(errs, fmt.Errorf("%s: listed ready without an etag", m.ID))
		case m.ETag != local:
			// Deterministic encoding makes equal mechanisms byte-equal,
			// so this is real divergence; keep the local copy, count it.
			n.conflicts.Add(1)
			n.cfg.Logf("cluster: %s: peer %s holds a diverging artifact %s (local %s kept)", m.ID, peerURL, m.ETag, local)
		}
	}
	return errors.Join(errs...)
}

// fetchList GETs a peer's /v2/mechanisms.
func (n *Node) fetchList(ctx context.Context, peerURL string) (*peerList, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, peerURL+"/v2/mechanisms", nil)
	if err != nil {
		return nil, err
	}
	resp, err := n.cfg.HTTPClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer func() {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("list: unexpected status %d", resp.StatusCode)
	}
	var list peerList
	if err := json.NewDecoder(io.LimitReader(resp.Body, 16<<20)).Decode(&list); err != nil {
		return nil, fmt.Errorf("list: decode: %w", err)
	}
	return &list, nil
}

// pullArtifact fetches one artifact this node does not hold from a
// peer and imports it through the service's decode→verify→install
// path.
func (n *Node) pullArtifact(ctx context.Context, peerURL string, spec service.Spec) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		peerURL+"/v2/mechanisms/"+spec.ID()+"/artifact", nil)
	if err != nil {
		return err
	}
	resp, err := n.cfg.HTTPClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusNotFound, http.StatusConflict, http.StatusGone:
		// The entry moved on between the list and the pull (evicted,
		// re-building, retired). The next pass will see the new state.
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return nil
	default:
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("artifact: unexpected status %d", resp.StatusCode)
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxSyncArtifactBytes+1))
	if err != nil {
		return fmt.Errorf("artifact: read: %w", err)
	}
	if int64(len(data)) > maxSyncArtifactBytes {
		n.rejects.Add(1)
		return fmt.Errorf("artifact: exceeds %d bytes", maxSyncArtifactBytes)
	}
	if _, err := n.svc.ImportArtifact(spec, data); err != nil {
		// Same trust boundary as an operator PUT: decode, spec
		// cross-check, and full re-verification all ran and failed.
		n.rejects.Add(1)
		return fmt.Errorf("artifact: import: %w", err)
	}
	n.pulls.Add(1)
	n.pullBytes.Add(int64(len(data)))
	return nil
}
