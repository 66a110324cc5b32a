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

// maxSyncArtifactBytes caps a single pulled artifact, mirroring the
// limit the HTTP layer enforces on operator PUTs (MaxArtifactBytes in
// client and internal/service agree on 256 MiB) so a misbehaving peer
// cannot make the sync agent buffer unbounded data. A literal rather
// than the client constant: client imports this package for its ring,
// so the dependency must stay one-way.
const maxSyncArtifactBytes = int64(service.MaxArtifactBytes)

// peerList is the slice of GET /v2/mechanisms the sync agent needs:
// IDs and states. Decoding into client.MechanismList would work too,
// but this keeps the cluster package's wire coupling to the two fields
// the protocol actually reads.
type peerList struct {
	Mechanisms []struct {
		ID    string `json:"id"`
		State string `json:"state"`
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

// SyncNow runs one warm-sync pass synchronously: refresh the ring from
// the membership, then for every peer pull the mechanism list and
// import each ready artifact this node owns or replicates and does not
// already hold. Locally held copies are revalidated with a conditional
// GET (If-None-Match on the artifact's content ETag): a 304 confirms
// the replicas agree, a 200 with a different ETag is counted as a
// conflict and the local copy is kept — artifacts are content-addressed
// and every build, LP solves included, is a function of its spec alone,
// so a conflict signals peer divergence worth alerting on, not data to
// merge.
//
// The returned error aggregates per-peer failures; a partially failed
// pass still imports everything reachable. Tests drive this directly;
// production nodes get it from the Start loop.
func (n *Node) SyncNow(ctx context.Context) error {
	if err := n.refreshRing(); err != nil {
		// Keep routing and syncing on the previous ring rather than
		// halting the fleet on a bad membership read.
		n.syncErrs.Add(1)
		return fmt.Errorf("cluster: membership refresh: %w", err)
	}
	var errs []error
	for _, p := range n.ring.Load().Peers() {
		if p.URL == n.cfg.Self {
			continue
		}
		if err := n.syncPeer(ctx, p.URL); err != nil {
			n.syncErrs.Add(1)
			n.cfg.Logf("cluster: peer %s: %v", p.URL, err)
			errs = append(errs, fmt.Errorf("peer %s: %w", p.URL, err))
		}
	}
	n.pruneETags()
	n.syncs.Add(1)
	n.lastSync.Store(time.Now().UnixNano())
	return errors.Join(errs...)
}

// syncPeer pulls one peer's mechanism list and imports what this node
// is missing.
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
		if err := n.pullArtifact(ctx, peerURL, m.ID); err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", m.ID, err))
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

// pullArtifact fetches one artifact from a peer, conditionally when a
// local copy exists, and imports it through the service's
// decode→verify→install path.
func (n *Node) pullArtifact(ctx context.Context, peerURL, id string) error {
	local, haveLocal := n.localETag(id)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		peerURL+"/v2/mechanisms/"+id+"/artifact", nil)
	if err != nil {
		return err
	}
	if haveLocal {
		req.Header.Set("If-None-Match", local)
	}
	resp, err := n.cfg.HTTPClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusNotModified:
		// Replica agreement confirmed for free — no body travelled.
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return nil
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
	if haveLocal {
		// 200 against If-None-Match means the peer's bytes differ from
		// ours. Deterministic encoding makes equal mechanisms byte-equal,
		// so this is real divergence; keep the local copy, count it.
		n.conflicts.Add(1)
		n.cfg.Logf("cluster: %s: peer %s holds a diverging artifact (local %s kept)", id, peerURL, local)
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return nil
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxSyncArtifactBytes+1))
	if err != nil {
		return fmt.Errorf("artifact: read: %w", err)
	}
	if int64(len(data)) > maxSyncArtifactBytes {
		n.rejects.Add(1)
		return fmt.Errorf("artifact: exceeds %d bytes", maxSyncArtifactBytes)
	}
	spec, err := service.ParseSpec(id)
	if err != nil {
		n.rejects.Add(1)
		return fmt.Errorf("artifact: %w", err)
	}
	if _, err := n.svc.ImportArtifact(spec, data); err != nil {
		// Same trust boundary as an operator PUT: decode, spec
		// cross-check, and full re-verification all ran and failed.
		n.rejects.Add(1)
		return fmt.Errorf("artifact: import: %w", err)
	}
	n.pulls.Add(1)
	n.pullBytes.Add(int64(len(data)))
	n.setETag(id, service.ArtifactETag(data))
	return nil
}

// localETag returns the content ETag of the locally held ready artifact
// for id, or ok=false when this node does not hold it. The result is
// cached per ID and reused across peers and passes (pruneETags drops it
// once the ID is no longer ready), and on a miss the service computes it
// at most once per installed mechanism.
func (n *Node) localETag(id string) (etag string, ok bool) {
	n.etagMu.Lock()
	etag, ok = n.etags[id]
	n.etagMu.Unlock()
	if ok {
		return etag, true
	}
	spec, err := service.ParseSpec(id)
	if err != nil {
		return "", false
	}
	etag, err = n.svc.ExportETag(spec)
	if err != nil {
		// Not ready locally (or failed): nothing to revalidate, pull it.
		return "", false
	}
	n.setETag(id, etag)
	return etag, true
}

func (n *Node) setETag(id, etag string) {
	n.etagMu.Lock()
	n.etags[id] = etag
	n.etagMu.Unlock()
}

// pruneETags drops cached ETags for IDs no longer ready locally, so an
// eviction or supersede is re-observed instead of served from a stale
// cache entry.
func (n *Node) pruneETags() {
	ready := make(map[string]bool)
	for _, info := range n.svc.Entries() {
		if info.State == service.BuildReady {
			ready[info.Spec.ID()] = true
		}
	}
	n.etagMu.Lock()
	for id := range n.etags {
		if !ready[id] {
			delete(n.etags, id)
		}
	}
	n.etagMu.Unlock()
}
