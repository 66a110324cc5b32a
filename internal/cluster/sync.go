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
// the mechanism list and compare each ready ID this node owns or replicates with the local
// copy, by the artifact ETag the list carries. A copy is local when the
// cache holds it ready or the store holds it: an evicted replica stays
// a replica and reloads from the store on its next query. Equal ETags
// are agreement and send nothing; an ID held nowhere locally is pulled;
// a different ETag is counted as a conflict and the local copy is kept
// — artifacts are content-addressed and every build, LP solves
// included, is a function of its spec alone, so a conflict signals
// peer divergence worth alerting on, not data to merge. A converged
// pass is therefore one list request per peer.
//
// The returned error aggregates per-peer failures; a partially failed
// pass still imports everything reachable. Tests drive this directly;
// production nodes get it from the Start loop.
func (n *Node) SyncNow(ctx context.Context) error {
	n.pruneETags()
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
		local, held := n.localETag(m.ID)
		switch {
		case !held:
			if err := n.pullArtifact(ctx, peerURL, m.ID); err != nil {
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
func (n *Node) pullArtifact(ctx context.Context, peerURL, id string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		peerURL+"/v2/mechanisms/"+id+"/artifact", nil)
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
	n.setETag(id, heldTag{etag: service.ArtifactETag(data)})
	return nil
}

// heldTag is the ETag of a local copy and where it was read: from the
// ready cache entry's install, or from the bytes in the store.
type heldTag struct {
	etag   string
	stored bool
}

// localETag returns the content ETag of the local copy of id — the
// ready cache entry's, else the stored artifact's — or ok=false when
// this node holds neither. The result is cached per ID and reused
// across peers and passes (pruneETags drops it once the copy is gone),
// so each ETag is computed, or its stored bytes read, once.
func (n *Node) localETag(id string) (etag string, ok bool) {
	n.etagMu.Lock()
	h, ok := n.etags[id]
	n.etagMu.Unlock()
	if ok {
		return h.etag, true
	}
	spec, err := service.ParseSpec(id)
	if err != nil {
		return "", false
	}
	if h.etag, err = n.svc.ExportETag(spec); err != nil {
		// Not ready in the cache: an evicted replica's durable copy
		// may still be in the store.
		if h.etag, err = n.svc.StoredETag(spec); err != nil {
			return "", false
		}
		h.stored = true
	}
	n.setETag(id, h)
	return h.etag, true
}

func (n *Node) setETag(id string, h heldTag) {
	n.etagMu.Lock()
	n.etags[id] = h
	n.etagMu.Unlock()
}

// pruneETags runs at the start of a pass. It drops cached ETags for IDs
// this node no longer holds — neither ready in the cache nor in the
// store — so an eviction or a quarantine is re-observed. A tag read
// from the store is also dropped once the ID is ready in the cache, so
// the pass compares the install that serves it (a quarantined stored
// copy's rebuild, say).
func (n *Node) pruneETags() {
	ready := make(map[string]bool)
	for _, info := range n.svc.Entries() {
		if info.State == service.BuildReady {
			ready[info.Spec.ID()] = true
		}
	}
	ids, err := n.svc.StoredIDs()
	if err != nil {
		n.cfg.Logf("cluster: list store: %v", err)
	}
	stored := make(map[string]bool, len(ids))
	for _, id := range ids {
		stored[id] = true
	}
	n.etagMu.Lock()
	for id, h := range n.etags {
		if ready[id] && h.stored || !ready[id] && !stored[id] {
			delete(n.etags, id)
		}
	}
	n.etagMu.Unlock()
}
