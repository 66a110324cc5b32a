package service

import (
	"errors"
	"fmt"
)

// This file wires a Store (store.go) under the in-memory cache as a
// read-through/write-behind tier, and exposes the artifact import and
// export operations the /v2 artifact API serves. The layering: a cache
// miss admits a build as before, but the worker first tries O(read) —
// fetch, decode, verify, instantiate a stored artifact — and only falls
// back to O(simplex) when the store misses or the artifact fails
// verification (which also quarantines it). Every successful solve is
// persisted asynchronously, off the worker, so the solve's latency is
// never extended by disk I/O.

// ErrNotReady reports an artifact export for a mechanism that is still
// pending or building; the caller can retry once the build settles.
var ErrNotReady = errors.New("service: mechanism not ready")

// loadFromStore attempts the O(read) path for spec: fetch the encoded
// artifact, decode, verify it is for this exact spec, and rebuild the
// serving tables. Any failure is a miss (corrupt or mismatched
// artifacts are additionally quarantined) and the caller falls back to
// a solve — the store can only ever make a build cheaper, never fail
// it.
func (s *Service) loadFromStore(spec Spec) (buildResult, bool) {
	if s.store.backend == nil {
		return buildResult{}, false
	}
	id := spec.ID()
	data, err := s.store.backend.Get(id)
	if err != nil {
		s.store.misses.Add(1)
		return buildResult{}, false
	}
	s.store.bytesRead.Add(int64(len(data)))
	a, err := DecodeArtifact(data)
	if err == nil && a.Spec != spec {
		err = fmt.Errorf("%w: stored under %s but encodes %s", ErrArtifactInvalid, id, a.Spec.ID())
	}
	var res buildResult
	if err == nil {
		res, err = a.result()
	}
	if err != nil {
		s.store.misses.Add(1)
		s.quarantine(id)
		return buildResult{}, false
	}
	s.store.hits.Add(1)
	return res, true
}

// quarantine moves a bad artifact out of the store's namespace —
// renamed aside when the store supports it, deleted otherwise — so the
// next read is a clean miss instead of a repeated decode failure.
func (s *Service) quarantine(id string) {
	s.store.quarantines.Add(1)
	if q, ok := s.store.backend.(Quarantiner); ok {
		_ = q.Quarantine(id)
		return
	}
	_ = s.store.backend.Delete(id)
}

// persistAsync schedules res's artifact to be encoded and written to
// the store off the worker goroutine. During shutdown (Close has
// closed the pipeline) it persists inline instead, so the write is
// still covered by Close's drain rather than racing process exit.
func (s *Service) persistAsync(spec Spec, res buildResult) {
	if s.store.backend == nil {
		return
	}
	s.build.sendMu.RLock()
	if s.build.closed {
		s.build.sendMu.RUnlock()
		s.persist(spec, res)
		return
	}
	s.store.wg.Add(1)
	s.build.sendMu.RUnlock()
	go func() {
		defer s.store.wg.Done()
		s.persist(spec, res)
	}()
}

// persist encodes and writes one built mechanism. Failures only bump a
// counter: the mechanism is already serving from memory, and the next
// cold start simply solves again.
func (s *Service) persist(spec Spec, res buildResult) {
	data := newArtifact(spec, res.tables, res.mech).Encode()
	if err := s.store.backend.Put(spec.ID(), data); err != nil {
		s.store.putFails.Add(1)
		return
	}
	s.store.bytesWritten.Add(int64(len(data)))
}

// ExportArtifact encodes the built mechanism for spec in its canonical
// artifact form — the same bytes every replica produces for the same
// mechanism. Specs never admitted return ErrNotAdmitted (export never
// triggers a build), pending or in-flight builds ErrNotReady, and
// failed builds their build error.
func (s *Service) ExportArtifact(spec Spec) ([]byte, error) {
	data, _, err := s.ExportArtifactTagged(spec, nil)
	return data, err
}

// ExportETag returns the ETag of spec's canonical artifact (see
// ArtifactETag) with the errors of ExportArtifact. It is computed at
// most once per installed table set, so a repeat call encodes nothing.
func (s *Service) ExportETag(spec Spec) (string, error) {
	_, etag, err := s.ExportArtifactTagged(spec, func(string) bool { return true })
	return etag, err
}

// ExportArtifactTagged returns spec's canonical artifact and its ETag,
// both from one installed table set, with the errors of ExportArtifact.
// The ETag is computed at most once per installed table set. When
// notModified reports true for it, nothing is encoded and data is nil:
// a conditional GET that matches answers without encoding.
func (s *Service) ExportArtifactTagged(spec Spec, notModified func(etag string) bool) (data []byte, etag string, err error) {
	e, err := s.Peek(spec)
	if err != nil {
		return nil, "", err
	}
	e.mu.Lock()
	state, berr, in := BuildState(e.state.Load()), e.buildErr, e.serving.Load()
	e.mu.Unlock()
	switch state {
	case BuildReady:
	case BuildFailed:
		return nil, "", buildError(e.spec, berr)
	default:
		return nil, "", fmt.Errorf("%w: %s is still building", ErrNotReady, e.spec.ID())
	}
	t, tag := in.tables, &in.tag
	tag.once.Do(func() {
		if data, tag.err = encodeTables(e.spec, t); tag.err == nil {
			tag.etag = ArtifactETag(data)
		}
	})
	if tag.err != nil {
		return nil, "", tag.err
	}
	if notModified != nil && notModified(tag.etag) {
		return nil, tag.etag, nil
	}
	if data == nil {
		if data, err = encodeTables(e.spec, t); err != nil {
			return nil, "", err
		}
	}
	return data, tag.etag, nil
}

// HeldETag returns the ETag of the copy of spec this node holds: the
// ready entry's install ETag (see ExportETag), else the ETag of the
// bytes the store holds for spec, else ok=false. The store holds
// canonical encodings, so a stored copy's ETag is the one its entry
// carries once loaded. The stored bytes are read but neither decoded,
// verified nor quarantined: a bad artifact is found when a build loads
// it. HeldETag admits nothing, leaves the LRU order alone and counts no
// store hit or miss.
func (s *Service) HeldETag(spec Spec) (etag string, ok bool) {
	if spec.Validate() != nil {
		return "", false
	}
	if etag, err := s.ExportETag(spec); err == nil {
		return etag, true
	}
	if s.store.backend == nil {
		return "", false
	}
	data, err := s.store.backend.Get(spec.ID())
	if err != nil {
		return "", false
	}
	return ArtifactETag(data), true
}

// ImportArtifact installs a pre-built mechanism from its encoded
// artifact — the replica warm-sync path: a peer's export lands here and
// the spec becomes servable with no solve. The artifact is decoded,
// checked against spec, and fully re-verified (column-stochasticity,
// sampler reconstruction) before anything is installed; a bad artifact
// leaves the cache untouched and returns an error wrapping
// ErrArtifactInvalid. A successful import also persists the canonical
// bytes to the configured store, and counts as neither a build nor a
// store hit in Stats.
func (s *Service) ImportArtifact(spec Spec, data []byte) (BuildInfo, error) {
	if err := spec.Validate(); err != nil {
		return BuildInfo{}, err
	}
	spec = spec.Canonical()
	a, err := DecodeArtifact(data)
	if err != nil {
		return BuildInfo{}, err
	}
	if a.Spec != spec {
		return BuildInfo{}, fmt.Errorf("%w: artifact encodes %s, not %s", ErrArtifactInvalid, a.Spec.ID(), spec.ID())
	}
	res, err := a.result()
	if err != nil {
		return BuildInfo{}, err
	}

	sh := s.shards[spec.hash()&s.mask]
	e := sh.get(spec, 0)
	for {
		e.mu.Lock()
		if BuildState(e.state.Load()) == BuildRunning {
			// A worker owns the entry. Cancel its solve — the import
			// supersedes it — and wait for the worker to settle before
			// installing, so the worker's unconditional field writes
			// cannot clobber ours.
			if e.cancel != nil {
				e.cancel(ErrBuildAbandoned)
			}
			done := e.done
			e.mu.Unlock()
			if done != nil {
				<-done
			}
			continue
		}
		// Pending (queued or not), failed, or already ready: install. A
		// queued entry left in the channel is harmless — runBuild skips
		// anything no longer pending.
		e.installLocked(res.tables)
		e.mu.Unlock()
		break
	}
	s.persistAsync(spec, res)
	return e.Info(), nil
}
