package httpapi

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"privcount/client"
	"privcount/internal/service"
)

// This file serves the /v2 artifact routes: binary export and import of
// built mechanisms in the versioned artifact encoding (see
// internal/service's artifact codec). Export is how a replica or an
// offline cache is seeded from a warm peer; import (PUT) is the
// supported warm-sync path — the artifact is fully re-verified against
// the URL's spec before anything is installed.

// getArtifact exports the built mechanism named by {id} as its
// canonical artifact bytes. The ETag is the strong hash of those bytes;
// since encoding is deterministic, two replicas serving the same
// mechanism present the same ETag (the one GET /v2/mechanisms lists),
// and a matching If-None-Match answers 304. The service computes the
// ETag once per install, so a matching request encodes nothing. Mechanisms
// never admitted answer 404 (not_admitted — export never triggers a
// build) and unsettled builds 409 (not_ready).
func (a *api) getArtifact(w http.ResponseWriter, r *http.Request) {
	spec, err := pathSpec(r)
	if err != nil {
		a.writeV2Error(w, err)
		return
	}
	inm := r.Header.Get("If-None-Match")
	data, etag, err := a.svc.ExportArtifactTagged(spec, func(etag string) bool { return matchesETag(inm, etag) })
	if err != nil {
		a.writeV2Error(w, err)
		return
	}
	w.Header().Set("ETag", etag)
	if data == nil {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	w.Header().Set("Content-Type", client.ContentTypeArtifact)
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	if _, err := w.Write(data); err != nil {
		return
	}
}

// matchesETag reports whether an If-None-Match header value matches the
// strong etag (RFC 9110 §13.1.2: a list of quoted tags, or "*").
func matchesETag(header, etag string) bool {
	if header == "" {
		return false
	}
	for _, el := range strings.Split(header, ",") {
		el = strings.TrimSpace(el)
		el = strings.TrimPrefix(el, "W/") // weak comparison suffices for a GET
		if el == "*" || el == etag {
			return true
		}
	}
	return false
}

// putArtifact imports a pre-built mechanism for {id} from its artifact
// bytes — the replica warm-sync path. The body is decoded, checked
// against the URL's spec, and re-verified (column-stochasticity,
// sampler reconstruction) before installation; failures answer 422 with
// the artifact_invalid envelope and leave the cache untouched. Success
// answers 200 with the ready status document, exactly what GET
// /v2/mechanisms/{id} would now report.
func (a *api) putArtifact(w http.ResponseWriter, r *http.Request) {
	spec, err := pathSpec(r)
	if err != nil {
		a.writeV2Error(w, err)
		return
	}
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, service.MaxArtifactBytes))
	if err != nil {
		a.writeV2Error(w, fmt.Errorf("%w: reading artifact body: %v", service.ErrArtifactInvalid, err))
		return
	}
	info, err := a.svc.ImportArtifact(spec, data)
	if err != nil {
		a.writeV2Error(w, err)
		return
	}
	doc := statusDoc(info)
	if e, perr := a.svc.Peek(spec); perr == nil && info.State == service.BuildReady {
		doc.Mechanism = mechanismInfo(e)
	}
	writeJSON(w, http.StatusOK, doc)
}
