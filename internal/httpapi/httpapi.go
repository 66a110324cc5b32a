// Package httpapi is privcountd's HTTP/JSON surface over a
// service.Service, mountable in any http.Server (cmd/privcountd in
// production, httptest and in-process examples elsewhere).
//
// The v2 API is organised around mechanism identity: the canonical Spec
// wire token (service.Spec.ID) is the resource ID, so equivalent specs
// — property sets with the same §IV-A closure, fields the kind ignores
// — name one resource, one cache entry, one build.
//
//	PUT  /v2/mechanisms/{id}           admit the mechanism for background
//	                                   build (idempotent; 202 until
//	                                   ready, then 200)
//	GET  /v2/mechanisms/{id}           status document; mechanism detail
//	                                   when ready
//	GET  /v2/mechanisms/{id}/artifact  binary export of the built
//	                                   mechanism (ETag = artifact hash)
//	PUT  /v2/mechanisms/{id}/artifact  import a pre-built mechanism
//	                                   (replica warm-sync; re-verified)
//	GET  /v2/mechanisms                list every cached mechanism's
//	                                   status
//	POST /v2/query                     multiplexed batch of sample/batch/
//	                                   estimate ops against any number of
//	                                   mechanism IDs
//	GET  /v2/stats                     cache + build-pipeline + store
//	                                   statistics
//	GET  /healthz                      liveness probe
//
// Every v2 error is a machine-readable envelope —
// {"error":{"code":"spec_invalid"|"not_admitted"|"not_ready"|
// "build_canceled"|"build_failed"|"artifact_invalid"|"over_limit"|
// "gone"|"unsupported_media","message":...}}
// — marshalled from the same client.Error struct the SDK decodes, so
// typed errors survive the wire (see package client).
//
// POST /v2/query speaks two representations, negotiated per request and
// per direction: JSON (the default) and the length-prefixed binary op
// stream from package client's binary codec, selected by
// Content-Type / Accept: application/x-privcount-batch. The negotiation
// matrix is pinned by TestQueryContentNegotiation:
//
//	Content-Type         Accept               behaviour
//	json / absent        json / absent / */*  buffered JSON (≤ MaxQueryOps)
//	json / absent        binary               buffered, binary results
//	binary               json / absent / */*  buffered binary ops (≤ MaxQueryOps)
//	binary               binary               streamed: unbounded op count,
//	                                          one frame in → one frame out
//	anything else        —                    415, JSON envelope
//	—                    anything else        406, JSON envelope
//
// In streamed mode a malformed frame aborts the stream with an in-band
// abort frame (the 200 status line is already on the wire); in every
// buffered mode errors use the HTTP status + envelope as usual.
//
// The v1 routes were deprecated in the v2 release and have been
// removed: every /v1/* path now answers 410 Gone with a "gone" envelope
// and a Link header naming its v2 successor.
package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"mime"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"privcount/client"
	"privcount/internal/cluster"
	"privcount/internal/core"
	"privcount/internal/metrics"
	"privcount/internal/service"
)

// api binds the handlers to one service, plus the HTTP-layer
// instrumentation every handler reports into.
type api struct {
	svc *service.Service

	// node, when non-nil, is the cluster membership this mux routes
	// with: ID-keyed routes for mechanisms this node does not own are
	// proxied or redirected to the owner (see cluster.go).
	node *cluster.Node

	// requests counts finished requests by route pattern and HTTP status
	// code; latency is the per-route request-duration histogram;
	// errorCodes counts taxonomy errors by wire code (including per-op
	// errors inside an otherwise-200 query response, which the
	// status-code dimension of requests cannot see).
	requests   *metrics.CounterVec
	latency    *metrics.HistogramVec
	errorCodes *metrics.CounterVec

	// routes lists every instrumented route pattern, in registration
	// order — the iteration set for the per-route latency quantiles in
	// /v2/stats and the quantile gauges on /metrics.
	routes []string
}

// NewMux wires the full v1+v2 route set over svc, with a private
// metrics registry behind GET /metrics. Use NewMuxWithMetrics to share
// or inspect the registry.
func NewMux(svc *service.Service) *http.ServeMux {
	return NewMuxWithMetrics(svc, metrics.NewRegistry())
}

// NewMuxWithMetrics is NewMux against a caller-owned registry: the
// service's cache/build/admission series and the HTTP layer's per-route
// series are registered on reg, and reg's exposition is served at
// GET /metrics. Each registry can back at most one mux (series names
// are registered once).
func NewMuxWithMetrics(svc *service.Service, reg *metrics.Registry) *http.ServeMux {
	return NewMuxWithCluster(svc, reg, nil)
}

// NewMuxWithCluster is NewMuxWithMetrics for a fleet member: requests
// for mechanism IDs that node does not own are proxied or redirected to
// the ring owner, GET /v2/cluster serves the node's cluster status, and
// the privcount_cluster_* series are registered on reg. A nil node
// yields the plain single-box mux.
func NewMuxWithCluster(svc *service.Service, reg *metrics.Registry, node *cluster.Node) *http.ServeMux {
	svc.RegisterMetrics(reg)
	a := &api{
		svc:  svc,
		node: node,
		requests: reg.NewCounterVec("privcount_http_requests_total",
			"HTTP requests served, by route pattern and status code.",
			"route", "code"),
		latency: reg.NewHistogramVec("privcount_http_request_seconds",
			"HTTP request latency in seconds, by route pattern.",
			metrics.DefaultLatencyBuckets, "route"),
		errorCodes: reg.NewCounterVec("privcount_http_errors_total",
			"API errors emitted, by taxonomy code (counts per-op query errors too).",
			"code"),
	}
	mux := http.NewServeMux()
	handle := func(pattern string, h http.HandlerFunc) {
		a.routes = append(a.routes, pattern)
		mux.HandleFunc(pattern, a.instrument(pattern, h))
	}
	handle("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})

	// The scrape endpoint itself is deliberately uninstrumented: a
	// scraper polling it would otherwise dominate the request series.
	mux.Handle("GET /metrics", reg.Handler())

	// v2: mechanism identity + multiplexed query. The ID-keyed routes go
	// through the cluster routing wrapper (a no-op on single-box muxes).
	handle("PUT /v2/mechanisms/{id}", a.routed(a.putMechanism))
	handle("GET /v2/mechanisms/{id}", a.routed(a.getMechanism))
	handle("GET /v2/mechanisms/{id}/artifact", a.routed(a.getArtifact))
	handle("PUT /v2/mechanisms/{id}/artifact", a.routed(a.putArtifact))
	handle("GET /v2/mechanisms", a.listMechanisms)
	handle("POST /v2/query", a.postQuery)
	handle("GET /v2/stats", a.getStats)
	if node != nil {
		handle("GET /v2/cluster", a.getCluster)
		node.RegisterMetrics(reg)
	}

	// v1: retired. Every old route (and any other /v1 path) answers 410
	// with a Link to its v2 successor.
	handle("/v1/", a.goneV1)

	// Per-route p50/p99 over the latency histograms, sampled at scrape
	// time. Pre-creating each route's child here keeps the series set
	// fixed from the first scrape instead of appearing as routes get
	// their first hit.
	for _, route := range a.routes {
		h := a.latency.With(route)
		for _, q := range []struct {
			label string
			q     float64
		}{{"0.5", 0.5}, {"0.99", 0.99}} {
			q := q
			reg.NewLabeledGaugeFunc("privcount_http_request_seconds_quantile",
				"Estimated request-latency quantiles per route, interpolated from the histogram buckets (0 until the route has traffic).",
				[]string{"route", "q"}, []string{route, q.label},
				func() float64 {
					v := h.Quantile(q.q)
					if math.IsNaN(v) {
						return 0
					}
					return v
				})
		}
	}
	return mux
}

// instrument wraps a handler with the per-route request counter and
// latency histogram. The route label is the static mux pattern, never
// the raw URL, so cardinality is bounded by the route table.
func (a *api) instrument(pattern string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		h(sw, r)
		a.requests.With(pattern, strconv.Itoa(sw.status)).Inc()
		a.latency.With(pattern).Observe(time.Since(start).Seconds())
	}
}

// statusWriter captures the status code a handler wrote (200 if it
// never called WriteHeader explicitly).
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// Unwrap exposes the wrapped writer to http.NewResponseController, so
// the streaming handler can flush and enable full-duplex through the
// instrumentation layer.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// v1Successors maps each retired v1 route to the v2 route that replaced
// it, carried in the 410 response's Link header.
var v1Successors = map[string]string{
	"/v1/stats":            "/v2/stats",
	"/v1/mechanism":        "/v2/mechanisms",
	"/v1/mechanism/status": "/v2/mechanisms",
	"/v1/sample":           "/v2/query",
	"/v1/batch":            "/v2/query",
	"/v1/estimate":         "/v2/query",
}

// goneV1 answers every retired /v1 path with 410 Gone, the standard
// error envelope, and an RFC 8288 Link to the successor route.
func (a *api) goneV1(w http.ResponseWriter, r *http.Request) {
	successor, known := v1Successors[r.URL.Path]
	if !known {
		successor = "/v2/"
	}
	w.Header().Set("Link", fmt.Sprintf("<%s>; rel=\"successor-version\"", successor))
	e := &client.Error{
		Code:       client.CodeGone,
		Message:    fmt.Sprintf("the v1 API was removed; use %s", successor),
		HTTPStatus: http.StatusGone,
	}
	a.countError(e)
	writeJSON(w, e.HTTPStatus, client.Envelope{Error: e})
}

// ---- error taxonomy ----

// taxonomy classifies any service/parse error into its wire code and
// HTTP status. Classification is errors.Is on the service sentinels —
// never string matching — so it cannot desync from the pipeline.
func taxonomy(err error) (client.Code, int) {
	switch {
	case errors.Is(err, service.ErrNotAdmitted):
		return client.CodeNotAdmitted, http.StatusNotFound
	case errors.Is(err, service.ErrShed):
		// Load-shed build admission: over a limit, but a transient one —
		// 503 (with Retry-After, see writeV2Error) instead of the static
		// over-limit 400. Checked before ErrOverLimit: shed errors match
		// both sentinels.
		return client.CodeOverLimit, http.StatusServiceUnavailable
	case errors.Is(err, service.ErrOverLimit):
		return client.CodeOverLimit, http.StatusBadRequest
	case errors.Is(err, service.ErrSpecInvalid):
		return client.CodeSpecInvalid, http.StatusBadRequest
	case errors.Is(err, service.ErrNotReady):
		// Artifact export raced an in-flight build: the resource exists
		// but has no exportable representation yet. 409, not 503 — the
		// conflict is with the resource's state, and polling the status
		// document (not blind retry) is the resolution.
		return client.CodeNotReady, http.StatusConflict
	case errors.Is(err, service.ErrArtifactInvalid):
		// The artifact bytes parsed as a request but fail decode or
		// re-verification — same 422 class as build_failed: the request
		// was well-formed, the payload is unprocessable.
		return client.CodeArtifactInvalid, http.StatusUnprocessableEntity
	case service.IsRetryable(err):
		// Cut-short builds: abandonment, eviction, shutdown, dead client
		// contexts. 503 invites a retry; the entry is rebuildable.
		return client.CodeBuildCanceled, http.StatusServiceUnavailable
	case errors.Is(err, service.ErrBuildFailed):
		// Deterministic construction failure: the spec parsed but cannot
		// be built (infeasible constraints, solver limits).
		return client.CodeBuildFailed, http.StatusUnprocessableEntity
	default:
		// Everything else is a request-shape mistake (bad JSON, counts
		// out of range, unknown op).
		return client.CodeSpecInvalid, http.StatusBadRequest
	}
}

// wireError converts err into the shared wire error struct. Shed
// admissions carry the server's back-off advice in the envelope itself,
// so it survives contexts with no headers of their own (per-op errors
// in a query response).
func wireError(err error) *client.Error {
	code, status := taxonomy(err)
	e := &client.Error{Code: code, Message: err.Error(), HTTPStatus: status}
	var shed *service.ShedError
	if errors.As(err, &shed) {
		e.RetryAfterSeconds = shed.RetryAfter.Seconds()
	}
	return e
}

// writeV2Error writes the uniform v2 error envelope for err, counting
// the taxonomy code and surfacing shed back-off advice as a Retry-After
// header.
func (a *api) writeV2Error(w http.ResponseWriter, err error) {
	e := wireError(err)
	a.countError(e)
	setRetryAfter(w, e)
	writeJSON(w, e.HTTPStatus, client.Envelope{Error: e})
}

// countError records one emitted taxonomy error in the errorCodes
// metric.
func (a *api) countError(e *client.Error) {
	a.errorCodes.With(string(e.Code)).Inc()
}

// opError converts a per-op failure into its result slot, counting the
// taxonomy code (the op rides inside a 200 response, so the request
// status dimension never sees it).
func (a *api) opError(err error) client.OpResult {
	e := wireError(err)
	a.countError(e)
	return client.OpResult{Error: e}
}

// setRetryAfter adds the RFC 9110 Retry-After header when the error
// carries back-off advice (load-shed admissions), rounded up to whole
// seconds as the header requires.
func setRetryAfter(w http.ResponseWriter, e *client.Error) {
	if e.RetryAfterSeconds > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(int(math.Ceil(e.RetryAfterSeconds))))
	}
}

// ---- v2 handlers ----

// pathSpec parses the {id} path segment into a canonical spec.
func pathSpec(r *http.Request) (service.Spec, error) {
	var spec service.Spec
	if err := spec.UnmarshalText([]byte(r.PathValue("id"))); err != nil {
		return service.Spec{}, err
	}
	return spec, nil
}

// statusDoc renders a build-status snapshot as the shared v2 resource
// document. Failed builds carry their taxonomy error inline.
func statusDoc(info service.BuildInfo) client.MechanismStatus {
	doc := client.MechanismStatus{
		ID:           info.Spec.ID(),
		Spec:         info.Spec,
		State:        info.State.String(),
		BuildSeconds: info.BuildSeconds,
	}
	if info.State == service.BuildFailed && info.Err != nil {
		doc.Error = wireError(info.Err)
	}
	return doc
}

// mechanismInfo renders a ready entry's mechanism detail.
func mechanismInfo(e *service.Entry) *client.MechanismInfo {
	m := e.Mechanism()
	_, debiasErr := e.Debias()
	return &client.MechanismInfo{
		Name:       m.Name(),
		N:          m.N(),
		Alpha:      m.Alpha(),
		Rule:       e.Rule(),
		Properties: core.PropertySetString(e.Props()),
		L0:         m.L0(),
		Debiasable: debiasErr == nil,
	}
}

// putMechanism admits the mechanism named by {id} onto the background
// build pool and answers immediately: 202 with the status document
// while the build is in progress (pending, running, or a re-armed
// cancellation), 200 with the full document once the resource is
// settled — ready, or deterministically failed (the document carries
// the build_failed taxonomy error; re-PUTting cannot revive it). It is
// idempotent — re-PUTting a ready mechanism is a status read,
// re-PUTting a cancelled one re-arms it.
func (a *api) putMechanism(w http.ResponseWriter, r *http.Request) {
	spec, err := pathSpec(r)
	if err != nil {
		a.writeV2Error(w, err)
		return
	}
	info, err := a.svc.Start(spec)
	if err != nil {
		a.writeV2Error(w, err)
		return
	}
	// Serve the document from one entry snapshot so state and detail
	// cannot disagree. If LRU eviction removed the entry in the window
	// since Start, report the admission as pending — the next touch
	// re-admits — rather than a "ready" document with no detail.
	var mech *client.MechanismInfo
	if e, perr := a.svc.Peek(spec); perr == nil {
		info = e.Info()
		if info.State == service.BuildReady {
			mech = mechanismInfo(e)
		}
	} else {
		info = service.BuildInfo{Spec: spec, State: service.BuildPending}
	}
	doc := statusDoc(info)
	doc.Mechanism = mech
	status := http.StatusAccepted
	switch {
	case info.State == service.BuildReady:
		status = http.StatusOK
	case info.State == service.BuildFailed && !service.IsRetryable(info.Err):
		// Settled for good: 202's "admitted, in progress" promise would
		// invite a client to poll a build that will never run again.
		status = http.StatusOK
	}
	writeJSON(w, status, doc)
}

// getMechanism reports the status of the mechanism named by {id}
// without admitting anything; ready mechanisms include their detail.
func (a *api) getMechanism(w http.ResponseWriter, r *http.Request) {
	spec, err := pathSpec(r)
	if err != nil {
		a.writeV2Error(w, err)
		return
	}
	e, err := a.svc.Peek(spec)
	if err != nil {
		a.writeV2Error(w, err)
		return
	}
	// Gate the detail on the snapshot's state, not a second State()
	// read: a build finishing between the two would otherwise produce a
	// document claiming "building" while carrying mechanism detail.
	info := e.Info()
	doc := statusDoc(info)
	if info.State == service.BuildReady {
		doc.Mechanism = mechanismInfo(e)
	}
	writeJSON(w, http.StatusOK, doc)
}

// listMechanisms lists every cached mechanism's status, sorted by ID.
func (a *api) listMechanisms(w http.ResponseWriter, _ *http.Request) {
	infos := a.svc.Entries()
	docs := make([]client.MechanismStatus, len(infos))
	for i, info := range infos {
		docs[i] = statusDoc(info)
	}
	writeJSON(w, http.StatusOK, client.MechanismList{Mechanisms: docs})
}

// ---- /v2/query: negotiation, buffered execution, streaming ----

// negotiate resolves the request's Content-Type and Accept headers
// against the two /v2/query representations (see the package doc's
// matrix). ok=false means the negotiation error was already written.
func (a *api) negotiate(w http.ResponseWriter, r *http.Request) (binIn, binOut, ok bool) {
	binIn, ok = binaryContentType(r.Header.Get("Content-Type"))
	if !ok {
		a.writeMediaError(w, http.StatusUnsupportedMediaType,
			fmt.Sprintf("unsupported Content-Type %q: use %s or %s",
				r.Header.Get("Content-Type"), client.ContentTypeJSON, client.ContentTypeBinary))
		return false, false, false
	}
	binOut, ok = binaryAccept(r.Header.Get("Accept"))
	if !ok {
		a.writeMediaError(w, http.StatusNotAcceptable,
			fmt.Sprintf("unacceptable Accept %q: this route writes %s or %s",
				r.Header.Get("Accept"), client.ContentTypeJSON, client.ContentTypeBinary))
		return false, false, false
	}
	return binIn, binOut, true
}

// binaryContentType reports whether the request body is the binary op
// stream. An absent Content-Type means JSON — the v2 JSON wire
// contract predates negotiation, and the golden fixtures pin it.
func binaryContentType(h string) (bin, ok bool) {
	if h == "" {
		return false, true
	}
	mt, _, err := mime.ParseMediaType(h)
	if err != nil {
		return false, false
	}
	switch mt {
	case client.ContentTypeJSON:
		return false, true
	case client.ContentTypeBinary:
		return true, true
	}
	return false, false
}

// binaryAccept reports whether the response should be the binary result
// stream: the first recognised media range in the Accept list wins, an
// absent header means JSON, and a list recognising neither is a 406.
func binaryAccept(h string) (bin, ok bool) {
	if h == "" {
		return false, true
	}
	for _, el := range strings.Split(h, ",") {
		mt, _, err := mime.ParseMediaType(strings.TrimSpace(el))
		if err != nil {
			continue
		}
		switch mt {
		case client.ContentTypeBinary:
			return true, true
		case client.ContentTypeJSON, "application/*", "*/*":
			return false, true
		}
	}
	return false, false
}

// writeMediaError writes a negotiation failure: 415 or 406 carrying the
// unsupported_media envelope (always JSON — the failure is about the
// headers, and every client reads JSON).
func (a *api) writeMediaError(w http.ResponseWriter, status int, msg string) {
	e := &client.Error{Code: client.CodeUnsupportedMedia, Message: msg, HTTPStatus: status}
	a.countError(e)
	writeJSON(w, status, client.Envelope{Error: e})
}

// postQuery executes a multiplexed batch of operations in one round
// trip. Request-level failures (malformed body, empty or oversized
// batch, failed negotiation) fail the whole call with an envelope;
// per-op failures land in that op's result slot so the rest of the
// batch still answers. Buffered ops run concurrently — the cache hot
// path is lock-free and sampling draws from per-shard RNG pools, and a
// batch touching several cold mechanisms admits every build up front so
// the worker pool overlaps them (the batch waits for the slowest build,
// not the sum). The binary-in/binary-out pair instead streams: ops
// execute sequentially on the zero-alloc sampling path with no op-count
// cap, each result frame on the wire before the next op is read.
func (a *api) postQuery(w http.ResponseWriter, r *http.Request) {
	binIn, binOut, ok := a.negotiate(w, r)
	if !ok {
		return
	}
	if binIn && binOut {
		a.queryStream(w, r)
		return
	}
	var ops []client.Op
	if binIn {
		fr := client.NewFrameReader(http.MaxBytesReader(w, r.Body, 16<<20))
		for {
			op, err := fr.ReadOp()
			if err == io.EOF {
				break
			}
			if err != nil {
				a.writeV2Error(w, fmt.Errorf("%w: %v", service.ErrSpecInvalid, err))
				return
			}
			if len(ops) == client.MaxQueryOps {
				a.writeV2Error(w, fmt.Errorf("%w: more than %d buffered query ops; stream with Accept: %s",
					service.ErrOverLimit, client.MaxQueryOps, client.ContentTypeBinary))
				return
			}
			ops = append(ops, op)
		}
	} else {
		var req client.QueryRequest
		if err := decodeJSON(w, r, &req); err != nil {
			a.writeV2Error(w, fmt.Errorf("%w: %v", service.ErrSpecInvalid, err))
			return
		}
		if len(req.Ops) > client.MaxQueryOps {
			a.writeV2Error(w, fmt.Errorf("%w: %d query ops, max %d", service.ErrOverLimit, len(req.Ops), client.MaxQueryOps))
			return
		}
		ops = req.Ops
	}
	if len(ops) == 0 {
		a.writeV2Error(w, fmt.Errorf("%w: empty ops", service.ErrSpecInvalid))
		return
	}
	// On a cluster member, ops naming non-owned cold mechanisms are
	// forwarded to their ring owner (so the build happens once,
	// cluster-wide) — unless this request was itself routed here, which
	// pins execution local to keep forwarding single-hop.
	mayForward := a.node != nil && r.Header.Get(cluster.RoutedHeader) == ""
	results := make([]client.OpResult, len(ops))
	var wg sync.WaitGroup
	for i, op := range ops {
		wg.Add(1)
		go func(i int, op client.Op) {
			defer wg.Done()
			if mayForward {
				if res, ok := a.forwardOp(r.Context(), op); ok {
					results[i] = res
					return
				}
			}
			results[i] = a.runOp(r.Context(), op)
		}(i, op)
	}
	wg.Wait()
	if binOut {
		writeBinaryResults(w, results)
		return
	}
	writeJSON(w, http.StatusOK, client.QueryResponse{Results: results})
}

// writeBinaryResults frames a buffered result set onto the response.
func writeBinaryResults(w http.ResponseWriter, results []client.OpResult) {
	w.Header().Set("Content-Type", client.ContentTypeBinary)
	fw := client.NewFrameWriter(w)
	for i := range results {
		if err := fw.WriteResult(&results[i]); err != nil {
			log.Printf("httpapi: encoding binary result: %v", err)
			return
		}
	}
	if err := fw.Close(); err != nil {
		log.Printf("httpapi: closing binary response: %v", err)
	}
}

// streamFlushEvery bounds how many result frames may sit buffered
// before the stream is pushed to the client, so a peer pipelining ops
// against results makes progress without waiting for the whole stream.
const streamFlushEvery = 64

// streamDeadline is how far each flush pushes a binary stream's read
// and write deadlines. The server's ReadTimeout and WriteTimeout bound
// a whole request, which would cut off a long stream that is still
// making progress; a stream that answers no streamFlushEvery ops within
// this long still dies.
const streamDeadline = 30 * time.Second

// queryStream is the binary-in/binary-out data plane: a sequential
// read-op → execute → write-result loop with no op-count cap. One op's
// result frame is fully written before the next op is read, which is
// what lets every batch op share one scratch buffer (the zero-alloc
// sampling path) and keeps the loop deadlock-free against clients that
// write their whole op stream before reading results. An empty op
// stream is a valid, empty result stream. Malformed frames abort
// in-band: the 200 status line is already committed, so the error rides
// an abort frame instead of an HTTP status.
func (a *api) queryStream(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", client.ContentTypeBinary)
	// Without full duplex the net/http server closes the unread request
	// body once the response starts — fatal for a stream that answers
	// while ops are still arriving. Errors (an exotic wrapper without
	// the capability) are ignored; the loop then works for clients that
	// finish writing before reading, which buffered bodies guarantee.
	rc := http.NewResponseController(w)
	_ = rc.EnableFullDuplex()
	fr := client.NewFrameReader(r.Body)
	fw := client.NewFrameWriter(w)
	sc := newOpScratch()
	ctx := r.Context()
	var op client.Op
	for n := 0; ; n++ {
		err := fr.ReadOpInto(&op)
		if err == io.EOF {
			break
		}
		if err != nil {
			e := wireError(fmt.Errorf("%w: %v", service.ErrSpecInvalid, err))
			a.countError(e)
			if werr := fw.WriteAbort(e); werr != nil {
				return
			}
			break
		}
		res := a.runOpInto(ctx, &op, sc)
		if err := fw.WriteResult(&res); err != nil {
			return
		}
		if (n+1)%streamFlushEvery == 0 {
			// Errors mean the writer cannot move deadlines (e.g. a
			// recorder); the server's own timeouts then stand.
			deadline := time.Now().Add(streamDeadline)
			_ = rc.SetReadDeadline(deadline)
			_ = rc.SetWriteDeadline(deadline)
			if err := fw.Flush(); err != nil {
				return
			}
			_ = rc.Flush()
		}
	}
	if err := fw.Close(); err != nil {
		log.Printf("httpapi: closing binary stream: %v", err)
	}
}

// opScratch is per-stream reusable state: a parsed-spec cache (ops
// name mechanisms by wire token; re-parsing every frame would allocate)
// and the batch result buffer the zero-alloc sampling path writes into.
type opScratch struct {
	specs map[string]service.Spec
	dst   []int
}

// maxCachedSpecs bounds the per-stream spec cache; a hostile stream
// cycling through distinct IDs degrades to re-parsing, not to
// unbounded memory.
const maxCachedSpecs = 1024

func newOpScratch() *opScratch {
	return &opScratch{specs: make(map[string]service.Spec, 8)}
}

func (sc *opScratch) spec(id string) (service.Spec, error) {
	if s, ok := sc.specs[id]; ok {
		return s, nil
	}
	var s service.Spec
	if err := s.UnmarshalText([]byte(id)); err != nil {
		return service.Spec{}, err
	}
	if len(sc.specs) < maxCachedSpecs {
		sc.specs[id] = s
	}
	return s, nil
}

// buffer returns sc's batch result buffer resized to k.
func (sc *opScratch) buffer(k int) []int {
	if cap(sc.dst) < k {
		sc.dst = make([]int, k)
	}
	return sc.dst[:k]
}

// runOpInto executes one query op against per-stream scratch: batch
// results are written into sc's buffer via the service's
// SampleBatchInto fast path, so a warm stream samples without
// allocating. The returned result aliases sc — the caller must encode
// it before the next runOpInto call.
func (a *api) runOpInto(ctx context.Context, op *client.Op, sc *opScratch) client.OpResult {
	spec, err := sc.spec(op.ID)
	if err != nil {
		return a.opError(err)
	}
	switch op.Op {
	case client.OpSample:
		out, err := a.svc.SampleCtx(ctx, spec, op.Count)
		if err != nil {
			return a.opError(err)
		}
		return client.OpResult{Output: &out}
	case client.OpBatch:
		if len(op.Counts) == 0 {
			return a.opError(fmt.Errorf("%w: empty counts", service.ErrSpecInvalid))
		}
		dst := sc.buffer(len(op.Counts))
		if op.Seed != nil {
			err = a.svc.SampleBatchSeededInto(ctx, spec, *op.Seed, op.Counts, dst)
		} else {
			err = a.svc.SampleBatchIntoCtx(ctx, spec, op.Counts, dst)
		}
		if err != nil {
			return a.opError(err)
		}
		return client.OpResult{Outputs: dst}
	case client.OpEstimate:
		if len(op.Outputs) == 0 {
			return a.opError(fmt.Errorf("%w: empty outputs", service.ErrSpecInvalid))
		}
		est, err := a.svc.EstimateCtx(ctx, spec, op.Outputs)
		if err != nil {
			return a.opError(err)
		}
		return client.OpResult{
			MLE: est.MLE, Sum: &est.Sum, Mean: &est.Mean, Unbiased: &est.Unbiased,
		}
	default:
		return a.opError(fmt.Errorf("%w: unknown op %q (want sample, batch, or estimate)", service.ErrSpecInvalid, op.Op))
	}
}

// runOp executes one query op. Cold mechanisms are admitted and awaited
// under ctx, exactly like the v1 data plane — so cheap closed-form
// specs work without a prior PUT, while a dead client cancels any build
// it alone was waiting on.
func (a *api) runOp(ctx context.Context, op client.Op) client.OpResult {
	var spec service.Spec
	if err := spec.UnmarshalText([]byte(op.ID)); err != nil {
		return a.opError(err)
	}
	switch op.Op {
	case client.OpSample:
		out, err := a.svc.SampleCtx(ctx, spec, op.Count)
		if err != nil {
			return a.opError(err)
		}
		return client.OpResult{Output: &out}
	case client.OpBatch:
		if len(op.Counts) == 0 {
			return a.opError(fmt.Errorf("%w: empty counts", service.ErrSpecInvalid))
		}
		var outs []int
		var err error
		if op.Seed != nil {
			outs, err = a.svc.SampleBatchSeededCtx(ctx, spec, *op.Seed, op.Counts, nil)
		} else {
			outs, err = a.svc.SampleBatchCtx(ctx, spec, op.Counts, nil)
		}
		if err != nil {
			return a.opError(err)
		}
		return client.OpResult{Outputs: outs}
	case client.OpEstimate:
		if len(op.Outputs) == 0 {
			return a.opError(fmt.Errorf("%w: empty outputs", service.ErrSpecInvalid))
		}
		est, err := a.svc.EstimateCtx(ctx, spec, op.Outputs)
		if err != nil {
			return a.opError(err)
		}
		return client.OpResult{
			MLE: est.MLE, Sum: &est.Sum, Mean: &est.Mean, Unbiased: &est.Unbiased,
		}
	default:
		return a.opError(fmt.Errorf("%w: unknown op %q (want sample, batch, or estimate)", service.ErrSpecInvalid, op.Op))
	}
}

// getStats serves the cache + build-pipeline gauges (v1 and v2 share
// the document), plus per-route latency quantiles derived from the
// histogram buckets.
func (a *api) getStats(w http.ResponseWriter, _ *http.Request) {
	st := a.svc.Stats()
	// Quantiles interpolated from the per-route latency histograms; 0
	// stands in for "no traffic yet" because JSON cannot carry NaN.
	routeLatency := make(map[string]map[string]float64, len(a.routes))
	for _, route := range a.routes {
		h := a.latency.With(route)
		p50, p99 := h.Quantile(0.5), h.Quantile(0.99)
		if math.IsNaN(p50) {
			p50 = 0
		}
		if math.IsNaN(p99) {
			p99 = 0
		}
		routeLatency[route] = map[string]float64{"p50": p50, "p99": p99}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"route_latency": routeLatency,
		"entries":       st.Entries, "hits": st.Hits,
		"misses": st.Misses, "evictions": st.Evictions,
		"build_queue_depth":      st.QueueDepth,
		"builds_in_flight":       st.InFlight,
		"builds":                 st.Builds,
		"build_failures":         st.BuildFailures,
		"build_cancels":          st.BuildCancels,
		"build_seconds":          st.BuildSeconds,
		"admission_sheds":        st.Sheds,
		"inflight_build_seconds": st.InFlightBuildSeconds,
		"store_hits":             st.StoreHits,
		"store_misses":           st.StoreMisses,
		"store_put_failures":     st.StorePutFailures,
		"store_quarantines":      st.StoreQuarantines,
		"store_bytes_read":       st.StoreBytesRead,
		"store_bytes_written":    st.StoreBytesWritten,
	})
}

// ---- request/response plumbing ----

// decodeJSON decodes a bounded, strict JSON request body.
func decodeJSON(w http.ResponseWriter, r *http.Request, dst any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 16<<20))
	dec.DisallowUnknownFields()
	return dec.Decode(dst)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("httpapi: encoding response: %v", err)
	}
}
