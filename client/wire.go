package client

import (
	"errors"
	"fmt"
	"net/http"
	"time"

	"privcount"
)

// This file is the v2 wire vocabulary, shared verbatim by the server
// (internal/httpapi marshals these exact structs) and the SDK (Client
// unmarshals them), so the protocol cannot drift between the two sides
// without a compile error or a golden-fixture failure.

// Code is a machine-readable error category carried in every v2 error
// envelope: {"error": {"code": "...", "message": "..."}}.
type Code string

// The error taxonomy. Servers only ever emit these codes; clients turn
// them back into typed errors (see Error and the Err* sentinels).
const (
	// CodeSpecInvalid: the request names a malformed spec or mechanism
	// ID, or the request body itself does not parse. Not retryable.
	CodeSpecInvalid Code = "spec_invalid"
	// CodeNotAdmitted: the mechanism ID is well-formed but has never
	// been admitted (or was evicted); PUT it first.
	CodeNotAdmitted Code = "not_admitted"
	// CodeBuildCanceled: the mechanism's build was cut short (abandoned
	// request, cache eviction, server shutdown). Retryable — re-PUT the
	// mechanism to re-arm the build.
	CodeBuildCanceled Code = "build_canceled"
	// CodeBuildFailed: the build itself failed deterministically (e.g.
	// an infeasible constraint set). Retrying fails the same way.
	CodeBuildFailed Code = "build_failed"
	// CodeNotReady: the mechanism exists but its build has not settled,
	// so the requested representation (an artifact export) does not
	// exist yet. Retryable — poll the status document or just retry
	// once the build finishes.
	CodeNotReady Code = "not_ready"
	// CodeArtifactInvalid: an imported (or served) mechanism artifact
	// failed decoding or re-verification — wrong spec, bad framing,
	// failed checksum, non-stochastic matrix. Not retryable with the
	// same bytes.
	CodeArtifactInvalid Code = "artifact_invalid"
	// CodeOverLimit: the spec is beyond a serving admission bound, or
	// the request exceeds a protocol limit (e.g. too many query ops).
	CodeOverLimit Code = "over_limit"
	// CodeGone: the route was retired (the /v1 surface). Not retryable;
	// the response's Link header names the v2 successor.
	CodeGone Code = "gone"
	// CodeUnsupportedMedia: Content-Type/Accept negotiation failed — the
	// request carried a body type the server does not read (415) or
	// demanded a response type it does not write (406). Not retryable
	// without changing the headers.
	CodeUnsupportedMedia Code = "unsupported_media"
)

// Error is a typed API error: the decoded wire envelope on the client
// side, the envelope payload on the server side. It matches the
// sentinel of its code under errors.Is, so
//
//	errors.Is(err, client.ErrBuildCanceled)
//
// holds for any error that crossed the wire as {"code":"build_canceled"}.
type Error struct {
	// Code is the machine-readable category.
	Code Code `json:"code"`
	// Message is the human-readable detail from the server.
	Message string `json:"message"`
	// RetryAfterSeconds is the server's back-off advice for transient
	// over_limit errors (load-shed build admissions): wait this long and
	// the same request is likely admissible. Zero means no advice. It
	// rides in the envelope so per-op errors inside a query response
	// carry it too; top-level errors also surface it as an HTTP
	// Retry-After header.
	RetryAfterSeconds float64 `json:"retry_after_seconds,omitempty"`
	// HTTPStatus is the HTTP status the envelope arrived under (0 for
	// errors synthesised client-side, e.g. an invalid spec caught before
	// any request was made). It is not part of the wire form.
	HTTPStatus int `json:"-"`
}

// RetryAfter returns the server's back-off advice as a duration (0 when
// the error carries none).
func (e *Error) RetryAfter() time.Duration {
	return time.Duration(e.RetryAfterSeconds * float64(time.Second))
}

// Error renders "code: message".
func (e *Error) Error() string {
	if e.Message == "" {
		return string(e.Code)
	}
	return fmt.Sprintf("%s: %s", e.Code, e.Message)
}

// Is matches any *Error carrying the same code, which is what makes the
// Err* sentinels work across the wire.
func (e *Error) Is(target error) bool {
	t, ok := target.(*Error)
	return ok && t.Code == e.Code
}

// Sentinel errors, one per taxonomy code: compare with errors.Is, or
// errors.As into *Error for the message and HTTP status.
var (
	ErrSpecInvalid     error = &Error{Code: CodeSpecInvalid, Message: "invalid mechanism spec"}
	ErrNotAdmitted     error = &Error{Code: CodeNotAdmitted, Message: "mechanism not admitted"}
	ErrBuildCanceled   error = &Error{Code: CodeBuildCanceled, Message: "mechanism build canceled"}
	ErrBuildFailed     error = &Error{Code: CodeBuildFailed, Message: "mechanism build failed"}
	ErrOverLimit       error = &Error{Code: CodeOverLimit, Message: "request over serving limits"}
	ErrGone            error = &Error{Code: CodeGone, Message: "route retired"}
	ErrUnsupported     error = &Error{Code: CodeUnsupportedMedia, Message: "unsupported media type"}
	ErrNotReady        error = &Error{Code: CodeNotReady, Message: "mechanism not ready"}
	ErrArtifactInvalid error = &Error{Code: CodeArtifactInvalid, Message: "invalid mechanism artifact"}
)

// Envelope is the uniform v2 error body.
type Envelope struct {
	Error *Error `json:"error"`
}

// IsRetryable reports whether err is worth retrying against the same
// server: a cut-short build (CodeBuildCanceled — re-PUT re-arms it), or
// a transient over_limit — a load-shed admission, recognisable by its
// 503 status or by explicit Retry-After advice (per-op errors carry the
// advice but no status). Static over_limit refusals (a spec beyond the
// server's ceilings) and every other code are not retryable: they fail
// the same way every time. Pair with (*Error).RetryAfter for how long
// to back off.
func IsRetryable(err error) bool {
	var e *Error
	if !errors.As(err, &e) {
		return false
	}
	switch e.Code {
	case CodeBuildCanceled:
		return true
	case CodeNotReady:
		// The build is in flight; the same export succeeds once it
		// settles.
		return true
	case CodeOverLimit:
		return e.HTTPStatus == http.StatusServiceUnavailable || e.RetryAfterSeconds > 0
	}
	return false
}

// localError types a client-side failure (no wire round trip) with the
// taxonomy, so SDK callers handle local and remote failures uniformly.
func localError(err error) error {
	var apiErr *Error
	if errors.As(err, &apiErr) {
		return err
	}
	code := CodeSpecInvalid
	switch {
	case errors.Is(err, privcount.ErrOverLimit):
		code = CodeOverLimit
	case errors.Is(err, privcount.ErrNotAdmitted):
		code = CodeNotAdmitted
	case errors.Is(err, privcount.ErrBuildFailed):
		code = CodeBuildFailed
	case errors.Is(err, privcount.ErrNotReady):
		code = CodeNotReady
	case errors.Is(err, privcount.ErrArtifactInvalid):
		code = CodeArtifactInvalid
	}
	return &Error{Code: code, Message: err.Error()}
}

// MechanismInfo describes a ready mechanism: what the spec resolved to.
type MechanismInfo struct {
	// Name is the mechanism family ("GM", "EM", "UM", "WM", "LP", ...).
	Name string `json:"name"`
	// N and Alpha echo the spec's group size and privacy level.
	N     int     `json:"n"`
	Alpha float64 `json:"alpha"`
	// Rule describes how the mechanism was selected (for kind choose,
	// the Figure 5 flowchart path taken).
	Rule string `json:"rule"`
	// Properties is the closed §IV-A property set the served mechanism
	// guarantees — possibly a strict superset of the request.
	Properties string `json:"properties"`
	// L0 is the rescaled wrong-answer probability (Eq 1).
	L0 float64 `json:"l0"`
	// Debiasable reports whether the unbiased estimator exists.
	Debiasable bool `json:"debiasable"`
}

// MechanismStatus is the v2 resource document for one mechanism — what
// PUT/GET /v2/mechanisms/{id} return and GET /v2/mechanisms lists.
type MechanismStatus struct {
	// ID is the canonical wire token; equivalent specs share one ID.
	ID string `json:"id"`
	// Spec is the canonical spec behind the ID.
	Spec privcount.Spec `json:"spec"`
	// State is the build state: "pending", "building", "ready", "failed".
	State string `json:"state"`
	// BuildSeconds is the wall time of the last settled build attempt.
	BuildSeconds float64 `json:"build_seconds"`
	// Error carries the taxonomy error of a failed build.
	Error *Error `json:"error,omitempty"`
	// Mechanism is populated once State is "ready".
	Mechanism *MechanismInfo `json:"mechanism,omitempty"`
	// ETag is the quoted sha256 of the mechanism's canonical artifact,
	// the same value as the ETag header of GET …/{id}/artifact. Only
	// GET /v2/mechanisms sets it, on ready entries, so a warm-sync peer
	// can compare replicas without fetching each artifact.
	ETag string `json:"etag,omitempty"`
}

// Ready reports whether the mechanism is built and serving.
func (s *MechanismStatus) Ready() bool { return s.State == "ready" }

// Err returns the status's build error as a typed error (nil unless
// State is "failed").
func (s *MechanismStatus) Err() error {
	if s.Error == nil {
		return nil
	}
	return s.Error
}

// MechanismList is the GET /v2/mechanisms response body.
type MechanismList struct {
	Mechanisms []MechanismStatus `json:"mechanisms"`
}

// ClusterStatus is the GET /v2/cluster document: one node's view of the
// fleet — ring membership and parameters, warm-sync counters, and the
// local ownership snapshot. It is for monitoring: the SDK needs none of
// it to reach a fleet, since any node proxies a request to its owner.
// Single-box servers do not serve the route.
type ClusterStatus struct {
	// Self is the answering node's base URL; Peers is the full ring
	// membership (Self included).
	Self  string   `json:"self"`
	Peers []string `json:"peers"`
	// Replication is the owner-plus-replicas count per mechanism;
	// VirtualNodes the per-peer point count on the hash ring; RouteMode
	// is always "proxy", the only route mode.
	Replication  int    `json:"replication"`
	VirtualNodes int    `json:"virtual_nodes"`
	RouteMode    string `json:"route_mode"`
	// PollSeconds is the warm-sync period; SyncPasses counts completed
	// passes and LastSyncUnix stamps the latest (0 before the first).
	PollSeconds  float64 `json:"poll_seconds"`
	SyncPasses   int64   `json:"sync_passes"`
	LastSyncUnix int64   `json:"last_sync_unix,omitempty"`
	// SyncPulls counts artifacts imported from peers, SyncBytes their
	// total size, SyncConflicts diverging peer copies (local kept),
	// SyncRejects pulled artifacts failing verification, SyncErrors
	// peers whose poll or pulls failed in a pass.
	SyncPulls     int64 `json:"sync_pulls"`
	SyncBytes     int64 `json:"sync_bytes"`
	SyncConflicts int64 `json:"sync_conflicts"`
	SyncRejects   int64 `json:"sync_rejects"`
	SyncErrors    int64 `json:"sync_errors"`
	// OwnedMechanisms counts locally cached mechanisms the node owns or
	// replicates; CachedMechanisms the whole local cache.
	OwnedMechanisms  int `json:"owned_mechanisms"`
	CachedMechanisms int `json:"cached_mechanisms"`
}

// Op names for the multiplexed query protocol.
const (
	OpSample   = "sample"
	OpBatch    = "batch"
	OpEstimate = "estimate"
)

// Op is one operation in a multiplexed POST /v2/query batch. Build one
// with SampleOp, BatchOp, or EstimateOp.
type Op struct {
	// Op is the operation kind: "sample", "batch", or "estimate".
	Op string `json:"op"`
	// ID is the canonical wire token of the target mechanism.
	ID string `json:"id"`
	// Count is the true count for a sample op.
	Count int `json:"count,omitempty"`
	// Counts are the true counts for a batch op.
	Counts []int `json:"counts,omitempty"`
	// Seed, if set, makes a batch op's draws reproducible.
	Seed *uint64 `json:"seed,omitempty"`
	// Outputs are the observed releases for an estimate op.
	Outputs []int `json:"outputs,omitempty"`
}

// SampleOp draws one noisy release for true count under spec.
func SampleOp(spec privcount.Spec, count int) Op {
	return Op{Op: OpSample, ID: spec.ID(), Count: count}
}

// BatchOp draws one noisy release per true count under spec. A non-nil
// seed makes the draws reproducible.
func BatchOp(spec privcount.Spec, counts []int, seed *uint64) Op {
	return Op{Op: OpBatch, ID: spec.ID(), Counts: counts, Seed: seed}
}

// EstimateOp decodes observed outputs under spec: per-output MLE inputs
// plus the debiased aggregate.
func EstimateOp(spec privcount.Spec, outputs []int) Op {
	return Op{Op: OpEstimate, ID: spec.ID(), Outputs: outputs}
}

// OpResult is the positional result of one query op: exactly one of the
// payload groups is set, or Error.
type OpResult struct {
	// Output is a sample op's noisy release.
	Output *int `json:"output,omitempty"`
	// Outputs are a batch op's noisy releases.
	Outputs []int `json:"outputs,omitempty"`
	// MLE/Sum/Mean/Unbiased are an estimate op's decode (see Estimate).
	MLE      []int    `json:"mle,omitempty"`
	Sum      *float64 `json:"sum,omitempty"`
	Mean     *float64 `json:"mean,omitempty"`
	Unbiased *bool    `json:"unbiased,omitempty"`
	// Error is the op's taxonomy error; the other fields are unset.
	Error *Error `json:"error,omitempty"`
}

// Err returns the op's error as a typed error, nil on success.
func (r *OpResult) Err() error {
	if r.Error == nil {
		return nil
	}
	return r.Error
}

// Estimate returns an estimate op's result in struct form (nil if this
// result is not an estimate or errored).
func (r *OpResult) Estimate() *Estimate {
	if r.Error != nil || r.Sum == nil || r.Mean == nil || r.Unbiased == nil {
		return nil
	}
	return &Estimate{MLE: r.MLE, Sum: *r.Sum, Mean: *r.Mean, Unbiased: *r.Unbiased}
}

// Estimate is the decoded result of a batch of observed noisy releases.
type Estimate struct {
	// MLE holds the maximum-likelihood input for each observed output.
	MLE []int
	// Sum estimates the total of the true counts; when Unbiased it is
	// the debiasing estimator's sum with E[Sum] = Σ true counts exactly.
	Sum float64
	// Mean is Sum divided by the batch size.
	Mean float64
	// Unbiased reports whether the debiasing estimator existed.
	Unbiased bool
}

// QueryRequest is the POST /v2/query body.
type QueryRequest struct {
	Ops []Op `json:"ops"`
}

// QueryResponse carries one OpResult per request op, positionally.
type QueryResponse struct {
	Results []OpResult `json:"results"`
}

// MaxQueryOps bounds how many operations one multiplexed query may
// carry; longer batches are refused with CodeOverLimit. It keeps a
// single request from monopolising a handler while still amortising
// hundreds of round trips.
const MaxQueryOps = 256
