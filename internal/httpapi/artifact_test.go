package httpapi

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"privcount/client"
	"privcount/internal/core"
	"privcount/internal/service"
)

var artifactTestSpec = service.Spec{
	Kind: service.KindLP, N: 6, Alpha: 0.8,
	Props: core.WeakHonesty | core.Symmetry,
}

// TestArtifactWarmSync is the ISSUE's acceptance flow over HTTP: build
// on server A, export its artifact, import into cold server B, and
// serve from B without B ever building. The artifact bytes round-trip
// byte-identically, so the two replicas present the same ETag.
func TestArtifactWarmSync(t *testing.T) {
	svcA := service.New(service.Config{Seed: 1})
	defer svcA.Close()
	tsA := httptest.NewServer(NewMux(svcA))
	defer tsA.Close()
	svcB := service.New(service.Config{Seed: 2})
	defer svcB.Close()
	tsB := httptest.NewServer(NewMux(svcB))
	defer tsB.Close()

	ctx := context.Background()
	ca, err := client.New(tsA.URL)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := client.New(tsB.URL)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := ca.Create(ctx, artifactTestSpec); err != nil {
		t.Fatal(err)
	}
	if _, err := ca.WaitReady(ctx, artifactTestSpec); err != nil {
		t.Fatal(err)
	}
	art, err := ca.ExportArtifact(ctx, artifactTestSpec)
	if err != nil {
		t.Fatal(err)
	}
	if len(art) == 0 {
		t.Fatal("empty artifact")
	}

	st, err := cb.ImportArtifact(ctx, artifactTestSpec, art)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "ready" {
		t.Fatalf("import state = %q, want ready", st.State)
	}
	if st.Mechanism == nil {
		t.Fatal("import response missing mechanism document")
	}
	if got := svcB.Stats().Builds; got != 0 {
		t.Fatalf("server B ran %d builds after import, want 0", got)
	}
	if _, err := cb.Sample(ctx, artifactTestSpec, 3); err != nil {
		t.Fatalf("Sample on B after import: %v", err)
	}

	// Byte-identity across replicas: B re-exports exactly what A sent.
	again, err := cb.ExportArtifact(ctx, artifactTestSpec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(art, again) {
		t.Fatalf("artifact not byte-identical across replicas: %d vs %d bytes", len(art), len(again))
	}

	// Deterministic encoding means equal strong ETags on both servers.
	id := artifactTestSpec.Canonical().ID()
	etagA := artifactETag(t, tsA, id)
	etagB := artifactETag(t, tsB, id)
	if etagA == "" || etagA != etagB {
		t.Fatalf("replica ETags differ: %q vs %q", etagA, etagB)
	}

	// If-None-Match with the current tag turns the poll into a 304.
	req, err := http.NewRequest(http.MethodGet, tsA.URL+"/v2/mechanisms/"+id+"/artifact", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("If-None-Match", etagA)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("conditional GET status = %d, want 304", resp.StatusCode)
	}
}

func artifactETag(t *testing.T, ts *httptest.Server, id string) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v2/mechanisms/" + id + "/artifact")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET artifact status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != client.ContentTypeArtifact {
		t.Fatalf("artifact Content-Type = %q, want %q", ct, client.ContentTypeArtifact)
	}
	return resp.Header.Get("ETag")
}

// TestArtifactErrors pins the negative paths' status codes and error
// envelopes: export of an unknown mechanism is 404 not_admitted, import
// of garbage or of a mismatched artifact is 422 artifact_invalid, and
// an unsettled build exports 409 not_ready (retryable).
func TestArtifactErrors(t *testing.T) {
	ts := testServer(t)
	c, err := client.New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	t.Run("export not admitted", func(t *testing.T) {
		_, err := c.ExportArtifact(ctx, service.Spec{Kind: service.KindUniform, N: 9})
		if !errors.Is(err, client.ErrNotAdmitted) {
			t.Fatalf("got %v, want ErrNotAdmitted", err)
		}
		var ce *client.Error
		if !errors.As(err, &ce) || ce.HTTPStatus != http.StatusNotFound {
			t.Fatalf("HTTP status = %+v, want 404", err)
		}
	})

	t.Run("import garbage", func(t *testing.T) {
		_, err := c.ImportArtifact(ctx, service.Spec{Kind: service.KindUniform, N: 9}, []byte("not an artifact"))
		if !errors.Is(err, client.ErrArtifactInvalid) {
			t.Fatalf("got %v, want ErrArtifactInvalid", err)
		}
		var ce *client.Error
		if !errors.As(err, &ce) || ce.HTTPStatus != http.StatusUnprocessableEntity {
			t.Fatalf("HTTP status = %+v, want 422", err)
		}
		if client.IsRetryable(err) {
			t.Fatal("artifact_invalid must not be retryable")
		}
	})

	t.Run("import wrong spec", func(t *testing.T) {
		spec := service.Spec{Kind: service.KindGeometric, N: 8, Alpha: 0.5}
		if _, err := c.Create(ctx, spec); err != nil {
			t.Fatal(err)
		}
		if _, err := c.WaitReady(ctx, spec); err != nil {
			t.Fatal(err)
		}
		art, err := c.ExportArtifact(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		_, err = c.ImportArtifact(ctx, service.Spec{Kind: service.KindUniform, N: 8}, art)
		if !errors.Is(err, client.ErrArtifactInvalid) {
			t.Fatalf("got %v, want ErrArtifactInvalid", err)
		}
	})
}

// blockingStore wedges the service's store read so an admitted entry
// deterministically sits unsettled while the test probes it.
type blockingStore struct {
	release chan struct{}
}

func (b *blockingStore) Get(string) ([]byte, error) {
	<-b.release
	return nil, service.ErrArtifactNotFound
}
func (b *blockingStore) Put(string, []byte) error { return nil }
func (b *blockingStore) Delete(string) error      { return nil }
func (b *blockingStore) List() ([]string, error)  { return nil, nil }

func TestArtifactExportNotReady(t *testing.T) {
	bs := &blockingStore{release: make(chan struct{})}
	defer close(bs.release)
	svc := service.New(service.Config{Seed: 1, Store: bs})
	t.Cleanup(svc.Close)
	ts := httptest.NewServer(NewMux(svc))
	t.Cleanup(ts.Close)
	c, err := client.New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	spec := service.Spec{Kind: service.KindGeometric, N: 8, Alpha: 0.5}

	if _, err := c.Create(ctx, spec); err != nil {
		t.Fatal(err)
	}
	_, err = c.ExportArtifact(ctx, spec)
	if !errors.Is(err, client.ErrNotReady) {
		t.Fatalf("export mid-build: got %v, want ErrNotReady", err)
	}
	var ce *client.Error
	if !errors.As(err, &ce) || ce.HTTPStatus != http.StatusConflict {
		t.Fatalf("HTTP status = %+v, want 409", err)
	}
	if !client.IsRetryable(err) {
		t.Fatal("not_ready should be retryable (the build will settle)")
	}
}

// TestArtifactPathAndHeaderEdges covers the route edges: malformed IDs
// in the artifact URL answer spec_invalid, and If-None-Match "*"
// (and a weak-tag list) count as matches per RFC 9110.
func TestArtifactPathAndHeaderEdges(t *testing.T) {
	svc := service.New(service.Config{Seed: 1})
	defer svc.Close()
	ts := httptest.NewServer(NewMux(svc))
	defer ts.Close()

	for _, method := range []string{http.MethodGet, http.MethodPut} {
		req, _ := http.NewRequest(method, ts.URL+"/v2/mechanisms/zz:n=bogus/artifact", strings.NewReader("x"))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s bogus id: status %d, want 400", method, resp.StatusCode)
		}
	}

	// Warm one mechanism, then poll with wildcard and weak-tag headers.
	spec := service.Spec{Kind: service.KindUniform, N: 5}
	if _, err := svc.Get(spec); err != nil {
		t.Fatal(err)
	}
	url := ts.URL + "/v2/mechanisms/" + spec.Canonical().ID() + "/artifact"
	etag := ""
	{
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		etag = resp.Header.Get("ETag")
		if etag == "" {
			t.Fatal("export answered without an ETag")
		}
	}
	for _, header := range []string{"*", `W/` + etag, `"nope", ` + etag} {
		req, _ := http.NewRequest(http.MethodGet, url, nil)
		req.Header.Set("If-None-Match", header)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotModified {
			t.Errorf("If-None-Match %q: status %d, want 304", header, resp.StatusCode)
		}
	}
	// A non-matching list still serves the bytes.
	req, _ := http.NewRequest(http.MethodGet, url, nil)
	req.Header.Set("If-None-Match", `"deadbeef"`)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("non-matching If-None-Match: status %d, want 200", resp.StatusCode)
	}
}

// TestArtifactImportRefusesForgedClosedForm: a gm artifact whose matrix
// is column-stochastic but not GM's (two cells of column 0 swapped) is
// refused on PUT with artifact_invalid and leaves nothing installed.
func TestArtifactImportRefusesForgedClosedForm(t *testing.T) {
	spec := service.Spec{Kind: service.KindGeometric, N: 8, Alpha: 0.5}
	src := service.New(service.Config{Seed: 1})
	defer src.Close()
	if _, err := src.Get(spec); err != nil {
		t.Fatal(err)
	}
	data, err := src.ExportArtifact(spec)
	if err != nil {
		t.Fatal(err)
	}
	a, err := service.DecodeArtifact(data)
	if err != nil {
		t.Fatal(err)
	}
	k := spec.N + 1
	a.Probs[0], a.Probs[k] = a.Probs[k], a.Probs[0]

	svc := service.New(service.Config{Seed: 2})
	defer svc.Close()
	ts := httptest.NewServer(NewMux(svc))
	defer ts.Close()
	c, err := client.New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.ImportArtifact(context.Background(), spec, a.Encode())
	var ce *client.Error
	if !errors.Is(err, client.ErrArtifactInvalid) || !errors.As(err, &ce) || ce.HTTPStatus != http.StatusUnprocessableEntity {
		t.Fatalf("forged PUT: err = %v, want 422 artifact_invalid", err)
	}
	if _, err := svc.Peek(spec); !errors.Is(err, service.ErrNotAdmitted) {
		t.Fatalf("Peek after refused PUT: err = %v, want ErrNotAdmitted", err)
	}
}

// allocBytesPerRequest serves req through h runs times and returns the
// mean heap bytes one request allocates, with its last status.
func allocBytesPerRequest(h http.Handler, req func() *http.Request, runs int) (uint64, int) {
	var before, after runtime.MemStats
	status := 0
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req())
		status = rec.Code
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs), status
}

// TestClosedFormEntryServesWithoutMatrix: um:n=1024 holds no matrix, so
// its status document allocates far less than one (n+1)² matrix, and a
// conditional artifact GET whose ETag matches answers 304 without
// encoding the artifact again.
func TestClosedFormEntryServesWithoutMatrix(t *testing.T) {
	spec := service.Spec{Kind: service.KindUniform, N: 1024}
	svc := service.New(service.Config{Seed: 1})
	defer svc.Close()
	if _, err := svc.Get(spec); err != nil {
		t.Fatal(err)
	}
	mux := NewMux(svc)
	const matrixBytes = 8 * 1025 * 1025
	id := spec.ID()

	got, status := allocBytesPerRequest(mux, func() *http.Request {
		return httptest.NewRequest(http.MethodGet, "/v2/mechanisms/"+id, nil)
	}, 20)
	if status != http.StatusOK {
		t.Fatalf("GET mechanism status = %d", status)
	}
	if got > matrixBytes/100 {
		t.Errorf("GET /v2/mechanisms/%s allocates %d bytes per request; one matrix is %d", id, got, matrixBytes)
	}

	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v2/mechanisms/"+id+"/artifact", nil))
	etag := rec.Header().Get("ETag")
	if rec.Code != http.StatusOK || etag == "" {
		t.Fatalf("GET artifact = %d, ETag %q", rec.Code, etag)
	}
	if want := service.ArtifactETag(rec.Body.Bytes()); etag != want {
		t.Fatalf("ETag %s is not the hash of the body (%s)", etag, want)
	}
	got, status = allocBytesPerRequest(mux, func() *http.Request {
		req := httptest.NewRequest(http.MethodGet, "/v2/mechanisms/"+id+"/artifact", nil)
		req.Header.Set("If-None-Match", etag)
		return req
	}, 20)
	if status != http.StatusNotModified {
		t.Fatalf("conditional GET status = %d, want 304", status)
	}
	if got > matrixBytes/100 {
		t.Errorf("a matching conditional GET allocates %d bytes per request; the artifact is %d", got, rec.Body.Len())
	}
}
