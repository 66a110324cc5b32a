package httpapi

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"privcount/client"
	"privcount/internal/service"
)

// encodeOps frames ops as a binary request body.
func encodeOps(t testing.TB, ops []client.Op) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	fw := client.NewFrameWriter(&buf)
	for i := range ops {
		if err := fw.WriteOp(&ops[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	return &buf
}

// rawQuery POSTs body to /v2/query under the given negotiation headers.
func rawQuery(t testing.TB, ts *httptest.Server, contentType, accept string, body io.Reader) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v2/query", body)
	if err != nil {
		t.Fatal(err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// readBinaryResults drains a binary result stream; a stream abort comes
// back as the second return value.
func readBinaryResults(t testing.TB, body io.Reader) ([]client.OpResult, error) {
	t.Helper()
	fr := client.NewFrameReader(body)
	var out []client.OpResult
	for {
		r, err := fr.ReadResult()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, r)
	}
}

// TestQueryContentNegotiation pins the Accept/Content-Type matrix from
// the package doc: which pairs are served, in which representation, and
// which are refused with 415/406 envelopes.
func TestQueryContentNegotiation(t *testing.T) {
	ts := testServer(t)
	jsonBody := func() io.Reader {
		b, _ := json.Marshal(client.QueryRequest{Ops: []client.Op{{Op: "sample", ID: "gm:n=8:a=0.5", Count: 1}}})
		return bytes.NewReader(b)
	}
	binBody := func() io.Reader {
		return encodeOps(t, []client.Op{{Op: "sample", ID: "gm:n=8:a=0.5", Count: 1}})
	}
	const binCT = client.ContentTypeBinary
	cases := []struct {
		name        string
		contentType string
		accept      string
		binary      bool
		status      int
		respType    string // Content-Type prefix of the response
		code        string // envelope code for error statuses
	}{
		{"default json", "", "", false, 200, "application/json", ""},
		{"explicit json", "application/json", "application/json", false, 200, "application/json", ""},
		{"json with params", "application/json; charset=utf-8", "", false, 200, "application/json", ""},
		{"wildcard accept", "", "*/*", false, 200, "application/json", ""},
		{"application wildcard", "", "application/*", false, 200, "application/json", ""},
		{"json out of two, json first", "", "application/json, " + binCT, false, 200, "application/json", ""},
		{"binary out of two, binary first", "", binCT + ", application/json", false, 200, binCT, ""},
		{"json in binary out", "", binCT, false, 200, binCT, ""},
		{"binary in json out", binCT, "", true, 200, "application/json", ""},
		{"binary both", binCT, binCT, true, 200, binCT, ""},
		{"unsupported content type", "text/plain", "", false, 415, "application/json", "unsupported_media"},
		{"malformed content type", "not a type;;;", "", false, 415, "application/json", "unsupported_media"},
		{"unacceptable accept", "", "text/html", false, 406, "application/json", "unsupported_media"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var body io.Reader
			if c.binary {
				body = binBody()
			} else {
				body = jsonBody()
			}
			resp := rawQuery(t, ts, c.contentType, c.accept, body)
			defer resp.Body.Close()
			if resp.StatusCode != c.status {
				t.Fatalf("status %d, want %d", resp.StatusCode, c.status)
			}
			if got := resp.Header.Get("Content-Type"); !strings.HasPrefix(got, c.respType) {
				t.Fatalf("response Content-Type %q, want prefix %q", got, c.respType)
			}
			if c.code != "" {
				var env client.Envelope
				if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
					t.Fatal(err)
				}
				if env.Error == nil || string(env.Error.Code) != c.code {
					t.Fatalf("envelope %+v, want code %s", env.Error, c.code)
				}
				return
			}
			// Success: exactly one result, whichever representation.
			if strings.HasPrefix(resp.Header.Get("Content-Type"), binCT) {
				results, err := readBinaryResults(t, resp.Body)
				if err != nil || len(results) != 1 {
					t.Fatalf("binary results = %v, %v; want 1 result", results, err)
				}
			} else {
				var out client.QueryResponse
				if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
					t.Fatal(err)
				}
				if len(out.Results) != 1 {
					t.Fatalf("results = %v, want 1", out.Results)
				}
			}
		})
	}
}

// TestV2QueryBinaryStreamEquivalence pins cross-transport value
// equivalence: deterministic ops (seeded batch, estimate) must answer
// identically over JSON and over the binary stream, and per-op errors
// must ride the stream positionally without poisoning it.
func TestV2QueryBinaryStreamEquivalence(t *testing.T) {
	ts := testServer(t)
	seed := uint64(99)
	ops := []client.Op{
		{Op: "batch", ID: "em:n=8:a=0.8", Counts: []int{0, 4, 8}, Seed: &seed},
		{Op: "estimate", ID: "gm:n=10:a=0.6", Outputs: []int{4, 4, 4}},
		{Op: "sample", ID: "gm:n=10:a=0.6", Count: 99}, // out of range: per-op error
		{Op: "batch", ID: "em:n=8:a=0.8", Counts: []int{1, 2}, Seed: &seed},
	}
	resp, out := doReq(t, ts.URL, http.MethodPost, "/v2/query", client.QueryRequest{Ops: ops})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("JSON query status %d: %v", resp.StatusCode, out)
	}
	jb, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	var jsonResp client.QueryResponse
	if err := json.Unmarshal(jb, &jsonResp); err != nil {
		t.Fatal(err)
	}

	hr := rawQuery(t, ts, client.ContentTypeBinary, client.ContentTypeBinary, encodeOps(t, ops))
	defer hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("binary query status %d", hr.StatusCode)
	}
	binResults, err := readBinaryResults(t, hr.Body)
	if err != nil {
		t.Fatalf("binary stream error: %v", err)
	}
	if len(binResults) != len(ops) {
		t.Fatalf("binary results = %d, want %d", len(binResults), len(ops))
	}
	for i, want := range jsonResp.Results {
		got := binResults[i]
		if want.Error != nil {
			if got.Error == nil || got.Error.Code != want.Error.Code {
				t.Errorf("op %d: binary error %+v, want code %v", i, got.Error, want.Error.Code)
			}
			continue
		}
		// HTTPStatus never crosses the wire; both sides carry zero here.
		if !reflect.DeepEqual(got, want) {
			t.Errorf("op %d diverged between transports:\nbinary %+v\n  json %+v", i, got, want)
		}
	}
}

// TestV2QueryBinaryStreamEdgeCases pins the streaming failure surface:
// empty streams are valid, malformed frames abort in-band, and a large
// op count (beyond MaxQueryOps) streams through uncapped.
func TestV2QueryBinaryStreamEdgeCases(t *testing.T) {
	ts := testServer(t)

	// Empty op stream → empty result stream.
	hr := rawQuery(t, ts, client.ContentTypeBinary, client.ContentTypeBinary, encodeOps(t, nil))
	results, err := readBinaryResults(t, hr.Body)
	hr.Body.Close()
	if err != nil || len(results) != 0 {
		t.Fatalf("empty stream: results %v, err %v", results, err)
	}

	// Malformed bytes mid-stream: results so far, then an in-band abort
	// carrying spec_invalid.
	good := encodeOps(t, []client.Op{{Op: "sample", ID: "gm:n=8:a=0.5", Count: 1}})
	mangled := bytes.NewBuffer(bytes.TrimSuffix(good.Bytes(), []byte{0}))
	mangled.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0x7F}) // oversized frame length
	hr = rawQuery(t, ts, client.ContentTypeBinary, client.ContentTypeBinary, mangled)
	results, err = readBinaryResults(t, hr.Body)
	hr.Body.Close()
	if len(results) != 1 {
		t.Fatalf("pre-abort results = %v, want the one good op answered", results)
	}
	var apiErr *client.Error
	if !errors.As(err, &apiErr) || apiErr.Code != client.CodeSpecInvalid {
		t.Fatalf("abort error = %v, want spec_invalid", err)
	}

	// MaxQueryOps is a buffered-mode limit; the stream takes 4× that.
	big := make([]client.Op, 4*client.MaxQueryOps)
	for i := range big {
		big[i] = client.Op{Op: "sample", ID: "um:n=8", Count: i % 9}
	}
	hr = rawQuery(t, ts, client.ContentTypeBinary, client.ContentTypeBinary, encodeOps(t, big))
	results, err = readBinaryResults(t, hr.Body)
	hr.Body.Close()
	if err != nil || len(results) != len(big) {
		t.Fatalf("large stream: %d results, err %v; want %d", len(results), err, len(big))
	}
	for i, r := range results {
		if r.Error != nil || r.Output == nil {
			t.Fatalf("large stream op %d: %+v", i, r)
		}
	}
}

// TestV2QueryBinaryBufferedCap pins that binary-in/JSON-out is a
// buffered mode and keeps the MaxQueryOps protocol limit.
func TestV2QueryBinaryBufferedCap(t *testing.T) {
	ts := testServer(t)
	big := make([]client.Op, client.MaxQueryOps+1)
	for i := range big {
		big[i] = client.Op{Op: "sample", ID: "um:n=8", Count: 1}
	}
	hr := rawQuery(t, ts, client.ContentTypeBinary, "", encodeOps(t, big))
	defer hr.Body.Close()
	if hr.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", hr.StatusCode)
	}
	var env client.Envelope
	if err := json.NewDecoder(hr.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if env.Error == nil || env.Error.Code != client.CodeOverLimit {
		t.Fatalf("envelope %+v, want over_limit", env.Error)
	}

	// An empty binary body in buffered mode mirrors JSON's empty-ops 400.
	hr = rawQuery(t, ts, client.ContentTypeBinary, "", encodeOps(t, nil))
	defer hr.Body.Close()
	if hr.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty buffered stream: status %d, want 400", hr.StatusCode)
	}
}

// TestBinaryStreamRaceSoak streams binary queries from several
// connections while the cache churns underneath them — a small capacity
// plus a PUT storm keeps admissions, builds, and LRU evictions racing
// the zero-alloc sampling path. Run under -race this pins that the
// streaming executor's scratch reuse never crosses goroutines.
func TestBinaryStreamRaceSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak skipped in -short mode")
	}
	svc := service.New(service.Config{Capacity: 4, Seed: 11})
	t.Cleanup(svc.Close)
	ts := httptest.NewServer(NewMux(svc))
	t.Cleanup(ts.Close)

	ids := []string{
		"gm:n=8:a=0.5", "em:n=8:a=0.8", "um:n=8", "gm:n=16:a=0.6",
		"em:n=16:a=0.5", "um:n=16", "gm:n=12:a=0.7", "em:n=12:a=0.9",
	}
	var wg sync.WaitGroup
	// PUT storm: churn admissions and evictions under the streams.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				id := ids[(i+w)%len(ids)]
				req, err := http.NewRequest(http.MethodPut, ts.URL+"/v2/mechanisms/"+url.PathEscape(id), nil)
				if err != nil {
					t.Error(err)
					return
				}
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(w)
	}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			seed := uint64(7)
			ops := make([]client.Op, 120)
			for i := range ops {
				id := ids[(i*7+w)%len(ids)]
				switch i % 3 {
				case 0:
					ops[i] = client.Op{Op: "sample", ID: id, Count: i % 9}
				case 1:
					ops[i] = client.Op{Op: "batch", ID: id, Counts: []int{0, 1, 2, 3, 4}, Seed: &seed}
				default:
					ops[i] = client.Op{Op: "batch", ID: id, Counts: []int{1, 2, 3}}
				}
			}
			hr := rawQuery(t, ts, client.ContentTypeBinary, client.ContentTypeBinary, encodeOps(t, ops))
			defer hr.Body.Close()
			results, err := readBinaryResults(t, hr.Body)
			if err != nil {
				t.Errorf("stream %d: %v", w, err)
				return
			}
			if len(results) != len(ops) {
				t.Errorf("stream %d: %d results, want %d", w, len(results), len(ops))
			}
			for i, r := range results {
				if r.Error != nil {
					t.Errorf("stream %d op %d: %v", w, i, r.Error)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestBinaryStreamPipelined drives the stream full-duplex: ops written
// one at a time while results are read concurrently, the shape a
// long-lived SDK stream produces, pinning that the server's sequential
// loop plus periodic flushes cannot deadlock against a pipelining peer.
func TestBinaryStreamPipelined(t *testing.T) {
	ts := testServer(t)
	pr, pw := io.Pipe()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v2/query", pr)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", client.ContentTypeBinary)
	req.Header.Set("Accept", client.ContentTypeBinary)
	done := make(chan error, 1)
	const n = 3 * client.StreamFlushEvery
	go func() {
		fw := client.NewFrameWriter(pw)
		for i := 0; i < n; i++ {
			op := client.Op{Op: "sample", ID: "gm:n=8:a=0.5", Count: i % 9}
			if err := fw.WriteOp(&op); err != nil {
				done <- err
				return
			}
			if err := fw.Flush(); err != nil {
				done <- err
				return
			}
		}
		if err := fw.Close(); err != nil {
			done <- err
			return
		}
		done <- pw.Close()
	}()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	results, err := readBinaryResults(t, resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if werr := <-done; werr != nil {
		t.Fatal(werr)
	}
	if len(results) != n {
		t.Fatalf("%d results, want %d", len(results), n)
	}
	for i, r := range results {
		if r.Output == nil || r.Error != nil {
			t.Fatalf("op %d: %+v", i, r)
		}
	}
}

// TestBinaryStreamOutlivesServerTimeouts runs a pipelined stream for
// about a second against a server whose ReadTimeout and WriteTimeout
// are 200 ms. The stream pushes its deadlines forward at every flush,
// so it must finish with every result and no abort frame.
func TestBinaryStreamOutlivesServerTimeouts(t *testing.T) {
	svc := service.New(service.Config{Capacity: 32, Seed: 7})
	t.Cleanup(svc.Close)
	ts := httptest.NewUnstartedServer(NewMux(svc))
	ts.Config.ReadTimeout = 200 * time.Millisecond
	ts.Config.WriteTimeout = 200 * time.Millisecond
	ts.Start()
	t.Cleanup(ts.Close)
	if _, err := svc.Get(service.Spec{Kind: service.KindGeometric, N: 8, Alpha: 0.5}); err != nil {
		t.Fatal(err)
	}

	pr, pw := io.Pipe()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v2/query", pr)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", client.ContentTypeBinary)
	req.Header.Set("Accept", client.ContentTypeBinary)
	const batches = 20 // one flush each, 50 ms apart: the stream lives ~1 s
	done := make(chan error, 1)
	go func() {
		fw := client.NewFrameWriter(pw)
		for b := 0; b < batches; b++ {
			if b > 0 {
				time.Sleep(50 * time.Millisecond)
			}
			for i := 0; i < client.StreamFlushEvery; i++ {
				op := client.Op{Op: "sample", ID: "gm:n=8:a=0.5", Count: i % 9}
				if err := fw.WriteOp(&op); err != nil {
					done <- err
					return
				}
			}
			if err := fw.Flush(); err != nil {
				done <- err
				return
			}
		}
		if err := fw.Close(); err != nil {
			done <- err
			return
		}
		done <- pw.Close()
	}()
	start := time.Now()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	results, err := readBinaryResults(t, resp.Body)
	if err != nil {
		t.Fatalf("stream aborted after %v and %d results: %v", time.Since(start), len(results), err)
	}
	if werr := <-done; werr != nil {
		t.Fatal(werr)
	}
	if len(results) != batches*client.StreamFlushEvery {
		t.Fatalf("%d results, want %d", len(results), batches*client.StreamFlushEvery)
	}
	if lived := time.Since(start); lived < 4*ts.Config.ReadTimeout {
		t.Fatalf("stream lived %v, want well past the %v server timeouts", lived, ts.Config.ReadTimeout)
	}
	for i, r := range results {
		if r.Output == nil || r.Error != nil {
			t.Fatalf("op %d: %+v", i, r)
		}
	}
}
