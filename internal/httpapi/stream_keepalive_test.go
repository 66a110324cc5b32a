package httpapi

import (
	"bytes"
	"context"
	"errors"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"privcount/client"
	"privcount/internal/service"
)

// lockedBuffer is a bytes.Buffer safe for the server's error logger.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// loggedServer starts a test server whose net/http error log (where a
// recovered handler panic is reported) is captured in the returned
// buffer.
func loggedServer(t *testing.T) (*httptest.Server, *lockedBuffer) {
	t.Helper()
	svc := service.New(service.Config{Capacity: 32, Seed: 7})
	t.Cleanup(svc.Close)
	ts := httptest.NewUnstartedServer(NewMux(svc))
	logs := &lockedBuffer{}
	ts.Config.ErrorLog = log.New(logs, "", 0)
	ts.Start()
	t.Cleanup(ts.Close)
	return ts, logs
}

// TestQueryStreamKeepAliveRounds runs sequential SDK streams over one
// kept-alive connection. Each stream sends a batch of ops, closes its
// send side, reads every result to EOF and closes. The server must
// consume each request body to its end before the handler returns:
// otherwise net/http's post-handler body close races the connection's
// background read, panics with "invalid concurrent Body.Read call", and
// resets the connection under the next stream.
func TestQueryStreamKeepAliveRounds(t *testing.T) {
	ts, logs := loggedServer(t)
	tr := &http.Transport{MaxConnsPerHost: 1}
	t.Cleanup(tr.CloseIdleConnections)
	c, err := client.New(ts.URL, client.WithHTTPClient(&http.Client{Transport: tr}))
	if err != nil {
		t.Fatal(err)
	}
	rounds := 400
	if testing.Short() {
		rounds = 150
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	for r := 0; r < rounds; r++ {
		ops := 1 + (r*37)%300
		s, err := c.QueryStream(ctx)
		if err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		for i := 0; i < ops; i++ {
			op := client.Op{Op: "batch", ID: "gm:n=8:a=0.5", Counts: []int{0, 4, 8}}
			if err := s.Send(&op); err != nil {
				s.Close()
				t.Fatalf("round %d op %d: send: %v (server log: %s)", r, i, err, logs)
			}
		}
		if err := s.CloseSend(); err != nil {
			s.Close()
			t.Fatalf("round %d: close send: %v (server log: %s)", r, err, logs)
		}
		got := 0
		for {
			res, err := s.Recv()
			if err == io.EOF {
				break
			}
			if err != nil {
				s.Close()
				t.Fatalf("round %d: recv after %d results: %v (server log: %s)", r, got, err, logs)
			}
			if res.Error != nil {
				s.Close()
				t.Fatalf("round %d result %d: %v", r, got, res.Error)
			}
			got++
		}
		s.Close()
		if got != ops {
			t.Fatalf("round %d: %d results, want %d", r, got, ops)
		}
	}
	if l := logs.String(); strings.Contains(l, "panic") {
		t.Fatalf("server panicked: %s", l)
	}
}

// tailReader yields zero bytes until left runs out (never, when left
// is negative) or stop is closed, then EOF: a client that keeps sending
// after its stream was aborted.
type tailReader struct {
	stop <-chan struct{}
	left int64
}

func (r *tailReader) Read(p []byte) (int, error) {
	select {
	case <-r.stop:
		return 0, io.EOF
	default:
	}
	if r.left == 0 {
		return 0, io.EOF
	}
	if r.left > 0 && int64(len(p)) > r.left {
		p = p[:r.left]
	}
	clear(p)
	if r.left > 0 {
		r.left -= int64(len(p))
	}
	return len(p), nil
}

// TestQueryStreamAbortDrainIsBounded sends a malformed frame and then
// keeps sending: without end, or for a little more than the server's
// drain limit. The server must end the exchange after a bounded drain of
// the request body instead of reading the tail forever, and must not
// panic when the tail ends just past the drain; a well-formed stream on
// the same transport afterwards must still be served.
func TestQueryStreamAbortDrainIsBounded(t *testing.T) {
	for _, tc := range []struct {
		name string
		tail int64
	}{
		{"endless", -1},
		{"past-drain-limit", streamDrainLimit + 100<<10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ts, logs := loggedServer(t)
			tr := &http.Transport{MaxConnsPerHost: 1}
			t.Cleanup(tr.CloseIdleConnections)
			hc := &http.Client{Transport: tr}

			stop := make(chan struct{})
			defer close(stop)
			body := io.MultiReader(bytes.NewReader([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0x7F}),
				&tailReader{stop: stop, left: tc.tail})
			req, err := http.NewRequest(http.MethodPost, ts.URL+"/v2/query", body)
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("Content-Type", client.ContentTypeBinary)
			req.Header.Set("Accept", client.ContentTypeBinary)
			done := make(chan error, 1)
			go func() {
				resp, err := hc.Do(req)
				if err != nil {
					done <- err
					return
				}
				defer resp.Body.Close()
				_, err = readBinaryResults(t, resp.Body)
				done <- err
			}()
			select {
			case err := <-done:
				// The client sees the abort frame or, when the server
				// cuts the connection while it is still writing, a reset.
				var apiErr *client.Error
				if err == nil || (errors.As(err, &apiErr) && apiErr.Code != client.CodeSpecInvalid) {
					t.Fatalf("abort error = %v, want spec_invalid or a cut connection", err)
				}
			case <-time.After(30 * time.Second):
				t.Fatal("an aborted stream whose client keeps sending never ended")
			}

			c, err := client.New(ts.URL, client.WithHTTPClient(hc))
			if err != nil {
				t.Fatal(err)
			}
			s, err := c.QueryStream(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			op := client.Op{Op: "sample", ID: "gm:n=8:a=0.5", Count: 3}
			if err := s.Send(&op); err != nil {
				t.Fatal(err)
			}
			if err := s.CloseSend(); err != nil {
				t.Fatal(err)
			}
			if res, err := s.Recv(); err != nil || res.Error != nil {
				t.Fatalf("stream after abort: %+v, %v", res, err)
			}
			if _, err := s.Recv(); err != io.EOF {
				t.Fatalf("stream after abort did not end: %v", err)
			}
			if l := logs.String(); strings.Contains(l, "panic") {
				t.Fatalf("server panicked: %s", l)
			}
		})
	}
}
