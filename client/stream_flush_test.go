package client

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
)

// countingWriter counts the writes that reach w.
type countingWriter struct {
	w io.Writer
	n int
}

func (c *countingWriter) Write(p []byte) (int, error) {
	c.n++
	return c.w.Write(p)
}

// TestStreamSendFlushesPerWindow pins Send's write batching: ops reach
// the request-body pipe once per StreamFlushEvery, plus once at
// CloseSend, not once per op, and every result still arrives in op
// order. The server here echoes each sample op's count back as its
// output, so order is checkable without a mechanism.
func TestStreamSendFlushesPerWindow(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fr := NewFrameReader(r.Body)
		var counts []int
		for {
			op, err := fr.ReadOp()
			if err == io.EOF {
				break
			}
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			counts = append(counts, op.Count)
		}
		w.Header().Set("Content-Type", ContentTypeBinary)
		fw := NewFrameWriter(w)
		for _, c := range counts {
			out := c
			if err := fw.WriteResult(&OpResult{Output: &out}); err != nil {
				return
			}
		}
		fw.Close()
	}))
	defer ts.Close()
	c, err := New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	s, err := c.QueryStream(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	pipe := &countingWriter{w: s.pw}
	s.fw = NewFrameWriter(pipe)

	const ops = 10 * StreamFlushEvery
	for i := 0; i < ops; i++ {
		if err := s.Send(&Op{Op: OpSample, ID: "gm:n=4:a=0.5", Count: i}); err != nil {
			t.Fatalf("Send %d: %v", i, err)
		}
	}
	if err := s.CloseSend(); err != nil {
		t.Fatal(err)
	}
	if want := ops/StreamFlushEvery + 1; pipe.n > want {
		t.Errorf("%d Sends made %d writes into the request body, want at most %d", ops, pipe.n, want)
	}
	for i := 0; i < ops; i++ {
		res, err := s.Recv()
		if err != nil {
			t.Fatalf("Recv %d: %v", i, err)
		}
		if res.Output == nil || *res.Output != i {
			t.Fatalf("result %d = %+v, want output %d", i, res, i)
		}
	}
	if _, err := s.Recv(); err != io.EOF {
		t.Fatalf("Recv after the last result: %v, want io.EOF", err)
	}
}
