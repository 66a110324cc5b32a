package client

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
)

// StreamFlushEvery is the flush window of a binary /v2/query stream, in
// frames: Stream.Send pushes its buffered ops to the transport every
// StreamFlushEvery ops (and at CloseSend), and the server flushes its
// results as often.
const StreamFlushEvery = 64

// Stream is a live binary /v2/query exchange: ops go up and results
// come back positionally over one HTTP request, with no cap on the op
// count and no per-request JSON overhead. Obtain one with
// Client.QueryStream.
//
// The send and receive sides are independent: one goroutine may Send
// while another Recvs. Neither side is safe for concurrent use with
// itself. Results arrive in op order; the server answers as it reads,
// but may buffer a bounded number of results before flushing, so a
// caller that Sends one op and blocks on Recv should CloseSend first
// (or keep enough ops in flight to fill the server's flush window).
type Stream struct {
	pw     *io.PipeWriter
	fw     *FrameWriter
	respc  chan *http.Response
	errc   chan error
	ctx    context.Context
	cancel context.CancelFunc

	resp    *http.Response // set by first Recv
	fr      *FrameReader
	sent    int // ops framed by Send
	sendErr error
	recvErr error
}

// QueryStream opens a streaming query against POST /v2/query using the
// length-prefixed binary transport in both directions. The exchange
// lives until CloseSend has been called and every result has been
// Recv'd (then Recv returns io.EOF), or until Close or ctx tears it
// down. WithRetry does not apply: a stream is stateful, and the caller
// owns resumption.
func (c *Client) QueryStream(ctx context.Context) (*Stream, error) {
	ctx, cancel := context.WithCancel(ctx)
	pr, pw := io.Pipe()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v2/query", pr)
	if err != nil {
		cancel()
		return nil, fmt.Errorf("client: building request: %w", err)
	}
	req.Header.Set("Content-Type", ContentTypeBinary)
	req.Header.Set("Accept", ContentTypeBinary)
	s := &Stream{
		pw:     pw,
		fw:     NewFrameWriter(pw),
		respc:  make(chan *http.Response, 1),
		errc:   make(chan error, 1),
		ctx:    ctx,
		cancel: cancel,
	}
	go func() {
		resp, err := c.hc.Do(req)
		if err != nil {
			// Unblock any Send stuck writing into the abandoned body.
			pr.CloseWithError(err)
			s.errc <- fmt.Errorf("client: POST /v2/query: %w", err)
			return
		}
		s.respc <- resp
	}()
	return s, nil
}

// Send frames one op onto the stream. It blocks when the server (or
// the transport) applies backpressure — drain results concurrently for
// unbounded streams.
func (s *Stream) Send(op *Op) error {
	if s.sendErr != nil {
		return s.sendErr
	}
	if err := s.fw.WriteOp(op); err != nil {
		s.sendErr = err
		return err
	}
	// Flush through the pipe once per window, as the server flushes its
	// results: one write system call per StreamFlushEvery ops rather
	// than per op. CloseSend flushes the rest.
	s.sent++
	if s.sent%StreamFlushEvery == 0 {
		if err := s.fw.Flush(); err != nil {
			s.sendErr = err
			return err
		}
	}
	return nil
}

// CloseSend ends the op stream cleanly: the server answers every op
// already sent, then ends the result stream, after which Recv returns
// io.EOF. Send after CloseSend fails.
func (s *Stream) CloseSend() error {
	if s.sendErr != nil {
		return s.sendErr
	}
	s.sendErr = fmt.Errorf("client: stream send side closed")
	if err := s.fw.Close(); err != nil {
		s.pw.CloseWithError(err)
		return err
	}
	return s.pw.Close()
}

// Recv returns the next result, in op order. It returns io.EOF after
// the final result of a CloseSend'd stream; a server-side abort
// surfaces as the typed *Error it carried. Recv blocks until the
// server flushes — see the Stream contract.
func (s *Stream) Recv() (*OpResult, error) {
	if s.recvErr != nil {
		return nil, s.recvErr
	}
	if s.fr == nil {
		if err := s.waitResponse(); err != nil {
			s.recvErr = err
			return nil, err
		}
	}
	res, err := s.fr.ReadResult()
	if err != nil {
		s.recvErr = err
		return nil, err
	}
	return &res, nil
}

// waitResponse parks until the transport delivers response headers,
// then vets status and content type.
func (s *Stream) waitResponse() error {
	select {
	case err := <-s.errc:
		return err
	case resp := <-s.respc:
		s.resp = resp
	case <-s.ctx.Done():
		return s.ctx.Err()
	}
	if s.resp.StatusCode != http.StatusOK {
		defer s.resp.Body.Close()
		var env Envelope
		if err := json.NewDecoder(io.LimitReader(s.resp.Body, 1<<20)).Decode(&env); err != nil || env.Error == nil {
			return fmt.Errorf("client: POST /v2/query: unexpected status %d", s.resp.StatusCode)
		}
		env.Error.HTTPStatus = s.resp.StatusCode
		if env.Error.RetryAfterSeconds == 0 {
			if secs, err := strconv.Atoi(s.resp.Header.Get("Retry-After")); err == nil && secs > 0 {
				env.Error.RetryAfterSeconds = float64(secs)
			}
		}
		return env.Error
	}
	if ct := s.resp.Header.Get("Content-Type"); ct != ContentTypeBinary {
		s.resp.Body.Close()
		return fmt.Errorf("client: stream response is %q, not %q", ct, ContentTypeBinary)
	}
	s.fr = NewFrameReader(s.resp.Body)
	return nil
}

// Close tears the stream down unconditionally and releases its
// transport resources. It is safe after any error and as a deferred
// cleanup alongside the normal CloseSend/Recv-to-EOF shutdown.
func (s *Stream) Close() error {
	s.cancel()
	s.pw.CloseWithError(fmt.Errorf("client: stream closed"))
	if s.sendErr == nil {
		s.sendErr = fmt.Errorf("client: stream closed")
	}
	if s.recvErr == nil {
		s.recvErr = fmt.Errorf("client: stream closed")
	}
	if s.resp != nil {
		io.Copy(io.Discard, io.LimitReader(s.resp.Body, 1<<20))
		return s.resp.Body.Close()
	}
	return nil
}
