package client

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
)

// This file is the binary form of the /v2/query op stream, shared —
// like the JSON vocabulary in wire.go — by the server and the SDK.
// JSON stays the default; binary is negotiated per request with
// Content-Type / Accept: ContentTypeBinary and exists so one
// connection can stream arbitrarily large batches without either side
// buffering the whole request.
//
// Stream grammar (all integers little-endian, varints are unsigned
// LEB128 as encoding/binary uvarints):
//
//	stream  = magic frame* end
//	magic   = "PCB1"
//	frame   = uvarint(len(payload)) payload      ; 0 < len <= MaxFrameBytes
//	end     = uvarint(0)
//
// An op payload is an opcode byte, the mechanism ID as a length-
// prefixed string, then opcode-specific fields:
//
//	sample(1)   = uvarint(count)
//	batch(2)    = hasSeed byte, [8-byte seed], uvarint(k), k*uvarint(count)
//	estimate(3) = uvarint(k), k*uvarint(output)
//
// A result payload is a kind byte, then kind-specific fields:
//
//	error(0)    = string(code), string(message), f64bits(retryAfterSeconds)
//	sample(1)   = uvarint(output)
//	batch(2)    = uvarint(k), k*uvarint(output)
//	estimate(3) = uvarint(k), k*uvarint(mle), f64bits(sum), f64bits(mean), unbiased byte
//	abort(4)    = same fields as error(0)
//
// error(0) is positional — the op failed, the stream continues. An
// abort(4) frame ends the whole stream early: it is how the server
// reports a stream-level failure after the HTTP status line is already
// on the wire. Zero-length batches and estimates decode to nil slices,
// matching the JSON codec's omitempty round trip, so the two transports
// are value-equivalent over the op lattice. Negative counts cannot be
// encoded; the JSON surface rejects them at the service layer anyway.

// Content types for the /v2/query negotiation. JSON is the default on
// both sides of the exchange; binary is opt-in per direction.
const (
	ContentTypeJSON   = "application/json"
	ContentTypeBinary = "application/x-privcount-batch"
)

// MaxFrameBytes bounds a single frame's payload, so a corrupt or
// hostile length prefix cannot make a reader allocate unboundedly.
// One frame holds one op or one result; streams are unbounded.
const MaxFrameBytes = 1 << 20

var binaryMagic = [4]byte{'P', 'C', 'B', '1'}

// Opcodes and result kinds. Values are part of the wire format.
const (
	opcodeSample   = 1
	opcodeBatch    = 2
	opcodeEstimate = 3

	resultError    = 0
	resultSample   = 1
	resultBatch    = 2
	resultEstimate = 3
	resultAbort    = 4
)

// A FrameWriter encodes ops or results onto one side of a binary query
// stream. It buffers internally; Close (or Flush) must be called to
// push the tail onto the underlying writer. Not safe for concurrent
// use.
type FrameWriter struct {
	w          *bufio.Writer
	buf        []byte
	wroteMagic bool
	closed     bool
}

// NewFrameWriter starts a binary stream on w. Nothing is written until
// the first frame (or Close, which emits a valid empty stream).
func NewFrameWriter(w io.Writer) *FrameWriter {
	return &FrameWriter{w: bufio.NewWriter(w)}
}

func (fw *FrameWriter) frame(payload []byte) error {
	if fw.closed {
		return fmt.Errorf("client: write on closed binary stream")
	}
	if len(payload) > MaxFrameBytes {
		return fmt.Errorf("client: frame payload %d bytes exceeds %d", len(payload), MaxFrameBytes)
	}
	if !fw.wroteMagic {
		fw.wroteMagic = true
		if _, err := fw.w.Write(binaryMagic[:]); err != nil {
			return err
		}
	}
	var lb [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(lb[:], uint64(len(payload)))
	if _, err := fw.w.Write(lb[:n]); err != nil {
		return err
	}
	_, err := fw.w.Write(payload)
	return err
}

// WriteOp appends one op frame to the stream.
func (fw *FrameWriter) WriteOp(op *Op) error {
	b, err := appendOp(fw.buf[:0], op)
	if err != nil {
		return err
	}
	fw.buf = b
	return fw.frame(b)
}

// WriteResult appends one result frame to the stream.
func (fw *FrameWriter) WriteResult(r *OpResult) error {
	b, err := appendResult(fw.buf[:0], r)
	if err != nil {
		return err
	}
	fw.buf = b
	return fw.frame(b)
}

// WriteAbort appends a stream-abort frame: the receiver sees e as a
// stream-level error instead of a positional result. The stream is
// still terminated by Close.
func (fw *FrameWriter) WriteAbort(e *Error) error {
	b := append(fw.buf[:0], resultAbort)
	b = appendWireError(b, e)
	fw.buf = b
	return fw.frame(b)
}

// Flush pushes buffered frames to the underlying writer, so a peer
// that is reading results concurrently makes progress mid-stream.
func (fw *FrameWriter) Flush() error {
	if !fw.closed {
		return fw.w.Flush()
	}
	return nil
}

// Close terminates the stream with the end marker and flushes. It does
// not close the underlying writer. Further writes fail.
func (fw *FrameWriter) Close() error {
	if fw.closed {
		return nil
	}
	if !fw.wroteMagic {
		fw.wroteMagic = true
		if _, err := fw.w.Write(binaryMagic[:]); err != nil {
			return err
		}
	}
	fw.closed = true
	if err := fw.w.WriteByte(0); err != nil {
		return err
	}
	return fw.w.Flush()
}

// A FrameReader decodes one side of a binary query stream. Read
// methods return io.EOF at the stream's end marker; a stream cut off
// before the marker surfaces io.ErrUnexpectedEOF, so truncation is
// never mistaken for completion. Not safe for concurrent use.
type FrameReader struct {
	r         *bufio.Reader
	buf       []byte
	readMagic bool
	done      bool
}

// NewFrameReader reads a binary stream from r.
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{r: bufio.NewReader(r)}
}

// readFrame returns the next frame's payload, valid until the next
// call. io.EOF means the stream ended cleanly.
func (fr *FrameReader) readFrame() ([]byte, error) {
	if fr.done {
		return nil, io.EOF
	}
	if !fr.readMagic {
		var m [4]byte
		if _, err := io.ReadFull(fr.r, m[:]); err != nil {
			return nil, noEOF(err)
		}
		if m != binaryMagic {
			return nil, fmt.Errorf("client: bad binary stream magic %q", m[:])
		}
		fr.readMagic = true
	}
	n, err := binary.ReadUvarint(fr.r)
	if err != nil {
		return nil, noEOF(err)
	}
	if n == 0 {
		fr.done = true
		return nil, io.EOF
	}
	if n > MaxFrameBytes {
		return nil, fmt.Errorf("client: frame payload %d bytes exceeds %d", n, MaxFrameBytes)
	}
	if uint64(cap(fr.buf)) < n {
		fr.buf = make([]byte, n)
	}
	fr.buf = fr.buf[:n]
	if _, err := io.ReadFull(fr.r, fr.buf); err != nil {
		return nil, noEOF(err)
	}
	return fr.buf, nil
}

// noEOF turns a bare EOF inside a frame into ErrUnexpectedEOF: only
// the explicit end marker may end a stream.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// ReadOp decodes the next op frame. It returns io.EOF at end of
// stream.
func (fr *FrameReader) ReadOp() (Op, error) {
	var op Op
	err := fr.ReadOpInto(&op)
	return op, err
}

// ReadOpInto is ReadOp reusing op's slice capacity, the server's
// steady-state path: after the first few frames a homogeneous stream
// decodes without allocating.
func (fr *FrameReader) ReadOpInto(op *Op) error {
	payload, err := fr.readFrame()
	if err != nil {
		return err
	}
	return decodeOp(payload, op)
}

// ReadResult decodes the next result frame. io.EOF means the stream
// ended; a decoded abort frame is returned as its *Error.
func (fr *FrameReader) ReadResult() (OpResult, error) {
	var r OpResult
	payload, err := fr.readFrame()
	if err != nil {
		return r, err
	}
	err = decodeResult(payload, &r)
	return r, err
}

// appendOp encodes op onto b. Ops with negative counts or outputs are
// not encodable (the service rejects them anyway).
func appendOp(b []byte, op *Op) ([]byte, error) {
	var code byte
	switch op.Op {
	case OpSample:
		code = opcodeSample
	case OpBatch:
		code = opcodeBatch
	case OpEstimate:
		code = opcodeEstimate
	default:
		return nil, fmt.Errorf("client: op %q not encodable", op.Op)
	}
	b = append(b, code)
	b = appendString(b, op.ID)
	switch code {
	case opcodeSample:
		return appendCount(b, op.Count)
	case opcodeBatch:
		if op.Seed != nil {
			b = append(b, 1)
			b = binary.LittleEndian.AppendUint64(b, *op.Seed)
		} else {
			b = append(b, 0)
		}
		return appendCounts(b, op.Counts)
	default:
		return appendCounts(b, op.Outputs)
	}
}

// decodeOp decodes into op, reusing its slice capacity. The vector
// field an opcode does not use keeps its (truncated) scratch rather
// than being nilled, so alternating opcodes don't shed capacity;
// consumers dispatch on op.Op and never read the unused vector.
func decodeOp(payload []byte, op *Op) error {
	d := decoder{buf: payload}
	code := d.byte()
	op.ID = d.string()
	op.Count = 0
	op.Seed = nil
	op.Counts = op.Counts[:0]
	op.Outputs = op.Outputs[:0]
	switch code {
	case opcodeSample:
		op.Op = OpSample
		op.Count = d.count()
	case opcodeBatch:
		op.Op = OpBatch
		if d.byte() != 0 {
			s := d.uint64()
			op.Seed = &s
		}
		op.Counts = d.counts(op.Counts)
	case opcodeEstimate:
		op.Op = OpEstimate
		op.Outputs = d.counts(op.Outputs)
	default:
		return fmt.Errorf("client: unknown opcode %d", code)
	}
	return d.finish("op")
}

// appendResult encodes r onto b, choosing the kind from which payload
// group is populated, mirroring the JSON codec's one-of convention.
func appendResult(b []byte, r *OpResult) ([]byte, error) {
	switch {
	case r.Error != nil:
		b = append(b, resultError)
		return appendWireError(b, r.Error), nil
	case r.Output != nil:
		b = append(b, resultSample)
		return appendCount(b, *r.Output)
	case r.Sum != nil && r.Mean != nil && r.Unbiased != nil:
		b = append(b, resultEstimate)
		b, err := appendCounts(b, r.MLE)
		if err != nil {
			return nil, err
		}
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(*r.Sum))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(*r.Mean))
		if *r.Unbiased {
			return append(b, 1), nil
		}
		return append(b, 0), nil
	default:
		b = append(b, resultBatch)
		return appendCounts(b, r.Outputs)
	}
}

func decodeResult(payload []byte, r *OpResult) error {
	d := decoder{buf: payload}
	switch kind := d.byte(); kind {
	case resultError, resultAbort:
		e := d.wireError()
		if err := d.finish("result"); err != nil {
			return err
		}
		if kind == resultAbort {
			return e
		}
		*r = OpResult{Error: e}
		return nil
	case resultSample:
		v := d.count()
		*r = OpResult{Output: &v}
	case resultBatch:
		*r = OpResult{Outputs: d.counts(r.Outputs[:0])}
	case resultEstimate:
		mle := d.counts(r.MLE[:0])
		sum := math.Float64frombits(d.uint64())
		mean := math.Float64frombits(d.uint64())
		unbiased := d.byte() != 0
		*r = OpResult{MLE: mle, Sum: &sum, Mean: &mean, Unbiased: &unbiased}
	default:
		return fmt.Errorf("client: unknown result kind %d", kind)
	}
	return d.finish("result")
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendCount(b []byte, v int) ([]byte, error) {
	if v < 0 {
		return nil, fmt.Errorf("client: negative count %d not encodable", v)
	}
	return binary.AppendUvarint(b, uint64(v)), nil
}

// appendCounts encodes vs as a length-prefixed uvarint vector, checking
// each count in the loop rather than through appendCount, which does
// not inline. It grows b by two bytes a count once and writes one- and
// two-byte varints directly, so a vector of counts below 2¹⁴ (every
// admitted mechanism's) appends without regrowing.
func appendCounts(b []byte, vs []int) ([]byte, error) {
	b = binary.AppendUvarint(b, uint64(len(vs)))
	b = slices.Grow(b, 2*len(vs))
	for _, v := range vs {
		switch {
		case v < 0:
			return nil, fmt.Errorf("client: negative count %d not encodable", v)
		case v < 0x80:
			b = append(b, byte(v))
		case v < 0x4000:
			b = append(b, byte(v)|0x80, byte(v>>7))
		default:
			b = binary.AppendUvarint(b, uint64(v))
		}
	}
	return b, nil
}

func appendWireError(b []byte, e *Error) []byte {
	b = appendString(b, string(e.Code))
	b = appendString(b, e.Message)
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(e.RetryAfterSeconds))
}

// decoder walks one frame payload. Errors are sticky: the first
// malformed field poisons the rest, and finish reports it, so call
// sites read fields linearly and check once.
type decoder struct {
	buf []byte
	err error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("client: "+format, args...)
	}
}

func (d *decoder) byte() byte {
	if d.err != nil || len(d.buf) < 1 {
		d.fail("frame truncated")
		return 0
	}
	v := d.buf[0]
	d.buf = d.buf[1:]
	return v
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.fail("bad varint")
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *decoder) uint64() uint64 {
	if d.err != nil || len(d.buf) < 8 {
		d.fail("frame truncated")
		return 0
	}
	v := binary.LittleEndian.Uint64(d.buf)
	d.buf = d.buf[8:]
	return v
}

func (d *decoder) count() int {
	v := d.uvarint()
	if v > math.MaxInt32 {
		d.fail("count %d out of range", v)
		return 0
	}
	return int(v)
}

// counts decodes a length-prefixed int vector into dst's capacity. A
// zero-length vector yields nil, matching JSON omitempty round trips.
// One- and two-byte varints are decoded inline. A two-byte varint holds
// any value below 2¹⁴, so it covers every count and output of an
// admitted mechanism (n ≤ service.MaxN = 4096); a query-stream mix
// carries about 80% of them in one byte. Longer, truncated or overlong
// input falls back to binary.Uvarint; an error leaves the read position
// where count would.
func (d *decoder) counts(dst []int) []int {
	k := d.uvarint()
	if k == 0 || d.err != nil {
		return nil
	}
	// Each count is at least one byte, so the remaining payload bounds k
	// and a hostile prefix cannot force a huge allocation.
	if k > uint64(len(d.buf)) {
		d.fail("vector length %d exceeds frame", k)
		return nil
	}
	n := len(dst)
	dst = slices.Grow(dst, int(k))[:n+int(k)]
	out, buf := dst[n:], d.buf
	for i := range out {
		if len(buf) > 0 && buf[0] < 0x80 {
			out[i] = int(buf[0])
			buf = buf[1:]
			continue
		}
		if len(buf) > 1 && buf[1] < 0x80 {
			out[i] = int(buf[0]&0x7f) | int(buf[1])<<7
			buf = buf[2:]
			continue
		}
		v, w := binary.Uvarint(buf)
		if w <= 0 {
			d.buf = buf
			d.fail("bad varint")
			return nil
		}
		buf = buf[w:]
		if v > math.MaxInt32 {
			d.buf = buf
			d.fail("count %d out of range", v)
			return nil
		}
		out[i] = int(v)
	}
	d.buf = buf
	return dst
}

func (d *decoder) string() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.buf)) {
		d.fail("string length %d exceeds frame", n)
		return ""
	}
	s := string(d.buf[:n])
	d.buf = d.buf[n:]
	return s
}

func (d *decoder) wireError() *Error {
	e := &Error{Code: Code(d.string()), Message: d.string()}
	e.RetryAfterSeconds = math.Float64frombits(d.uint64())
	return e
}

func (d *decoder) finish(what string) error {
	if d.err != nil {
		return d.err
	}
	if len(d.buf) != 0 {
		return fmt.Errorf("client: %d trailing bytes after %s frame", len(d.buf), what)
	}
	return nil
}
