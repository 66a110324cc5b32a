package client

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"testing"
)

// The count-vector codec as it was before its one-byte fast paths: one
// appendCount and one count call per element. The tests below hold the
// fast codec to it byte for byte, value for value and error for error.

func refAppendCount(b []byte, v int) ([]byte, error) {
	if v < 0 {
		return nil, fmt.Errorf("client: negative count %d not encodable", v)
	}
	return binary.AppendUvarint(b, uint64(v)), nil
}

func refAppendCounts(b []byte, vs []int) ([]byte, error) {
	b = binary.AppendUvarint(b, uint64(len(vs)))
	for _, v := range vs {
		var err error
		if b, err = refAppendCount(b, v); err != nil {
			return nil, err
		}
	}
	return b, nil
}

func refUvarint(d *decoder) uint64 {
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

func refCount(d *decoder) int {
	v := refUvarint(d)
	if v > math.MaxInt32 {
		d.fail("count %d out of range", v)
		return 0
	}
	return int(v)
}

func refCounts(d *decoder, dst []int) []int {
	k := refUvarint(d)
	if k == 0 || d.err != nil {
		return nil
	}
	if k > uint64(len(d.buf)) {
		d.fail("vector length %d exceeds frame", k)
		return nil
	}
	for i := uint64(0); i < k; i++ {
		dst = append(dst, refCount(d))
	}
	if d.err != nil {
		return nil
	}
	return dst
}

// errText renders an error for comparison; nil is "".
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// checkDecodeMatches decodes payload with both codecs, into fresh and
// into reused scratch, and requires the same values, the same error
// text and the same read position.
func checkDecodeMatches(t *testing.T, payload []byte) {
	t.Helper()
	for _, scratch := range [][]int{nil, make([]int, 3, 64)} {
		want := decoder{buf: payload}
		wantVals := refCounts(&want, slices.Clone(scratch)[:0])
		got := decoder{buf: payload}
		gotVals := got.counts(slices.Clone(scratch)[:0])
		if !slices.Equal(gotVals, wantVals) || (gotVals == nil) != (wantVals == nil) {
			t.Fatalf("payload %x: counts %v, reference %v", payload, gotVals, wantVals)
		}
		if errText(got.err) != errText(want.err) {
			t.Fatalf("payload %x: error %q, reference %q", payload, errText(got.err), errText(want.err))
		}
		if len(got.buf) != len(want.buf) {
			t.Fatalf("payload %x: %d bytes left, reference %d", payload, len(got.buf), len(want.buf))
		}
	}
}

func TestCountsCodecMatchesReference(t *testing.T) {
	for _, vs := range [][]int{
		nil,
		{},
		{0},
		{0, 1, 0x7f},                         // 1-byte varints
		{0x80, 0x3fff},                       // 2-byte varints
		{1 << 28, math.MaxInt32, 5, 0x80, 0}, // 5-byte varints
		{math.MaxInt32 + 1},                  // encodable, rejected on decode
		{3, -1, 4},                           // negative mid-vector
		{-0x80},
	} {
		got, gotErr := appendCounts([]byte{0xaa}, vs)
		want, wantErr := refAppendCounts([]byte{0xaa}, vs)
		if !bytes.Equal(got, want) || errText(gotErr) != errText(wantErr) {
			t.Fatalf("appendCounts(%v) = %x, %v; reference %x, %v", vs, got, gotErr, want, wantErr)
		}
		if gotErr == nil {
			checkDecodeMatches(t, got[1:])
		}
	}

	for name, payload := range map[string][]byte{
		"empty payload":          {},
		"truncated 2-byte count": {2, 5, 0x80},
		"truncated 5-byte count": {1, 0xff, 0xff, 0xff},
		"truncated prefix":       {0x80},
		"prefix exceeds frame":   {4, 1, 2, 3},
		"huge prefix":            {0xff, 0xff, 0xff, 0xff, 0x0f, 1},
		"overlong varint":        {1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
		"count out of range":     {3, 1, 0x80, 0x80, 0x80, 0x80, 0x08, 2},
		"trailing bytes kept":    {2, 1, 0x81, 0x01, 9, 9},
	} {
		t.Run(name, func(t *testing.T) { checkDecodeMatches(t, payload) })
	}
}

// FuzzCountsCodec holds the count-vector codec to the reference on
// arbitrary payloads, and on the vector the payload's bytes spell as
// little-endian int32s.
func FuzzCountsCodec(f *testing.F) {
	f.Add([]byte{3, 1, 2, 3})
	f.Add([]byte{2, 0x80, 0x01, 0xff, 0xff, 0xff, 0xff, 0x07})
	f.Add([]byte{1, 0x80, 0x80, 0x80, 0x80, 0x08})
	f.Add([]byte{5, 1})
	f.Fuzz(func(t *testing.T, payload []byte) {
		checkDecodeMatches(t, payload)
		vs := make([]int, len(payload)/4)
		for i := range vs {
			vs[i] = int(int32(binary.LittleEndian.Uint32(payload[4*i:])))
		}
		got, gotErr := appendCounts(nil, vs)
		want, wantErr := refAppendCounts(nil, vs)
		if !bytes.Equal(got, want) || errText(gotErr) != errText(wantErr) {
			t.Fatalf("appendCounts(%v) = %x, %v; reference %x, %v", vs, got, gotErr, want, wantErr)
		}
	})
}

// BenchmarkCountsCodec encodes and decodes one 256-count batch result
// in which four counts in five take one byte and the rest two, about
// the share a query-stream run carries (78% of encoded and 80% of
// decoded counts). It reports ns per count for the round trip.
func BenchmarkCountsCodec(b *testing.B) {
	vs := make([]int, 256)
	for i := range vs {
		vs[i] = (i * 37) % 128
		if i%5 == 4 {
			vs[i] = 128 + (i*97)%897
		}
	}
	var buf []byte
	dst := make([]int, 0, len(vs))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if buf, err = appendCounts(buf[:0], vs); err != nil {
			b.Fatal(err)
		}
		d := decoder{buf: buf}
		if dst = d.counts(dst[:0]); d.err != nil {
			b.Fatal(d.err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(vs)), "ns/count")
}
