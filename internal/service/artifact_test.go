package service

import (
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"

	"privcount/internal/core"
	"privcount/internal/rng"
)

// artifactSpecs are the codec's test scenarios: every kind, including
// one (UM) whose debias estimator fails, so the DebiasErr leg of the
// format is exercised.
var artifactSpecs = []Spec{
	{Kind: KindGeometric, N: 8, Alpha: 0.5},
	{Kind: KindExplicitFair, N: 12, Alpha: 0.8},
	{Kind: KindUniform, N: 6},
	{Kind: KindChoose, N: 8, Alpha: 0.7, Props: core.Fairness},
	{Kind: KindLP, N: 6, Alpha: 0.8, Props: core.WeakHonesty | core.Symmetry},
}

// buildArtifact solves spec in-process and snapshots it as an artifact.
func buildArtifact(t *testing.T, spec Spec) (*Artifact, buildResult) {
	t.Helper()
	spec = spec.Canonical()
	res := buildMechanism(context.Background(), spec)
	if res.err != nil {
		t.Fatalf("buildMechanism(%s): %v", spec, res.err)
	}
	return newArtifact(spec, res.tables, res.mech), res
}

func TestArtifactRoundTrip(t *testing.T) {
	for _, spec := range artifactSpecs {
		a, res := buildArtifact(t, spec)
		data := a.Encode()
		got, err := DecodeArtifact(data)
		if err != nil {
			t.Fatalf("%s: DecodeArtifact: %v", spec, err)
		}
		if !reflect.DeepEqual(got, a) {
			t.Fatalf("%s: decoded artifact differs:\n got %+v\nwant %+v", spec, got, a)
		}
		// Deterministic encoding: re-encode is byte-identical.
		if again := got.Encode(); !reflect.DeepEqual(again, data) {
			t.Fatalf("%s: re-encode is not byte-identical (%d vs %d bytes)", spec, len(again), len(data))
		}
		// The instantiated mechanism serves identically to the original:
		// same matrix, same seeded draws, same estimation tables.
		res2, err := got.result()
		if err != nil {
			t.Fatalf("%s: result: %v", spec, err)
		}
		if !res2.mech.Matrix().EqualWithin(res.mech.Matrix(), 0) {
			t.Fatalf("%s: instantiated matrix differs", spec)
		}
		r1, r2 := rng.New(7), rng.New(7)
		for j := 0; j <= spec.N; j++ {
			if o1, o2 := res.sampler.Sample(r1, j), res2.sampler.Sample(r2, j); o1 != o2 {
				t.Fatalf("%s: seeded draw differs at j=%d: %d vs %d", spec, j, o1, o2)
			}
		}
		if !reflect.DeepEqual(res2.mle, res.mle) {
			t.Fatalf("%s: MLE table differs", spec)
		}
		if (res2.debiasErr == nil) != (res.debiasErr == nil) {
			t.Fatalf("%s: debiasability differs: %v vs %v", spec, res2.debiasErr, res.debiasErr)
		}
		if res.debiasErr == nil && !reflect.DeepEqual(res2.debias, res.debias) {
			t.Fatalf("%s: debias table differs", spec)
		}
	}
}

// TestArtifactTruncation pins the codec's truncation contract: every
// strict prefix of a valid artifact fails decoding with an error
// matching BOTH ErrArtifactInvalid and io.ErrUnexpectedEOF — the parse
// is deterministic and length-prefixed, so a prefix can never be
// mistaken for a complete artifact.
func TestArtifactTruncation(t *testing.T) {
	a, _ := buildArtifact(t, Spec{Kind: KindGeometric, N: 4, Alpha: 0.5})
	data := a.Encode()
	for n := 0; n < len(data); n++ {
		_, err := DecodeArtifact(data[:n])
		if err == nil {
			t.Fatalf("DecodeArtifact accepted a %d/%d-byte prefix", n, len(data))
		}
		if !errors.Is(err, ErrArtifactInvalid) {
			t.Fatalf("prefix %d: error does not match ErrArtifactInvalid: %v", n, err)
		}
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("prefix %d: error does not match io.ErrUnexpectedEOF: %v", n, err)
		}
	}
}

// corruptAt returns data with one byte at i flipped and no CRC fix-up.
func corruptAt(data []byte, i int) []byte {
	out := append([]byte(nil), data...)
	out[i] ^= 0x5a
	return out
}

// withFixedCRC recomputes the trailing CRC over everything before it,
// so structural mutations can be tested past the checksum gate.
func withFixedCRC(data []byte) []byte {
	out := append([]byte(nil), data[:len(data)-4]...)
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(out))
}

func TestArtifactDecodeNegatives(t *testing.T) {
	a, _ := buildArtifact(t, Spec{Kind: KindGeometric, N: 4, Alpha: 0.5})
	valid := a.Encode()

	t.Run("bit rot fails the checksum", func(t *testing.T) {
		// Flip a matrix byte mid-artifact: framing survives, CRC does not.
		if _, err := DecodeArtifact(corruptAt(valid, len(valid)/2)); !errors.Is(err, ErrArtifactInvalid) {
			t.Fatalf("got %v, want ErrArtifactInvalid", err)
		}
	})
	t.Run("bad magic", func(t *testing.T) {
		if _, err := DecodeArtifact(corruptAt(valid, 0)); !errors.Is(err, ErrArtifactInvalid) {
			t.Fatalf("got %v, want ErrArtifactInvalid", err)
		}
	})
	t.Run("unsupported version", func(t *testing.T) {
		bad := append([]byte(nil), valid...)
		bad[4] = 0x7f
		if _, err := DecodeArtifact(withFixedCRC(bad)); !errors.Is(err, ErrArtifactInvalid) {
			t.Fatalf("got %v, want ErrArtifactInvalid", err)
		}
	})
	t.Run("trailing garbage", func(t *testing.T) {
		_, err := DecodeArtifact(append(append([]byte(nil), valid...), 0xde, 0xad, 0xbe, 0xef, 0x01))
		if !errors.Is(err, ErrArtifactInvalid) {
			t.Fatalf("got %v, want ErrArtifactInvalid", err)
		}
		if errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("trailing garbage misclassified as truncation: %v", err)
		}
	})
	t.Run("oversized input refused before parsing", func(t *testing.T) {
		huge := make([]byte, MaxArtifactBytes+1)
		if _, err := DecodeArtifact(huge); !errors.Is(err, ErrArtifactInvalid) {
			t.Fatalf("got %v, want ErrArtifactInvalid", err)
		}
	})

	// Field-level mutations, applied to the Artifact then re-encoded
	// (with a valid CRC), so only the structural validation can reject.
	mutations := []struct {
		name string
		mut  func(*Artifact)
	}{
		{"matrix n disagrees with spec", func(a *Artifact) { a.Spec.N = 5 }},
		{"mle table too short", func(a *Artifact) { a.MLE = a.MLE[:len(a.MLE)-1] }},
		{"mle entry out of range", func(a *Artifact) { a.MLE[0] = a.Spec.N + 1 }},
		{"debias table too short", func(a *Artifact) { a.Debias = a.Debias[:2] }},
		{"debias table alongside debias error", func(a *Artifact) { a.DebiasErr = "boom" }},
		{"alpha NaN", func(a *Artifact) { a.Alpha = math.NaN() }},
		{"alpha out of range", func(a *Artifact) { a.Alpha = 1.5 }},
		{"unknown property bits", func(a *Artifact) { a.Props = core.PropertySet(1 << 14) }},
	}
	for _, m := range mutations {
		t.Run(m.name, func(t *testing.T) {
			mutated, _ := buildArtifact(t, Spec{Kind: KindGeometric, N: 4, Alpha: 0.5})
			m.mut(mutated)
			if _, err := DecodeArtifact(mutated.Encode()); !errors.Is(err, ErrArtifactInvalid) {
				t.Fatalf("got %v, want ErrArtifactInvalid", err)
			}
		})
	}

	t.Run("non-stochastic matrix fails instantiation, not decode", func(t *testing.T) {
		forged, _ := buildArtifact(t, Spec{Kind: KindGeometric, N: 4, Alpha: 0.5})
		forged.Probs[0] += 0.5 // column 0 now sums to 1.5
		decoded, err := DecodeArtifact(forged.Encode())
		if err != nil {
			t.Fatalf("structural decode should pass: %v", err)
		}
		if _, _, err := decoded.Instantiate(); !errors.Is(err, ErrArtifactInvalid) {
			t.Fatalf("Instantiate: got %v, want ErrArtifactInvalid", err)
		}
	})
}

// TestArtifactUnknownSectionSkipped pins forward compatibility: a
// section tag this decoder does not know is skipped, and the rest of
// the artifact decodes normally.
func TestArtifactUnknownSectionSkipped(t *testing.T) {
	a, _ := buildArtifact(t, Spec{Kind: KindUniform, N: 4})
	valid := a.Encode()
	// Rebuild the byte stream with an extra tag-99 section spliced in
	// before the end marker (the last varint before the CRC).
	body := valid[:len(valid)-5] // strip end marker (0x00) + CRC
	extra := binary.AppendUvarint(body, 99)
	extra = binary.AppendUvarint(extra, 3)
	extra = append(extra, 'x', 'y', 'z')
	extra = binary.AppendUvarint(extra, 0)
	extra = binary.LittleEndian.AppendUint32(extra, crc32.ChecksumIEEE(extra))

	got, err := DecodeArtifact(extra)
	if err != nil {
		t.Fatalf("DecodeArtifact with unknown section: %v", err)
	}
	if !reflect.DeepEqual(got, a) {
		t.Fatalf("unknown section changed the decode:\n got %+v\nwant %+v", got, a)
	}
}

// TestArtifactDuplicateSectionRejected: one section per tag; a repeat
// is structural corruption, not an update.
func TestArtifactDuplicateSectionRejected(t *testing.T) {
	a, _ := buildArtifact(t, Spec{Kind: KindUniform, N: 4})
	valid := a.Encode()
	body := valid[:len(valid)-5]
	dup := appendArtifactSection(body, artifactSecSpec, []byte(a.Spec.ID()))
	dup = binary.AppendUvarint(dup, 0)
	dup = binary.LittleEndian.AppendUint32(dup, crc32.ChecksumIEEE(dup))
	if _, err := DecodeArtifact(dup); !errors.Is(err, ErrArtifactInvalid) {
		t.Fatalf("got %v, want ErrArtifactInvalid", err)
	}
}

// TestArtifactHostileLengths pins the allocation bound: declared counts
// are checked against the bytes actually present before any table is
// allocated, so a tiny input claiming a huge matrix cannot balloon
// memory.
func TestArtifactHostileLengths(t *testing.T) {
	var b []byte
	b = append(b, artifactMagic[:]...)
	b = binary.AppendUvarint(b, artifactVersion)
	// A matrix section whose n claims ~2^30 entries in a 16-byte payload.
	var matrix []byte
	matrix = binary.AppendUvarint(matrix, 1<<30)
	matrix = append(matrix, make([]byte, 16)...)
	b = appendArtifactSection(b, artifactSecMatrix, matrix)
	// An MLE section declaring 2^40 entries with none present.
	var mle []byte
	mle = binary.AppendUvarint(mle, 1<<40)
	b = appendArtifactSection(b, artifactSecMLE, mle)
	b = binary.AppendUvarint(b, 0)
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))

	if _, err := DecodeArtifact(b); !errors.Is(err, ErrArtifactInvalid) {
		t.Fatalf("got %v, want ErrArtifactInvalid", err)
	}
}

// TestTruncatedArtifactErrorText pins the human-readable rendering of
// the truncation classification (the typed matching is tested above).
func TestTruncatedArtifactErrorText(t *testing.T) {
	a, _ := buildArtifact(t, Spec{Kind: KindUniform, N: 4})
	_, err := DecodeArtifact(a.Encode()[:7])
	if err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("truncation error %q does not say so", err)
	}
}
