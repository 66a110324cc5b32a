package service

import (
	"context"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"
)

// FuzzParseSpec fuzzes the wire-token codec for its central invariant:
// any token ParseSpec accepts lands on a canonical fixed point. The
// accepted spec's ID must reparse to the same spec (ID is a bijection on
// canonical specs), MarshalText must agree with ID byte for byte, and
// UnmarshalText must agree with ParseSpec on both acceptance and result.
// Rejections must be typed (ErrSpecInvalid or ErrOverLimit), never a
// panic or an untyped error.
//
// Seed corpus: f.Add cases below plus testdata/fuzz/FuzzParseSpec/.
// Run the fuzzer with: go test ./internal/service -fuzz FuzzParseSpec
func FuzzParseSpec(f *testing.F) {
	seeds := []string{
		"um:n=64",
		"gm:n=64:a=0.5",
		"em:n=8:a=0.99",
		"choose:n=64:a=0.5:CH+CM+WH",
		"choose:n=32:a=0.5:none",
		"lp:n=64:a=0.5:RH+RM+CH+CM+WH:p=0",
		"lp-minimax:n=16:a=0.5:WH+CM:p=0",
		// Non-canonical but well-formed: extra float precision, unclosed
		// property sets, reordered segments.
		"gm:n=64:a=0.5000",
		"choose:n=64:a=0.5:WH",
		"lp:n=24:p=2:a=0.5:WH+CM",
		// Near-miss rejections.
		"gm:n=64",
		"zz:n=64",
		"gm:a=0.5",
		"gm:n=64:a=0.5:a=0.5",
		"um:n=-3",
		"um:n=999999999",
		"lp:n=64:a=nan:WH:p=0",
		"",
		":",
		"um:n=64:",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, token string) {
		spec, err := ParseSpec(token)
		var viaText Spec
		textErr := viaText.UnmarshalText([]byte(token))
		if (err == nil) != (textErr == nil) {
			t.Fatalf("ParseSpec err=%v but UnmarshalText err=%v for %q", err, textErr, token)
		}
		if err != nil {
			if !errors.Is(err, ErrSpecInvalid) && !errors.Is(err, ErrOverLimit) {
				t.Fatalf("rejection of %q is untyped: %v", token, err)
			}
			return
		}
		if viaText != spec {
			t.Fatalf("UnmarshalText %+v != ParseSpec %+v for %q", viaText, spec, token)
		}
		if spec != spec.Canonical() {
			t.Fatalf("ParseSpec(%q) returned non-canonical %+v", token, spec)
		}

		id := spec.ID()
		wire, err := spec.MarshalText()
		if err != nil {
			t.Fatalf("accepted spec %+v does not marshal: %v", spec, err)
		}
		if string(wire) != id {
			t.Fatalf("MarshalText %q disagrees with ID %q", wire, id)
		}
		if strings.ContainsAny(id, "/ %?#") {
			t.Fatalf("ID %q is not URL-path-safe", id)
		}

		again, err := ParseSpec(id)
		if err != nil {
			t.Fatalf("canonical ID %q (from %q) does not reparse: %v", id, token, err)
		}
		if again != spec {
			t.Fatalf("round trip moved: %q -> %+v -> %q -> %+v", token, spec, id, again)
		}
		if again.ID() != id {
			t.Fatalf("ID not a fixed point: %q reparses to ID %q", id, again.ID())
		}
	})
}

// FuzzArtifactDecode fuzzes the binary artifact codec. Invariants, on
// arbitrary bytes: DecodeArtifact never panics and never allocates
// beyond the input's own size (hostile length prefixes are bounded by
// remaining payload); every rejection wraps ErrArtifactInvalid; every
// strict truncation of a valid artifact additionally matches
// io.ErrUnexpectedEOF; and anything accepted is a canonical fixed
// point — re-encoding yields bytes that decode to a deeply equal
// artifact.
//
// Seed corpus: encoded artifacts of the closed-form kinds plus framing
// mutations, and testdata/fuzz/FuzzArtifactDecode/.
// Run the fuzzer with: go test ./internal/service -fuzz FuzzArtifactDecode
func FuzzArtifactDecode(f *testing.F) {
	for _, spec := range []Spec{
		{Kind: KindGeometric, N: 4, Alpha: 0.5},
		{Kind: KindUniform, N: 3},
		{Kind: KindExplicitFair, N: 5, Alpha: 0.8},
	} {
		spec = spec.Canonical()
		res := buildMechanism(context.Background(), spec)
		if res.err != nil {
			f.Fatalf("buildMechanism(%s): %v", spec, res.err)
		}
		valid := newArtifact(spec, res.tables, res.mech).Encode()
		f.Add(valid)
		f.Add(valid[:len(valid)/2])           // truncation
		f.Add(corruptAt(valid, len(valid)/3)) // bit rot
	}
	f.Add([]byte("PCA1"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := DecodeArtifact(data)
		if err != nil {
			if !errors.Is(err, ErrArtifactInvalid) {
				t.Fatalf("rejection is untyped: %v", err)
			}
			return
		}
		// Accepted: canonical re-encode must decode to the same artifact.
		again, err := DecodeArtifact(a.Encode())
		if err != nil {
			t.Fatalf("re-encode of accepted artifact rejected: %v", err)
		}
		if !reflect.DeepEqual(again, a) {
			t.Fatalf("re-encode round trip moved:\n got %+v\nwant %+v", again, a)
		}
		// Every strict prefix of an accepted artifact is truncation.
		half := a.Encode()[:len(data)/2]
		if _, err := DecodeArtifact(half); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("prefix of accepted artifact not classified as truncation: %v", err)
		}
	})
}
