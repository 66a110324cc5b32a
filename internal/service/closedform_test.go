package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"privcount/internal/core"
	"privcount/internal/rng"
)

// forgedGM returns gm:n=8:a=0.5's genuine artifact and a forgery of it:
// the same artifact with two cells of column 0 swapped. The forged
// matrix is still column-stochastic, so only a comparison against GM's
// constructor can tell it apart.
func forgedGM(t *testing.T) (spec Spec, genuine, forged []byte) {
	t.Helper()
	spec = Spec{Kind: KindGeometric, N: 8, Alpha: 0.5}.Canonical()
	a, _ := buildArtifact(t, spec)
	genuine = a.Encode()
	k := spec.N + 1
	a.Probs[0*k+0], a.Probs[1*k+0] = a.Probs[1*k+0], a.Probs[0*k+0]
	return spec, genuine, a.Encode()
}

// TestClosedFormImportRefusesForgery: a closed-form artifact installs
// only if its matrix is the constructor's. The forgery is refused on
// import and on store load; the genuine artifact imports.
func TestClosedFormImportRefusesForgery(t *testing.T) {
	spec, genuine, forged := forgedGM(t)
	if _, err := DecodeArtifact(forged); err != nil {
		t.Fatalf("forgery does not even decode: %v", err)
	}

	t.Run("import", func(t *testing.T) {
		svc := New(Config{Seed: 1})
		defer svc.Close()
		if _, err := svc.ImportArtifact(spec, forged); !errors.Is(err, ErrArtifactInvalid) {
			t.Fatalf("forged import: err = %v, want ErrArtifactInvalid", err)
		}
		if _, err := svc.Peek(spec); !errors.Is(err, ErrNotAdmitted) {
			t.Fatalf("Peek after refused import: err = %v, want ErrNotAdmitted", err)
		}
		if _, err := svc.ImportArtifact(spec, genuine); err != nil {
			t.Fatalf("genuine import: %v", err)
		}
		got, err := svc.ExportArtifact(spec)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, genuine) {
			t.Fatal("re-export of the genuine import differs from its bytes")
		}
	})

	t.Run("store load", func(t *testing.T) {
		st := NewMemStore()
		if err := st.Put(spec.ID(), forged); err != nil {
			t.Fatal(err)
		}
		svc := New(Config{Seed: 1, Store: st})
		defer svc.Close()
		if _, err := svc.Get(spec); err != nil {
			t.Fatal(err)
		}
		if got := svc.Stats(); got.Builds != 1 || got.StoreQuarantines != 1 || got.StoreHits != 0 {
			t.Errorf("stats = %+v; want 1 build, 1 quarantine, 0 store hits", got)
		}
		got, err := svc.ExportArtifact(spec)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, genuine) {
			t.Fatal("served mechanism after a refused store load is not GM's")
		}
	})
}

// closedFormPins holds, per closed-form spec, the sha256 of its export
// and of a fixed sequence of seeded draws, as produced when every entry
// still held its matrix and one alias table per column. Dropping the
// matrix and sharing UM's table must change neither.
var closedFormPins = []struct {
	id, export, draws string
}{
	{"gm:n=16:a=0.9", "b3b5af3cb1bacb40b2de0067855de404f025f3fb63d671454b11af595c04524c", "a803d08dd167a211dab3cd4dc76ef863d30e85500b25514a32590c2c7e4c8081"},
	{"em:n=16:a=0.8", "bdb8f459db85cab3359701b31c5bd55374ad9bac53534934ea733aa1c8ff98f4", "ee480165ac2970fb0a8490412861a44f13d9bb48fb0afca0624f91b18c82fe04"},
	{"um:n=16", "c414786eb63979f2d99e057aa5532d7e77f22ba1c7b2bf6006e90070e51280d3", "748b7a51bea9d0f65e52db494d27dbc93113901b9743b00d71506e19bde0a79a"},
	{"gm:n=256:a=0.9", "93a7def208ab7d06e050d7f9d606c2c3c8579cf7eeb7034c21d82b6877efd178", "459e5d9f739aa6d7c7588b7a9a38b44b93c89cb846ad832efbb98af4c114429e"},
	{"em:n=256:a=0.8", "98f06e38884bed55c5757a0da9fdf65fd7ceb61a24637ed80849928aa79fd4d6", "a1e216f75b2cb130635c0e90d72ac4fc8057af148598abd472a08e633e49592b"},
	{"um:n=256", "3e9d4b04f735185b8a29f7cda9f2ab0ef00921fcea6ddbe1717d59857f1336be", "027cd393c2805f5b754363d0c0da3e861f917246ca243a9d7a5bbd9ac78161fe"},
	{"gm:n=1024:a=0.9", "7672ca13116f03024337140a3c331d1967de76eafc7cd54e78372d81887b5017", "e734f18cb9f768b4433584a4f1681b92679dcfdce78e70f8fc668a8ed1934082"},
	{"em:n=1024:a=0.8", "cc655adbb6a45763e5ac0fedc0aff1f0024bfbfd76d0561c14002b85dd101cc6", "0f481b3eb874d3c2c8a904b55049b125f9eabe87ed58de138a8e60c9cbbaa682"},
	{"um:n=1024", "e63268e812f1091a64473e32c2bb69ca30d82f8546cf3d8c0c4ba51dd3931e54", "92de50fdfafbdf4aca16cf92cb79514d23244251afb77df0b714e8ca94921869"},
	{"choose:n=192:a=0.3:RH", "b68c73b3a9de431d972f794427eb25bf9446e03af0a4ec7416ee0f09def8a6e0", "de51f0cbd81d439c5b23179505a76e48324a2062051c0d1540fa3cb4d17980ab"},
}

// drawsHash hashes a fixed sequence of seeded draws through every
// sampler draw method.
func drawsHash(s *core.Sampler, n int) string {
	r := rng.New(5)
	js := make([]int, 2000)
	for i := range js {
		js[i] = i % (n + 1)
	}
	out := s.SampleMany(r, js, nil)
	out = s.SampleBatch(r, n/2, 500, out)
	for i := 0; i < 100; i++ {
		out = append(out, s.Sample(r, i%(n+1)))
	}
	h := sha256.New()
	fmt.Fprint(h, out)
	return hex.EncodeToString(h.Sum(nil))
}

// TestClosedFormExportsUnchanged: closed-form entries, which keep no
// matrix, export the pinned bytes and draw the pinned outputs, whether
// built fresh or loaded from the store after a restart, and their
// ETag is the hash of those bytes.
func TestClosedFormExportsUnchanged(t *testing.T) {
	st := NewMemStore()
	check := func(svc *Service, gen string) {
		t.Helper()
		for _, pin := range closedFormPins {
			spec, err := ParseSpec(pin.id)
			if err != nil {
				t.Fatal(err)
			}
			if raceEnabled && spec.N > 256 {
				continue // the O(n³) debias of a fresh build is slow under the race detector
			}
			if !closedForm(spec) {
				t.Fatalf("%s: not a closed form", pin.id)
			}
			e, err := svc.Get(spec)
			if err != nil {
				t.Fatal(err)
			}
			if e.current().matrix != nil {
				t.Errorf("%s %s: entry holds its matrix", gen, pin.id)
			}
			data, etag, err := svc.ExportArtifactTagged(spec, nil)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(data)
			if got := hex.EncodeToString(sum[:]); got != pin.export {
				t.Errorf("%s %s: export sha256 %s, want %s", gen, pin.id, got, pin.export)
			}
			if etag != `"`+pin.export+`"` {
				t.Errorf("%s %s: ETag %s, want the export's hash", gen, pin.id, etag)
			}
			if got := drawsHash(e.Sampler(), spec.N); got != pin.draws {
				t.Errorf("%s %s: seeded draws hash %s, want %s", gen, pin.id, got, pin.draws)
			}
		}
	}
	fresh := New(Config{Seed: 1, Store: st})
	check(fresh, "fresh")
	fresh.Close() // drains the write-behind persists

	restarted := New(Config{Seed: 2, Store: st})
	defer restarted.Close()
	check(restarted, "restarted")
	if got := restarted.Stats(); got.Builds != 0 {
		t.Errorf("restart ran %d builds, want every entry loaded from the store", got.Builds)
	}
}

// TestExportETagComputedOnce: once an entry's ETag is known, a
// conditional export that matches it encodes nothing, and an import
// that replaces the entry's tables gets its own ETag.
func TestExportETagComputedOnce(t *testing.T) {
	spec := Spec{Kind: KindGeometric, N: 256, Alpha: 0.9}.Canonical()
	svc := New(Config{Seed: 1})
	defer svc.Close()
	if _, err := svc.Get(spec); err != nil {
		t.Fatal(err)
	}
	data, err := svc.ExportArtifact(spec)
	if err != nil {
		t.Fatal(err)
	}
	etag, err := svc.ExportETag(spec)
	if err != nil || etag != ArtifactETag(data) {
		t.Fatalf("ExportETag = %q, %v; want %q", etag, err, ArtifactETag(data))
	}

	match := func(tag string) bool { return tag == etag }
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 10; i++ {
		got, tag, err := svc.ExportArtifactTagged(spec, match)
		if err != nil || got != nil || tag != etag {
			t.Fatalf("matching conditional export = %d bytes, %q, %v; want none, %q", len(got), tag, err, etag)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / 10; per > uint64(len(data))/64 {
		t.Errorf("a matching conditional export allocates %d bytes; the artifact is %d", per, len(data))
	}

	// Replace the ready entry by an import whose bytes differ (a
	// different rule string over GM's own matrix).
	a, err := DecodeArtifact(data)
	if err != nil {
		t.Fatal(err)
	}
	a.Rule = "imported GM"
	imported := a.Encode()
	if _, err := svc.ImportArtifact(spec, imported); err != nil {
		t.Fatal(err)
	}
	if got, err := svc.ExportETag(spec); err != nil || got != ArtifactETag(imported) {
		t.Fatalf("ETag after the import = %q, %v; want %q", got, err, ArtifactETag(imported))
	}
	if got, err := svc.ExportArtifact(spec); err != nil || !bytes.Equal(got, imported) {
		t.Fatalf("export after the import differs from the imported bytes (err %v)", err)
	}
}

// TestExportETagConcurrent: exports racing imports that replace the
// entry's tables always pair bytes with their own ETag, and the ETag of
// a table set is computed once however many callers ask at once.
func TestExportETagConcurrent(t *testing.T) {
	spec := Spec{Kind: KindGeometric, N: 32, Alpha: 0.9}.Canonical()
	svc := New(Config{Seed: 1})
	defer svc.Close()
	if _, err := svc.Get(spec); err != nil {
		t.Fatal(err)
	}
	data, err := svc.ExportArtifact(spec)
	if err != nil {
		t.Fatal(err)
	}
	a, err := DecodeArtifact(data)
	if err != nil {
		t.Fatal(err)
	}
	a.Rule = "imported GM"
	variants := [][]byte{data, a.Encode()}

	done := make(chan struct{})
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		go func() {
			for {
				select {
				case <-done:
					errs <- nil
					return
				default:
				}
				got, etag, err := svc.ExportArtifactTagged(spec, nil)
				if err == nil && ArtifactETag(got) != etag {
					err = fmt.Errorf("export of %d bytes carries ETag %s, not its own", len(got), etag)
				}
				if err == nil {
					_, err = svc.ExportETag(spec)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	for i := 0; i < 50; i++ {
		if _, err := svc.ImportArtifact(spec, variants[i%2]); err != nil {
			t.Error(err)
			break
		}
	}
	close(done)
	for g := 0; g < 4; g++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}
