package service

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"privcount/internal/core"
)

func TestFSStoreBasics(t *testing.T) {
	st, err := NewFSStore(filepath.Join(t.TempDir(), "store"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Get("gm:n=4:a=0.5"); !errors.Is(err, ErrArtifactNotFound) {
		t.Fatalf("Get on empty store: got %v, want ErrArtifactNotFound", err)
	}
	if err := st.Put("gm:n=4:a=0.5", []byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := st.Put("um:n=8", []byte("two")); err != nil {
		t.Fatal(err)
	}
	// Put replaces atomically.
	if err := st.Put("gm:n=4:a=0.5", []byte("one-v2")); err != nil {
		t.Fatal(err)
	}
	got, err := st.Get("gm:n=4:a=0.5")
	if err != nil || !bytes.Equal(got, []byte("one-v2")) {
		t.Fatalf("Get = %q, %v; want one-v2", got, err)
	}
	ids, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"gm:n=4:a=0.5", "um:n=8"}; !reflect.DeepEqual(ids, want) {
		t.Fatalf("List = %v, want %v", ids, want)
	}
	// Quarantine moves the entry aside: Get misses, List omits it, and
	// the bytes survive under the .corrupt name.
	if err := st.Quarantine("um:n=8"); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Get("um:n=8"); !errors.Is(err, ErrArtifactNotFound) {
		t.Fatalf("Get after quarantine: got %v, want ErrArtifactNotFound", err)
	}
	if ids, _ := st.List(); !reflect.DeepEqual(ids, []string{"gm:n=4:a=0.5"}) {
		t.Fatalf("List after quarantine = %v", ids)
	}
	if kept, err := os.ReadFile(filepath.Join(st.Dir(), "um:n=8.pca.corrupt")); err != nil || !bytes.Equal(kept, []byte("two")) {
		t.Fatalf("quarantined bytes = %q, %v", kept, err)
	}
	// Delete is idempotent.
	if err := st.Delete("gm:n=4:a=0.5"); err != nil {
		t.Fatal(err)
	}
	if err := st.Delete("gm:n=4:a=0.5"); err != nil {
		t.Fatal(err)
	}
	// IDs that could escape the directory are refused outright.
	for _, bad := range []string{"", "../evil", "a/b", `a\b`, ".hidden"} {
		if err := st.Put(bad, []byte("x")); err == nil {
			t.Errorf("Put(%q) accepted a hostile ID", bad)
		}
		if _, err := st.Get(bad); err == nil || errors.Is(err, ErrArtifactNotFound) {
			t.Errorf("Get(%q): got %v, want a validation error", bad, err)
		}
	}
}

// storeSpecs is a small mixed serving set for persistence tests.
var storeSpecs = []Spec{
	{Kind: KindGeometric, N: 8, Alpha: 0.5},
	{Kind: KindUniform, N: 6},
	{Kind: KindLP, N: 6, Alpha: 0.8, Props: core.WeakHonesty | core.Symmetry},
}

// TestStoreWriteBehindAndReadThrough is the core tier contract on a
// small serving set: a first service populates the store as a side
// effect of building, and a second service over the same directory
// serves every spec in O(read) — Stats.Builds stays zero while store
// hits cover the set.
func TestStoreWriteBehindAndReadThrough(t *testing.T) {
	dir := t.TempDir()
	st, err := NewFSStore(dir)
	if err != nil {
		t.Fatal(err)
	}

	svc1 := New(Config{Seed: 1, Store: st})
	for _, spec := range storeSpecs {
		if _, err := svc1.Get(spec); err != nil {
			t.Fatalf("Get(%s): %v", spec, err)
		}
	}
	if got := svc1.Stats(); got.Builds != int64(len(storeSpecs)) || got.StoreHits != 0 || got.StoreMisses != int64(len(storeSpecs)) {
		t.Fatalf("cold service stats = %+v; want %d builds, 0 store hits, %d misses",
			got, len(storeSpecs), len(storeSpecs))
	}
	svc1.Close() // drains the write-behind goroutines

	ids, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != len(storeSpecs) {
		t.Fatalf("store holds %d artifacts (%v), want %d", len(ids), ids, len(storeSpecs))
	}

	// "Restart": a fresh service over the populated directory.
	svc2 := New(Config{Seed: 2, Store: st})
	defer svc2.Close()
	for _, spec := range storeSpecs {
		e, err := svc2.Get(spec)
		if err != nil {
			t.Fatalf("warm Get(%s): %v", spec, err)
		}
		if e.State() != BuildReady {
			t.Fatalf("warm Get(%s): state %s", spec, e.State())
		}
		if _, err := svc2.Sample(spec, 0); err != nil {
			t.Fatalf("warm Sample(%s): %v", spec, err)
		}
	}
	got := svc2.Stats()
	if got.Builds != 0 {
		t.Errorf("warm service ran %d builds, want 0 (the store should satisfy every build)", got.Builds)
	}
	if got.StoreHits != int64(len(storeSpecs)) {
		t.Errorf("warm service store hits = %d, want %d", got.StoreHits, len(storeSpecs))
	}
	if got.StoreBytesRead == 0 {
		t.Error("warm service read 0 store bytes")
	}
}

// TestStoreRestartServesLPWithoutSolver is the ISSUE's acceptance
// scenario at full size: an LP-backed mechanism at n=256 built once,
// then served by a restarted service without invoking the LP solver —
// pinned by Stats.Builds staying zero while store hits increment.
func TestStoreRestartServesLPWithoutSolver(t *testing.T) {
	if testing.Short() {
		t.Skip("n=256 LP solve: skipped in -short")
	}
	if raceEnabled {
		t.Skip("n=256 LP solve: skipped under the race detector")
	}
	spec := Spec{Kind: KindLP, N: 256, Alpha: 0.5, Props: core.WeakHonesty | core.ColumnMonotone}
	st, err := NewFSStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}

	svc1 := New(Config{Seed: 1, Store: st})
	if _, err := svc1.Get(spec); err != nil {
		t.Fatalf("cold Get: %v", err)
	}
	if got := svc1.Stats().Builds; got != 1 {
		t.Fatalf("cold service builds = %d, want 1", got)
	}
	svc1.Close()

	svc2 := New(Config{Seed: 2, Store: st})
	defer svc2.Close()
	if _, err := svc2.Get(spec); err != nil {
		t.Fatalf("warm Get: %v", err)
	}
	got := svc2.Stats()
	if got.Builds != 0 {
		t.Errorf("restarted service invoked the solver: Builds = %d, want 0", got.Builds)
	}
	if got.StoreHits != 1 {
		t.Errorf("restarted service store hits = %d, want 1", got.StoreHits)
	}
	if _, err := svc2.Sample(spec, 17); err != nil {
		t.Errorf("warm Sample: %v", err)
	}
}

// TestStoreCorruptArtifactQuarantinedAndRebuilt: a corrupt artifact on
// disk must never crash or wedge the build — it is renamed aside
// (forensics keep the bytes) and the spec is solved as if the store had
// missed.
func TestStoreCorruptArtifactQuarantinedAndRebuilt(t *testing.T) {
	spec := Spec{Kind: KindGeometric, N: 8, Alpha: 0.5}
	id := spec.Canonical().ID()
	st, err := NewFSStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}

	svc1 := New(Config{Seed: 1, Store: st})
	if _, err := svc1.Get(spec); err != nil {
		t.Fatal(err)
	}
	svc1.Close()

	// Flip a byte mid-artifact on disk.
	path := filepath.Join(st.Dir(), id+".pca")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	svc2 := New(Config{Seed: 2, Store: st})
	if _, err := svc2.Get(spec); err != nil {
		t.Fatalf("Get over corrupt artifact: %v (want rebuild, not failure)", err)
	}
	got := svc2.Stats()
	if got.Builds != 1 {
		t.Errorf("Builds = %d, want 1 (corruption must fall back to a solve)", got.Builds)
	}
	if got.StoreQuarantines != 1 {
		t.Errorf("StoreQuarantines = %d, want 1", got.StoreQuarantines)
	}
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Errorf("quarantined file missing: %v", err)
	}
	svc2.Close() // write-behind re-persists the rebuilt artifact

	// Third generation: the rebuilt artifact serves again.
	svc3 := New(Config{Seed: 3, Store: st})
	defer svc3.Close()
	if _, err := svc3.Get(spec); err != nil {
		t.Fatal(err)
	}
	if got := svc3.Stats(); got.Builds != 0 || got.StoreHits != 1 {
		t.Errorf("third generation stats = %+v; want 0 builds, 1 store hit", got)
	}
}

// TestStoreMismatchedArtifactQuarantined: an artifact stored under the
// wrong ID (encodes a different spec) is detected by the spec
// cross-check, quarantined, and the right mechanism is built.
func TestStoreMismatchedArtifactQuarantined(t *testing.T) {
	specA := Spec{Kind: KindGeometric, N: 8, Alpha: 0.5}.Canonical()
	specB := Spec{Kind: KindUniform, N: 8}.Canonical()
	st, err := NewFSStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	svc1 := New(Config{Seed: 1, Store: st})
	if _, err := svc1.Get(specA); err != nil {
		t.Fatal(err)
	}
	svc1.Close()

	// File A's bytes under B's ID.
	data, err := st.Get(specA.ID())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(specB.ID(), data); err != nil {
		t.Fatal(err)
	}

	svc2 := New(Config{Seed: 2, Store: st})
	defer svc2.Close()
	e, err := svc2.Get(specB)
	if err != nil {
		t.Fatalf("Get(%s): %v", specB, err)
	}
	if name := e.Mechanism().Name(); name != "UM" {
		t.Errorf("served mechanism %q, want the freshly built UM", name)
	}
	if got := svc2.Stats(); got.Builds != 1 || got.StoreQuarantines != 1 {
		t.Errorf("stats = %+v; want 1 build, 1 quarantine", got)
	}
}

// TestExportImportRoundTrip: in-process warm sync. Export from a warm
// service, import into a cold one: the cold service serves with zero
// builds and re-exports byte-identical bytes (deterministic encoding).
func TestExportImportRoundTrip(t *testing.T) {
	spec := Spec{Kind: KindLP, N: 6, Alpha: 0.8, Props: core.WeakHonesty | core.Symmetry}

	warm := New(Config{Seed: 1})
	defer warm.Close()
	if _, err := warm.Get(spec); err != nil {
		t.Fatal(err)
	}
	art, err := warm.ExportArtifact(spec)
	if err != nil {
		t.Fatal(err)
	}

	cold := New(Config{Seed: 2})
	defer cold.Close()
	info, err := cold.ImportArtifact(spec, art)
	if err != nil {
		t.Fatal(err)
	}
	if info.State != BuildReady {
		t.Fatalf("imported state = %s, want ready", info.State)
	}
	if got := cold.Stats().Builds; got != 0 {
		t.Errorf("import ran %d builds, want 0", got)
	}
	if _, err := cold.Sample(spec, 3); err != nil {
		t.Fatalf("Sample after import: %v", err)
	}
	again, err := cold.ExportArtifact(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(art, again) {
		t.Errorf("re-export differs: %d vs %d bytes", len(art), len(again))
	}
	// Seeded draws agree across the two services: same tables.
	a, err := warm.SampleBatchSeeded(spec, 42, []int{0, 3, 6}, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := cold.SampleBatchSeeded(spec, 42, []int{0, 3, 6}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("seeded draws differ after import: %v vs %v", a, b)
	}
}

// TestImportRejectsWrongSpec: importing bytes that encode a different
// mechanism than the one named must fail with ErrArtifactInvalid and
// leave the cache untouched.
func TestImportRejectsWrongSpec(t *testing.T) {
	specA := Spec{Kind: KindGeometric, N: 8, Alpha: 0.5}
	specB := Spec{Kind: KindUniform, N: 8}

	warm := New(Config{Seed: 1})
	defer warm.Close()
	if _, err := warm.Get(specA); err != nil {
		t.Fatal(err)
	}
	art, err := warm.ExportArtifact(specA)
	if err != nil {
		t.Fatal(err)
	}

	cold := New(Config{Seed: 2})
	defer cold.Close()
	if _, err := cold.ImportArtifact(specB, art); !errors.Is(err, ErrArtifactInvalid) {
		t.Fatalf("ImportArtifact(wrong spec): got %v, want ErrArtifactInvalid", err)
	}
	if _, err := cold.Peek(specB); !errors.Is(err, ErrNotAdmitted) {
		t.Errorf("failed import admitted the spec: %v", err)
	}
	if _, err := cold.ImportArtifact(specB, []byte("garbage")); !errors.Is(err, ErrArtifactInvalid) {
		t.Fatalf("ImportArtifact(garbage): got %v, want ErrArtifactInvalid", err)
	}
}

// TestExportStates: never-admitted exports ErrNotAdmitted, in-flight
// builds ErrNotReady, failed builds their build error.
func TestExportStates(t *testing.T) {
	svc := New(Config{Seed: 1})
	defer svc.Close()
	spec := Spec{Kind: KindGeometric, N: 8, Alpha: 0.5}

	if _, err := svc.ExportArtifact(spec); !errors.Is(err, ErrNotAdmitted) {
		t.Fatalf("export before admission: got %v, want ErrNotAdmitted", err)
	}
	if _, err := svc.Get(spec); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.ExportArtifact(spec); err != nil {
		t.Fatalf("export of ready mechanism: %v", err)
	}

	// An infeasible LP build settles failed; export surfaces the error.
	bad := Spec{Kind: KindLPMinimax, N: 6, Alpha: 0.8, Props: core.AllProperties}
	if _, err := svc.Get(bad); err == nil {
		t.Skip("expected the all-properties minimax LP to be infeasible")
	}
	if _, err := svc.ExportArtifact(bad); !errors.Is(err, ErrBuildFailed) && !IsRetryable(err) {
		t.Fatalf("export of failed build: got %v, want a build error", err)
	}
}

// blockingStore stalls Get until released, pinning an entry in
// BuildRunning deterministically.
type blockingStore struct {
	release chan struct{}
}

func (b *blockingStore) Get(string) ([]byte, error) {
	<-b.release
	return nil, ErrArtifactNotFound
}
func (b *blockingStore) Put(string, []byte) error { return nil }
func (b *blockingStore) Delete(string) error      { return nil }
func (b *blockingStore) List() ([]string, error)  { return nil, nil }

// TestExportNotReadyWhileBuilding pins the not-ready leg without
// sleeping: the store's blocking Get holds the worker in BuildRunning
// while the export is attempted.
func TestExportNotReadyWhileBuilding(t *testing.T) {
	bs := &blockingStore{release: make(chan struct{})}
	svc := New(Config{Seed: 1, Store: bs})
	defer svc.Close()
	spec := Spec{Kind: KindGeometric, N: 8, Alpha: 0.5}

	if _, err := svc.Start(spec); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.ExportArtifact(spec); !errors.Is(err, ErrNotReady) {
		t.Fatalf("export mid-build: got %v, want ErrNotReady", err)
	}
	close(bs.release)
	if _, err := svc.Get(spec); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.ExportArtifact(spec); err != nil {
		t.Fatalf("export after release: %v", err)
	}
}

// TestImportSupersedesRunningBuild: importing while a worker is solving
// the same spec cancels the solve and installs the artifact; the entry
// ends ready with the imported tables.
func TestImportSupersedesRunningBuild(t *testing.T) {
	spec := Spec{Kind: KindGeometric, N: 8, Alpha: 0.5}
	warm := New(Config{Seed: 1})
	defer warm.Close()
	if _, err := warm.Get(spec); err != nil {
		t.Fatal(err)
	}
	art, err := warm.ExportArtifact(spec)
	if err != nil {
		t.Fatal(err)
	}

	bs := &blockingStore{release: make(chan struct{})}
	released := false
	release := func() {
		if !released {
			released = true
			close(bs.release)
		}
	}
	defer release()
	svc := New(Config{Seed: 2, Store: bs})
	defer svc.Close()
	if _, err := svc.Start(spec); err != nil {
		t.Fatal(err)
	}
	// The worker may be wedged in the blocking store read; import anyway.
	done := make(chan error, 1)
	go func() {
		_, err := svc.ImportArtifact(spec, art)
		done <- err
	}()
	// Import must first cancel any running build; releasing the store
	// lets the worker observe the cancellation and settle.
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("ImportArtifact: %v", err)
		}
	default:
		release()
		if err := <-done; err != nil {
			t.Fatalf("ImportArtifact: %v", err)
		}
	}
	info, err := svc.Status(spec)
	if err != nil || info.State != BuildReady {
		t.Fatalf("after import: %+v, %v", info, err)
	}
	if _, err := svc.Sample(spec, 4); err != nil {
		t.Fatal(err)
	}
}

func TestFSStoreErrorPaths(t *testing.T) {
	dir := t.TempDir()
	// A plain file where the store directory should be.
	file := filepath.Join(dir, "occupied")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewFSStore(file); err == nil {
		t.Error("NewFSStore over a regular file should fail")
	}
	st, err := NewFSStore(filepath.Join(dir, "store"))
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"", "../up", ".dot"} {
		if err := st.Delete(bad); err == nil {
			t.Errorf("Delete(%q) accepted a hostile ID", bad)
		}
		if err := st.Quarantine(bad); err == nil {
			t.Errorf("Quarantine(%q) accepted a hostile ID", bad)
		}
	}
	// Quarantining a missing artifact is a no-op, not an error.
	if err := st.Quarantine("um:n=4"); err != nil {
		t.Errorf("Quarantine of missing artifact: %v", err)
	}
	// A store whose directory vanished fails Put loudly, not silently.
	if err := os.RemoveAll(st.Dir()); err != nil {
		t.Fatal(err)
	}
	if err := st.Put("um:n=4", []byte("x")); err == nil {
		t.Error("Put into a removed directory should fail")
	}
	if _, err := st.List(); err == nil {
		t.Error("List of a removed directory should fail")
	}
}

// TestFSStoreOpenLeavesTempsToOwner pins that opening a store reaps
// nothing — another process may be opening a live daemon's store, whose
// in-flight Put owns its temp file — while ReapTemps removes only the
// temp files, and ReapTemps of a vanished directory fails.
func TestFSStoreOpenLeavesTempsToOwner(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{".put-1", "um:n=4.pca", "um:n=5.pca.corrupt"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	st, err := NewFSStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, ".put-1")); err != nil {
		t.Fatalf("NewFSStore touched a temp file: %v", err)
	}
	if n, err := st.ReapTemps(); n != 1 || err != nil {
		t.Fatalf("ReapTemps = %d, %v; want 1, nil", n, err)
	}
	left, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 2 || left[0].Name() != "um:n=4.pca" || left[1].Name() != "um:n=5.pca.corrupt" {
		t.Fatalf("after ReapTemps the store holds %v", left)
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := st.ReapTemps(); err == nil {
		t.Error("ReapTemps of a removed directory should fail")
	}
}

// failingPutStore serves reads but refuses writes — a full disk, say.
type failingPutStore struct{}

func (failingPutStore) Get(string) ([]byte, error) { return nil, ErrArtifactNotFound }
func (failingPutStore) Put(string, []byte) error   { return errors.New("disk full") }
func (failingPutStore) Delete(string) error        { return nil }
func (failingPutStore) List() ([]string, error)    { return nil, nil }

// TestStorePutFailureIsBestEffort: a failing write-behind costs a
// counter increment and a future rebuild — never the build itself.
func TestStorePutFailureIsBestEffort(t *testing.T) {
	svc := New(Config{Seed: 1, Store: failingPutStore{}})
	if _, err := svc.Get(Spec{Kind: KindGeometric, N: 8, Alpha: 0.5}); err != nil {
		t.Fatalf("build with failing store: %v", err)
	}
	svc.Close() // drain the write-behind
	got := svc.Stats()
	if got.StorePutFailures != 1 {
		t.Errorf("StorePutFailures = %d, want 1", got.StorePutFailures)
	}
	if got.StoreBytesWritten != 0 {
		t.Errorf("StoreBytesWritten = %d after a failed put, want 0", got.StoreBytesWritten)
	}
}

func TestExportArtifactInvalidSpec(t *testing.T) {
	svc := New(Config{Seed: 1})
	defer svc.Close()
	if _, err := svc.ExportArtifact(Spec{Kind: Kind(250), N: 4}); !errors.Is(err, ErrSpecInvalid) {
		t.Fatalf("got %v, want ErrSpecInvalid", err)
	}
	if _, err := svc.ImportArtifact(Spec{Kind: Kind(250), N: 4}, nil); !errors.Is(err, ErrSpecInvalid) {
		t.Fatalf("import: got %v, want ErrSpecInvalid", err)
	}
}

// TestImportOverReadyRacesNoReader: re-importing a ready entry's own
// export while another goroutine samples it is race-free (the test is
// meaningful under -race) and every draw stays in range. An install
// publishes the whole serving state at once, so a reader sees one
// install or the next, never a mix.
func TestImportOverReadyRacesNoReader(t *testing.T) {
	spec := Spec{Kind: KindGeometric, N: 16, Alpha: 0.5}
	svc := New(Config{Seed: 1})
	defer svc.Close()
	if _, err := svc.Get(spec); err != nil {
		t.Fatal(err)
	}
	art, err := svc.ExportArtifact(spec)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	errs := make(chan error, 1)
	go func() {
		defer close(errs)
		for j := 0; ; j = (j + 1) % (spec.N + 1) {
			select {
			case <-stop:
				return
			default:
			}
			out, err := svc.Sample(spec, j)
			if err == nil && (out < 0 || out > spec.N) {
				err = fmt.Errorf("sampled %d outside [0, %d]", out, spec.N)
			}
			if err != nil {
				errs <- err
				return
			}
		}
	}()
	for i := 0; i < 20; i++ {
		if _, err := svc.ImportArtifact(spec, art); err != nil {
			close(stop)
			t.Fatalf("import %d: %v", i, err)
		}
	}
	close(stop)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
}

// TestHeldETag: HeldETag names the copy a node holds — the ready
// entry's install, else the stored bytes, read as they are — and is a
// pure read: it admits nothing, touches no LRU stamp (a touch counts a
// hit), counts no store hit or miss, and quarantines nothing.
func TestHeldETag(t *testing.T) {
	gm := Spec{Kind: KindGeometric, N: 8, Alpha: 0.5}
	other := Spec{Kind: KindGeometric, N: 8, Alpha: 0.25}
	corrupt := []byte("corrupt artifact")
	cases := []struct {
		name string
		// setup returns the service to ask, the spec to ask for and
		// the expected answer.
		setup func(t *testing.T) (svc *Service, spec Spec, etag string, ok bool)
		// kept, when set, is what the store must still hold for spec.
		kept []byte
	}{
		{"ready", func(t *testing.T) (*Service, Spec, string, bool) {
			svc := New(Config{Capacity: 4, Store: NewMemStore()})
			if _, err := svc.Get(gm); err != nil {
				t.Fatal(err)
			}
			etag, err := svc.ExportETag(gm)
			if err != nil {
				t.Fatal(err)
			}
			return svc, gm, etag, true
		}, nil},
		{"evicted, stored", func(t *testing.T) (*Service, Spec, string, bool) {
			store := NewMemStore()
			svc := New(Config{Capacity: 1, Shards: 1, Store: store})
			for _, spec := range []Spec{gm, other} {
				if _, err := svc.Get(spec); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := svc.Peek(gm); !errors.Is(err, ErrNotAdmitted) {
				t.Fatalf("Peek(%s) = %v, want evicted", gm.ID(), err)
			}
			for deadline := time.Now().Add(10 * time.Second); store.Len() < 2; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("store holds %d artifacts, want 2", store.Len())
				}
			}
			data, err := store.Get(gm.ID())
			if err != nil {
				t.Fatal(err)
			}
			return svc, gm, ArtifactETag(data), true
		}, nil},
		{"corrupt stored bytes", func(t *testing.T) (*Service, Spec, string, bool) {
			store := NewMemStore()
			if err := store.Put(gm.ID(), corrupt); err != nil {
				t.Fatal(err)
			}
			return New(Config{Store: store}), gm, ArtifactETag(corrupt), true
		}, corrupt},
		{"nothing stored", func(t *testing.T) (*Service, Spec, string, bool) {
			return New(Config{Store: NewMemStore()}), gm, "", false
		}, nil},
		{"no store", func(t *testing.T) (*Service, Spec, string, bool) {
			return New(Config{}), gm, "", false
		}, nil},
		{"invalid spec", func(t *testing.T) (*Service, Spec, string, bool) {
			return New(Config{Store: NewMemStore()}), Spec{Kind: Kind(250), N: 4}, "", false
		}, nil},
	}
	// counts projects the Stats a read could move.
	type counts struct {
		Entries                                           int
		Hits, Misses, StoreHits, StoreMisses, Quarantines int64
	}
	snapshot := func(svc *Service) counts {
		st := svc.Stats()
		return counts{st.Entries, st.Hits, st.Misses, st.StoreHits, st.StoreMisses, st.StoreQuarantines}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			svc, spec, wantETag, wantOK := tc.setup(t)
			defer svc.Close()
			before := snapshot(svc)
			entry, peekErr := svc.Peek(spec)

			etag, ok := svc.HeldETag(spec)
			if etag != wantETag || ok != wantOK {
				t.Fatalf("HeldETag = %q, %v; want %q, %v", etag, ok, wantETag, wantOK)
			}
			if after := snapshot(svc); after != before {
				t.Errorf("stats moved: %+v -> %+v", before, after)
			}
			if e, err := svc.Peek(spec); e != entry || fmt.Sprint(err) != fmt.Sprint(peekErr) {
				t.Errorf("Peek moved: (%p, %v) -> (%p, %v)", entry, peekErr, e, err)
			}
			if tc.kept != nil {
				if data, err := svc.store.backend.Get(spec.ID()); err != nil || !bytes.Equal(data, tc.kept) {
					t.Errorf("stored copy after HeldETag: %q, %v; want %q left in place", data, err, tc.kept)
				}
			}
		})
	}
}
