package service

import (
	"context"
	"errors"
	"math/bits"
	"sync"
	"sync/atomic"

	"privcount/internal/core"
	"privcount/internal/rng"
)

// Entry is one admitted mechanism with everything precomputed for
// serving: the alias sampling tables, the MLE decode table, the
// unbiased (debiasing) estimator and the metadata the status document
// reports. An LP result also keeps its matrix, which only export reads;
// a closed form (GM, EM, UM, and a choose that lands on one) does not,
// since export re-derives it with the constructor (see tables).
//
// An Entry is a small state machine (see BuildState): it is admitted in
// BuildPending, picked up by a background worker into BuildRunning, and
// settles in BuildReady or BuildFailed. The serving tables are published
// by installLocked as one immutable value behind an atomic pointer,
// before the state word flips to BuildReady. A later import may publish
// a new value over a ready entry; a reader loads the pointer once per
// op and so serves from one install or the next, never a mix, with no
// locking beyond the atomic loads.
type Entry struct {
	spec  Spec
	clock atomic.Int64 // last-touch stamp for LRU eviction

	// state is the machine word (a BuildState). Transitions happen under
	// mu; the serving hot path reads it lock-free.
	state atomic.Int32

	mu       sync.Mutex
	done     chan struct{}           // closed when the current build settles; nil before first arm
	ctx      context.Context         // the in-flight build's context
	cancel   context.CancelCauseFunc // cancels the in-flight build
	queued   bool                    // an enqueue for the current pending generation happened
	refs     int                     // callers currently waiting on the build
	detached bool                    // an async admission wants the build to finish regardless of waiters
	buildErr error                   // terminal error of the last settled build
	buildDur float64                 // wall seconds of the last settled build

	// serving is the current install: nil until the first one, then
	// replaced whole by each later one (see installLocked).
	serving atomic.Pointer[install]
}

// install is one published serving state: the tables and the ETag of
// their export, which belongs to this install alone.
type install struct {
	tables
	tag artifactTag
}

// tables is what a ready entry serves from. An entry's tables are
// installed as one value, by a worker or an import.
type tables struct {
	// matrix is the mechanism itself for an LP result, whose export
	// reads its matrix. It is nil for a closed form, whose export
	// re-derives the matrix with the same constructor (closedForm).
	matrix    *core.Mechanism
	sampler   *core.Sampler
	mle       []int
	debias    []float64
	debiasErr error
	name      string
	rule      string
	props     core.PropertySet
	alpha     float64
	l0        float64
}

// artifactTag caches the ETag of one install's export: it is computed,
// by encoding and hashing the artifact, at most once.
type artifactTag struct {
	once sync.Once
	etag string
	err  error
}

func newEntry(spec Spec) *Entry {
	return &Entry{spec: spec} // zero state == BuildPending, unarmed
}

// armLocked equips a pending entry with its build context and completion
// channel. Caller holds e.mu. root is the service's lifetime context, so
// service shutdown cancels every armed build.
func (e *Entry) armLocked(root context.Context) {
	e.done = make(chan struct{})
	e.ctx, e.cancel = context.WithCancelCause(root)
}

// rearmLocked resets a failed (rebuildable) entry to pending for a fresh
// build generation. Caller holds e.mu.
func (e *Entry) rearmLocked(root context.Context) {
	e.state.Store(int32(BuildPending))
	e.queued = false
	e.detached = false
	e.buildErr = nil
	e.armLocked(root)
}

// failLocked settles the current generation as failed. Caller holds e.mu
// and has already cancelled e.ctx (or there is none).
func (e *Entry) failLocked(cause error) {
	e.buildErr = cause
	e.queued = false
	e.state.Store(int32(BuildFailed))
	if e.done != nil {
		close(e.done)
		e.done = nil
	}
	if e.cancel != nil {
		e.cancel(cause)
		e.cancel, e.ctx = nil, nil
	}
}

// installLocked publishes t as the entry's serving state and settles the
// current generation ready. It is the one install path: a solve and a
// store load (the worker) and a PUT or sync import (ImportArtifact) all
// land here. Caller holds e.mu and has settled any running build.
func (e *Entry) installLocked(t tables) {
	e.serving.Store(&install{tables: t})
	e.buildErr = nil
	e.queued = false
	e.state.Store(int32(BuildReady))
	if e.done != nil {
		close(e.done)
		e.done = nil
	}
	if e.cancel != nil {
		e.cancel(nil)
		e.cancel, e.ctx = nil, nil
	}
}

// abandonIfUnwatched cancels an in-flight or queued build that no
// caller is waiting for (refs == 0). The LRU eviction path uses it so
// that evicting an entry mid-build stops the solve instead of letting
// it keep burning a worker: once the entry has left the shard map its
// result is unreachable — even a detached (Start-admitted) build has
// nobody left to serve, so the detached pin does not save it here;
// only live waiters do (they hold the entry pointer and still get the
// result). It reports whether it settled a pending entry itself (the
// caller counts those as cancels; a cancelled running build is counted
// by the worker that settles it).
func (e *Entry) abandonIfUnwatched(cause error) (settledPending bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := BuildState(e.state.Load())
	if st == BuildReady || st == BuildFailed || e.refs > 0 {
		return false
	}
	if st == BuildRunning {
		if e.cancel != nil {
			e.cancel(cause) // the worker settles the entry as failed
		}
		return false
	}
	e.failLocked(cause)
	return true
}

// State returns the entry's current build state. It is lock-free and
// safe from any goroutine.
func (e *Entry) State() BuildState { return BuildState(e.state.Load()) }

// Info returns a consistent snapshot of the entry's build status. A
// deterministic failure's Err matches ErrBuildFailed (cancellation-
// class failures keep their own sentinels and IsRetryable), so status
// surfaces classify settled builds the same way the lookup paths do.
func (e *Entry) Info() BuildInfo {
	e.mu.Lock()
	defer e.mu.Unlock()
	err := e.buildErr
	if err != nil && !rebuildable(err) && !errors.Is(err, ErrBuildFailed) {
		err = &failedBuildError{err}
	}
	return BuildInfo{
		Spec:         e.spec,
		State:        BuildState(e.state.Load()),
		Err:          err,
		BuildSeconds: e.buildDur,
	}
}

// Spec returns the canonical spec the entry was admitted under.
func (e *Entry) Spec() Spec { return e.spec }

// current returns the tables of the entry's current install, or empty
// tables before the first. Load it once per op: two calls may straddle
// an import and return two installs.
func (e *Entry) current() *tables {
	if in := e.serving.Load(); in != nil {
		return &in.tables
	}
	return &noTables
}

// noTables is what an entry with no install reads: all zero.
var noTables tables

// Mechanism returns the constructed mechanism (nil unless BuildReady).
// A closed form's entry holds no matrix, so for one each call re-derives
// the mechanism with its constructor, allocating its (n+1)² matrix; read
// Name, Alpha and L0 where they suffice.
func (e *Entry) Mechanism() *core.Mechanism {
	if e.State() != BuildReady {
		return nil
	}
	if m := e.current().matrix; m != nil {
		return m
	}
	m, _, _, err := construct(context.Background(), e.spec)
	if err != nil {
		return nil
	}
	return m
}

// Name returns the mechanism's display name (e.g. "GM", "WH-LP").
func (e *Entry) Name() string { return e.current().name }

// Alpha returns the mechanism's design privacy parameter, 0 for UM.
func (e *Entry) Alpha() float64 { return e.current().alpha }

// L0 returns the mechanism's rescaled L0 score (Eq 1), as computed from
// its matrix when it was built or imported.
func (e *Entry) L0() float64 { return e.current().l0 }

// Sampler returns the read-only sampler over the precomputed tables; it
// is safe for concurrent use with per-goroutine rng.Sources.
func (e *Entry) Sampler() *core.Sampler { return e.current().sampler }

// Rule describes how the mechanism was selected (for KindChoose, the
// Figure 5 flowchart path).
func (e *Entry) Rule() string { return e.current().rule }

// Props is the closed set of §IV-A properties the served mechanism
// guarantees — possibly a strict superset of the request.
func (e *Entry) Props() core.PropertySet { return e.current().props }

// MLE decodes an observed output to its maximum-likelihood input via the
// precomputed table. It panics if i is out of range.
func (e *Entry) MLE(i int) int { return e.current().mle[i] }

// Debias returns the precomputed unbiased-estimator coefficients a with
// E[a[output] | input=j] = j, or an error for mechanisms without one
// (UM's matrix is singular).
func (e *Entry) Debias() ([]float64, error) {
	t := e.current()
	return t.debias, t.debiasErr
}

// ResidentBytes returns the heap bytes a ready entry's serving tables
// hold: the matrix of an LP result, the sampler's alias tables, and the
// MLE and debias vectors. It is 0 unless the entry is BuildReady. Per
// (n+1)² cell that is ~20 bytes for an LP result, 12 for GM and EM,
// whose matrix is not held, and none for UM, whose identical columns
// share one alias table; each adds O(n).
func (e *Entry) ResidentBytes() int64 {
	if e.State() != BuildReady {
		return 0
	}
	t := e.current()
	const wordBytes = bits.UintSize / 8
	b := t.sampler.Bytes() + wordBytes*len(t.mle) + 8*len(t.debias)
	if t.matrix != nil {
		b += t.matrix.Bytes()
	}
	return int64(b)
}

// hitStripes is the number of independent hit counters per shard; hits
// are striped by the caller's RNG stream so concurrent samplers do not
// bounce one counter cache line between cores.
const hitStripes = 16

// stripedCounter is an atomic counter padded to its own cache line.
type stripedCounter struct {
	v atomic.Int64
	_ [56]byte
}

// shard is one lock domain of the cache. Lookups are lock-free: the
// entry map is an immutable snapshot behind an atomic pointer, replaced
// copy-on-write under mu by the rare admission/eviction path. The shard
// also owns the RNG pool feeding samples served from it. Builds are not
// the shard's business — admission hands a pending Entry back and the
// service's worker pool takes it from there.
type shard struct {
	entries atomic.Pointer[map[Spec]*Entry]
	mu      sync.Mutex // guards snapshot replacement only
	cap     int
	clock   atomic.Int64
	pool    *rng.Pool

	hits              [hitStripes]stripedCounter
	misses, evictions atomic.Int64
	// onCancel records a build the eviction path settled as cancelled in
	// the service-wide and per-kind counters (running builds it cancels
	// are counted by the worker that settles them).
	onCancel func(Kind)
}

// get returns the entry for spec (already canonical), admitting a
// pending one on first touch. The hot path is one atomic load plus a map
// read; nothing here ever blocks on a build. stripe picks the
// hit-counter stripe (any value works; pass the caller's RNG stream id
// to avoid contention).
func (sh *shard) get(spec Spec, stripe uint64) *Entry {
	e := (*sh.entries.Load())[spec]
	if e == nil {
		sh.mu.Lock()
		snap := *sh.entries.Load()
		if e = snap[spec]; e == nil {
			e = newEntry(spec)
			next := make(map[Spec]*Entry, len(snap)+1)
			for s, old := range snap {
				next[s] = old
			}
			next[spec] = e
			sh.misses.Add(1)
			e.clock.Store(sh.clock.Add(1))
			var victim *Entry
			if len(next) > sh.cap {
				victim = sh.evict(next, e)
			}
			sh.entries.Store(&next)
			sh.mu.Unlock()
			if victim != nil {
				// Outside the shard lock: cancelling takes the entry lock.
				if victim.abandonIfUnwatched(ErrEvicted) {
					sh.onCancel(victim.spec.Kind)
				}
			}
			return e
		}
		sh.mu.Unlock()
	}
	sh.hits[stripe%hitStripes].v.Add(1)
	// Freshen the LRU stamp only when it is behind the current tick, so
	// steady-state traffic performs no contended writes. Ticks advance
	// only on admission, which is exactly when eviction needs ordering.
	if t := sh.clock.Load() + 1; e.clock.Load() < t {
		e.clock.Store(t)
	}
	return e
}

// evict removes the least-recently-touched entry other than keep from
// next (the snapshot under construction) and returns it. Callers holding
// pointers to an evicted ready entry can keep using it — ready entries
// are immutable — it just leaves the map; an evicted in-flight build
// that nobody waits on is cancelled by the caller.
func (sh *shard) evict(next map[Spec]*Entry, keep *Entry) *Entry {
	var victimSpec Spec
	var victim *Entry
	oldest := int64(1<<63 - 1)
	for s, e := range next {
		if e == keep {
			continue
		}
		if c := e.clock.Load(); c < oldest {
			oldest, victim, victimSpec = c, e, s
		}
	}
	if victim != nil {
		delete(next, victimSpec)
		sh.evictions.Add(1)
	}
	return victim
}

// len returns the number of admitted entries.
func (sh *shard) len() int {
	return len(*sh.entries.Load())
}

// residentBytes sums ResidentBytes over the shard's ready entries.
func (sh *shard) residentBytes() int64 {
	var total int64
	for _, e := range *sh.entries.Load() {
		total += e.ResidentBytes()
	}
	return total
}

// hitCount sums the striped hit counters.
func (sh *shard) hitCount() int64 {
	var total int64
	for i := range sh.hits {
		total += sh.hits[i].v.Load()
	}
	return total
}
