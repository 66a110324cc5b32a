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
// serving: the mechanism matrix, the per-column alias sampling tables,
// the MLE decode table and the unbiased (debiasing) estimator.
//
// An Entry is a small state machine (see BuildState): it is admitted in
// BuildPending, picked up by a background worker into BuildRunning, and
// settles in BuildReady or BuildFailed. The serving tables are written
// exactly once, by the worker, before the state word flips to
// BuildReady; after that flip they are immutable, so a ready Entry may
// be shared by any number of goroutines with no locking beyond the
// single atomic state load.
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

	// Populated by the worker before state flips to BuildReady;
	// immutable afterwards.
	mech      *core.Mechanism
	sampler   *core.Sampler
	mle       []int
	debias    []float64
	debiasErr error
	rule      string
	props     core.PropertySet
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

// Mechanism returns the constructed mechanism (nil unless BuildReady).
func (e *Entry) Mechanism() *core.Mechanism { return e.mech }

// Sampler returns the read-only sampler over the precomputed tables; it
// is safe for concurrent use with per-goroutine rng.Sources.
func (e *Entry) Sampler() *core.Sampler { return e.sampler }

// Rule describes how the mechanism was selected (for KindChoose, the
// Figure 5 flowchart path).
func (e *Entry) Rule() string { return e.rule }

// Props is the closed set of §IV-A properties the served mechanism
// guarantees — possibly a strict superset of the request.
func (e *Entry) Props() core.PropertySet { return e.props }

// MLE decodes an observed output to its maximum-likelihood input via the
// precomputed table. It panics if i is out of range.
func (e *Entry) MLE(i int) int { return e.mle[i] }

// Debias returns the precomputed unbiased-estimator coefficients a with
// E[a[output] | input=j] = j, or an error for mechanisms without one
// (UM's matrix is singular).
func (e *Entry) Debias() ([]float64, error) { return e.debias, e.debiasErr }

// ResidentBytes returns the heap bytes a ready entry's serving tables
// hold: the mechanism matrix, the sampler's alias tables, and the MLE
// and debias vectors. It is 0 unless the entry is BuildReady. Tables
// dominate an entry's footprint: ~20 bytes per (n+1)² cell plus O(n).
func (e *Entry) ResidentBytes() int64 {
	if e.State() != BuildReady {
		return 0
	}
	const wordBytes = bits.UintSize / 8
	return int64(e.mech.Bytes() + e.sampler.Bytes() + wordBytes*len(e.mle) + 8*len(e.debias))
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
