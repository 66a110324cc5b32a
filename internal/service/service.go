package service

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"privcount/internal/rng"
)

// Config tunes a Service. The zero value is usable: 256 cached
// mechanisms across 8 shards, crypto-seeded randomness, and a build pool
// sized to the machine.
type Config struct {
	// Capacity is the total number of cached mechanisms across all
	// shards (default 256). When a shard exceeds its share, the
	// least-recently-used entry in that shard is evicted.
	Capacity int
	// Shards is the number of lock domains (default 8, rounded up to a
	// power of two). More shards means less contention under load.
	Shards int
	// Seed seeds the per-shard RNG pools deterministically; 0 (the
	// default) draws the base seed from the OS CSPRNG, which is the
	// right choice when releases must be unpredictable. Seeded sampling
	// of specific requests is available regardless via SampleBatchSeeded.
	Seed uint64
	// BuildWorkers bounds how many mechanism builds run concurrently
	// (default GOMAXPROCS clamped to [2, 8]). Builds are CPU-bound LP
	// solves or closed-form table fills; the pool keeps a burst of
	// admissions from pinning every core while serving traffic. The
	// floor of two keeps one long-running solve (a cold lp-minimax
	// build can take tens of minutes) from head-of-line-blocking every
	// cheap build on small machines.
	BuildWorkers int
	// BuildQueue is the capacity of the admission queue feeding the
	// workers (default 1024). Enqueueing beyond it blocks the admitting
	// caller until a worker frees a slot.
	BuildQueue int
	// Admission budgets the build pipeline; admissions over budget are
	// load-shed with a retryable ShedError instead of queueing. See
	// AdmissionConfig for the zero-value defaults.
	Admission AdmissionConfig
	// Store, when non-nil, is the persistent artifact tier under the
	// in-memory cache: cache misses try a stored artifact before
	// solving, and every successful build is persisted asynchronously.
	// The store is strictly best-effort — a missing or corrupt artifact
	// degrades to a normal build. See NewFSStore for the filesystem
	// implementation.
	Store Store
}

// kindCounters is the per-kind slice of the build-pipeline counters,
// feeding the {kind}-labelled series of RegisterMetrics.
type kindCounters struct {
	builds   atomic.Int64 // completed successfully
	failures atomic.Int64 // deterministic build errors
	cancels  atomic.Int64 // cancellation-class settlements
	nanos    atomic.Int64 // cumulative wall time spent building
}

// Service serves differentially private count releases at scale: it
// builds each requested mechanism once — on a bounded background worker
// pool, never on the caller's goroutine — caches it with its sampling
// and estimation tables, and answers Sample/SampleBatch/Estimate from
// any number of goroutines. Builds are cancellable end to end (see
// GetCtx, Start, Warmup, Close); see the package comment for the
// architecture.
type Service struct {
	shards    []*shard
	mask      uint64
	admission AdmissionConfig // resolved by New; read-only afterwards

	build struct {
		root       context.Context         // parent of every build context
		cancelRoot context.CancelCauseFunc // fired by Close
		queue      chan *Entry
		sendMu     sync.RWMutex // brackets queue sends against close
		closed     bool
		wg         sync.WaitGroup
		closeOnce  sync.Once

		inFlight atomic.Int64
		builds   atomic.Int64 // completed successfully
		failures atomic.Int64 // deterministic build errors
		cancels  atomic.Int64 // cancellation-class settlements
		nanos    atomic.Int64 // cumulative wall time spent building

		byKind [kindCount]kindCounters // the same, sliced per kind

		sheds       atomic.Int64 // admissions refused by the gate
		shedQueue   atomic.Int64 // … because of queue depth
		shedSeconds atomic.Int64 // … because of in-flight build time

		// starts tracks when each currently running build began, for
		// the in-flight-seconds admission signal. At most BuildWorkers
		// entries; touched only by build workers and the (cold) shed
		// gate, never by the sample hot path.
		startMu sync.Mutex
		starts  map[*Entry]time.Time
	}

	store struct {
		backend Store          // nil when no store is configured
		wg      sync.WaitGroup // tracks write-behind goroutines for Close

		hits         atomic.Int64 // builds served from a stored artifact
		misses       atomic.Int64 // reads that fell back to a solve
		putFails     atomic.Int64 // write-behind persists that errored
		quarantines  atomic.Int64 // artifacts that failed verification
		bytesRead    atomic.Int64
		bytesWritten atomic.Int64
	}
}

// New returns a Service with the given configuration. Call Close to
// tear its build pipeline down; a Service that is never Closed leaks
// its worker goroutines (harmless for process-lifetime services, wrong
// for tests).
func New(cfg Config) *Service {
	if cfg.Capacity <= 0 {
		cfg.Capacity = 256
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 8
	}
	if cfg.BuildWorkers <= 0 {
		cfg.BuildWorkers = runtime.GOMAXPROCS(0)
		if cfg.BuildWorkers > 8 {
			cfg.BuildWorkers = 8
		}
		if cfg.BuildWorkers < 2 {
			cfg.BuildWorkers = 2
		}
	}
	if cfg.BuildQueue <= 0 {
		cfg.BuildQueue = 1024
	}
	nshards := 1
	for nshards < cfg.Shards {
		nshards <<= 1
	}
	perShard := (cfg.Capacity + nshards - 1) / nshards
	if perShard < 1 {
		perShard = 1
	}
	s := &Service{shards: make([]*shard, nshards), mask: uint64(nshards - 1)}
	for i := range s.shards {
		seed := cfg.Seed
		if seed != 0 {
			seed += uint64(i)*0x9e3779b97f4a7c15 | 1
		}
		sh := &shard{cap: perShard, pool: rng.NewPool(seed), onCancel: s.recordCancel}
		empty := make(map[Spec]*Entry, perShard)
		sh.entries.Store(&empty)
		s.shards[i] = sh
	}
	s.admission = cfg.Admission.withDefaults(cfg.BuildQueue)
	s.store.backend = cfg.Store
	s.build.starts = make(map[*Entry]time.Time, cfg.BuildWorkers)
	s.build.root, s.build.cancelRoot = context.WithCancelCause(context.Background())
	s.build.queue = make(chan *Entry, cfg.BuildQueue)
	s.build.wg.Add(cfg.BuildWorkers)
	for i := 0; i < cfg.BuildWorkers; i++ {
		go s.worker()
	}
	return s
}

// lookup validates and canonicalises spec and returns its ready entry
// plus the owning shard, admitting and building the mechanism through
// the worker pool on first touch (blocking under ctx until it settles).
// stripe selects the hit-counter stripe; hot paths pass their RNG stream
// id.
func (s *Service) lookup(ctx context.Context, spec Spec, stripe uint64) (*Entry, *shard, error) {
	if err := spec.Validate(); err != nil {
		return nil, nil, err
	}
	spec = spec.Canonical()
	sh := s.shards[spec.hash()&s.mask]
	e := sh.get(spec, stripe)
	if err := s.ready(ctx, e); err != nil {
		return nil, nil, buildError(spec, err)
	}
	return e, sh, nil
}

// ready returns nil immediately for a built entry (the hot path: one
// atomic load) and otherwise queues the build — through the admission
// gate, which may shed it — and waits for it.
func (s *Service) ready(ctx context.Context, e *Entry) error {
	if e.State() == BuildReady {
		return nil
	}
	if err := s.ensureQueued(e); err != nil {
		return err
	}
	return s.await(ctx, e)
}

// Get returns the cache entry for spec, admitting and building the
// mechanism on first touch. Use it to inspect the mechanism, its rule
// and guaranteed properties, or to drive the sampler with a caller-owned
// randomness source.
func (s *Service) Get(spec Spec) (*Entry, error) {
	return s.GetCtx(context.Background(), spec)
}

// GetCtx is Get under a context: while the build is in flight the call
// blocks on it, and if ctx dies first the call returns ctx's error. A
// build whose last waiter has given up (and that no Start/Warmup pinned)
// is cancelled outright — the solver stops mid-pivot and the entry is
// left failed-rebuildable — so a dead client costs at most one pivot of
// CPU, not a full LP solve.
func (s *Service) GetCtx(ctx context.Context, spec Spec) (*Entry, error) {
	e, _, err := s.lookup(ctx, spec, 0)
	return e, err
}

// Peek returns the cache entry for spec without admitting it: specs
// never admitted (or since evicted) return ErrNotAdmitted, invalid
// specs their validation error. Unlike Get it never queues a build, so
// it is safe for status surfaces that must not warm the cache as a side
// effect. The returned entry may be in any build state; gate on
// Entry.State before touching serving tables.
func (s *Service) Peek(spec Spec) (*Entry, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	spec = spec.Canonical()
	sh := s.shards[spec.hash()&s.mask]
	e := (*sh.entries.Load())[spec]
	if e == nil {
		return nil, ErrNotAdmitted
	}
	return e, nil
}

// Entries snapshots the build status of every cached mechanism, sorted
// by canonical wire ID for stable listings. It reads the lock-free map
// snapshots, so it is cheap enough for a status endpoint to call per
// request.
func (s *Service) Entries() []BuildInfo {
	type keyed struct {
		id   string
		info BuildInfo
	}
	var all []keyed
	for _, sh := range s.shards {
		for _, e := range *sh.entries.Load() {
			info := e.Info()
			all = append(all, keyed{info.Spec.ID(), info})
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].id < all[j].id })
	out := make([]BuildInfo, len(all))
	for i, k := range all {
		out[i] = k.info
	}
	return out
}

// Sample draws one noisy release for true count j under spec. Randomness
// comes from the owning shard's pool, so concurrent callers do not
// contend on a shared generator.
func (s *Service) Sample(spec Spec, j int) (int, error) {
	return s.SampleCtx(context.Background(), spec, j)
}

// SampleCtx is Sample under a context: a cold spec's build is awaited
// under ctx with the same cancellation semantics as GetCtx. Ready
// entries never consult ctx.
func (s *Service) SampleCtx(ctx context.Context, spec Spec, j int) (int, error) {
	if err := spec.Validate(); err != nil {
		return 0, err
	}
	spec = spec.Canonical()
	sh := s.shards[spec.hash()&s.mask]
	r := sh.pool.Get()
	e := sh.get(spec, r.StreamID())
	if err := s.ready(ctx, e); err != nil {
		sh.pool.Put(r)
		return 0, buildError(spec, err)
	}
	if j < 0 || j > e.spec.N {
		sh.pool.Put(r)
		return 0, fmt.Errorf("service: count %d out of range [0, %d]", j, e.spec.N)
	}
	out := e.sampler.Sample(r, j)
	sh.pool.Put(r)
	return out, nil
}

// SampleBatch draws one noisy release for each true count in js,
// appending to dst (pass nil to allocate). The mechanism is looked up
// once and the batch shares one pooled generator, which is what makes
// batched serving cheap.
func (s *Service) SampleBatch(spec Spec, js []int, dst []int) ([]int, error) {
	return s.SampleBatchCtx(context.Background(), spec, js, dst)
}

// SampleBatchCtx is SampleBatch under a context (see SampleCtx).
func (s *Service) SampleBatchCtx(ctx context.Context, spec Spec, js []int, dst []int) ([]int, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	spec = spec.Canonical()
	sh := s.shards[spec.hash()&s.mask]
	r := sh.pool.Get()
	e := sh.get(spec, r.StreamID())
	if err := s.ready(ctx, e); err != nil {
		sh.pool.Put(r)
		return nil, buildError(spec, err)
	}
	if err := checkCounts(js, e.spec.N); err != nil {
		sh.pool.Put(r)
		return nil, err
	}
	dst = e.sampler.SampleMany(r, js, dst)
	sh.pool.Put(r)
	return dst, nil
}

// SampleBatchInto draws one noisy release for each true count js[i]
// into dst[i]. It is SampleBatch with a caller-supplied result buffer:
// on the hot path (ready entry, pooled generator) it performs zero heap
// allocations, which is what lets a streaming transport serve
// arbitrarily long batches at a flat memory cost. dst must have
// len(dst) >= len(js); the extra tail is left untouched.
func (s *Service) SampleBatchInto(spec Spec, js, dst []int) error {
	return s.SampleBatchIntoCtx(context.Background(), spec, js, dst)
}

// SampleBatchIntoCtx is SampleBatchInto under a context (see
// SampleCtx): a cold spec's build is awaited under ctx; ready entries
// never consult ctx and never allocate.
func (s *Service) SampleBatchIntoCtx(ctx context.Context, spec Spec, js, dst []int) error {
	if len(dst) < len(js) {
		return fmt.Errorf("service: result buffer holds %d, need %d", len(dst), len(js))
	}
	if err := spec.Validate(); err != nil {
		return err
	}
	spec = spec.Canonical()
	sh := s.shards[spec.hash()&s.mask]
	r := sh.pool.Get()
	e := sh.get(spec, r.StreamID())
	if err := s.ready(ctx, e); err != nil {
		sh.pool.Put(r)
		return buildError(spec, err)
	}
	if err := checkCounts(js, e.spec.N); err != nil {
		sh.pool.Put(r)
		return err
	}
	e.sampler.SampleManyInto(r, js, dst)
	sh.pool.Put(r)
	return nil
}

// SampleBatchSeededInto is SampleBatchInto with reproducible
// randomness: draws match SampleBatchSeeded exactly. The outputs are
// written without allocating; the one allocation per call is the fresh
// seeded generator that determinism requires.
func (s *Service) SampleBatchSeededInto(ctx context.Context, spec Spec, seed uint64, js, dst []int) error {
	if len(dst) < len(js) {
		return fmt.Errorf("service: result buffer holds %d, need %d", len(dst), len(js))
	}
	e, _, err := s.lookup(ctx, spec, 0)
	if err != nil {
		return err
	}
	if err := checkCounts(js, e.spec.N); err != nil {
		return err
	}
	e.sampler.SampleManyInto(rng.New(seed), js, dst)
	return nil
}

// SampleBatchSeeded is SampleBatch with reproducible randomness: the
// draws are exactly those of a fresh rng.New(seed) consumed one count at
// a time, so a seeded batch matches seeded single-shot sampling — useful
// for replayable experiments and for tests.
func (s *Service) SampleBatchSeeded(spec Spec, seed uint64, js []int, dst []int) ([]int, error) {
	return s.SampleBatchSeededCtx(context.Background(), spec, seed, js, dst)
}

// SampleBatchSeededCtx is SampleBatchSeeded under a context (see
// SampleCtx).
func (s *Service) SampleBatchSeededCtx(ctx context.Context, spec Spec, seed uint64, js []int, dst []int) ([]int, error) {
	e, _, err := s.lookup(ctx, spec, 0)
	if err != nil {
		return nil, err
	}
	if err := checkCounts(js, e.spec.N); err != nil {
		return nil, err
	}
	return e.sampler.SampleMany(rng.New(seed), js, dst), nil
}

// Estimate is the result of decoding a batch of observed noisy releases.
type Estimate struct {
	// MLE holds the maximum-likelihood input for each observed output.
	MLE []int
	// Sum estimates the total of the true counts across the batch; when
	// Unbiased it is the debiasing estimator's sum, with
	// E[Sum] = Σ true counts exactly.
	Sum float64
	// Mean is Sum divided by the batch size.
	Mean float64
	// Unbiased reports whether the debiasing estimator existed; for
	// mechanisms with singular matrices (UM) the Sum falls back to the
	// MLE decode and is biased.
	Unbiased bool
}

// Estimate decodes observed outputs (one per released group) under spec
// using the precomputed MLE and debiasing tables.
func (s *Service) Estimate(spec Spec, outputs []int) (*Estimate, error) {
	return s.EstimateCtx(context.Background(), spec, outputs)
}

// EstimateCtx is Estimate under a context (see SampleCtx).
func (s *Service) EstimateCtx(ctx context.Context, spec Spec, outputs []int) (*Estimate, error) {
	e, _, err := s.lookup(ctx, spec, 0)
	if err != nil {
		return nil, err
	}
	if err := checkCounts(outputs, e.spec.N); err != nil {
		return nil, err
	}
	est := &Estimate{MLE: make([]int, len(outputs))}
	debias, debiasErr := e.Debias()
	est.Unbiased = debiasErr == nil
	for k, o := range outputs {
		est.MLE[k] = e.MLE(o)
		if est.Unbiased {
			est.Sum += debias[o]
		} else {
			est.Sum += float64(est.MLE[k])
		}
	}
	if len(outputs) > 0 {
		est.Mean = est.Sum / float64(len(outputs))
	}
	return est, nil
}

// checkCounts validates that every value lies in [0, n].
func checkCounts(js []int, n int) error {
	for k, j := range js {
		if j < 0 || j > n {
			return fmt.Errorf("service: count %d at index %d out of range [0, %d]", j, k, n)
		}
	}
	return nil
}

// Stats is a point-in-time snapshot of cache and build-pipeline
// behaviour, summed over shards.
type Stats struct {
	// Entries is the number of mechanisms currently cached.
	Entries int
	// Hits and Misses count cache lookups; a miss admits a build.
	Hits, Misses int64
	// Evictions counts LRU evictions forced by capacity.
	Evictions int64

	// QueueDepth is the number of admitted builds waiting for a worker.
	QueueDepth int
	// InFlight is the number of builds currently executing.
	InFlight int
	// Builds counts builds that completed successfully.
	Builds int64
	// BuildFailures counts builds that settled with a deterministic
	// (non-cancellation) error.
	BuildFailures int64
	// BuildCancels counts builds settled by cancellation: abandoned
	// requests, evictions, and shutdown.
	BuildCancels int64
	// BuildSeconds is the cumulative wall time spent constructing
	// mechanisms, successful or not.
	BuildSeconds float64
	// Sheds counts build admissions refused by the load-shedding gate
	// (see AdmissionConfig).
	Sheds int64
	// InFlightBuildSeconds is the summed elapsed wall time of the builds
	// currently executing — the MaxInFlightSeconds admission signal.
	InFlightBuildSeconds float64

	// StoreHits counts builds served from a stored artifact instead of
	// a solve; StoreMisses counts store reads that fell back to one.
	// Both stay zero when no Store is configured.
	StoreHits, StoreMisses int64
	// StorePutFailures counts write-behind persists that errored;
	// StoreQuarantines counts stored artifacts that failed decode or
	// verification and were moved aside.
	StorePutFailures, StoreQuarantines int64
	// StoreBytesRead and StoreBytesWritten total the artifact bytes
	// exchanged with the store.
	StoreBytesRead, StoreBytesWritten int64
}

// Stats returns current cache and build-pipeline statistics.
func (s *Service) Stats() Stats {
	var st Stats
	for _, sh := range s.shards {
		st.Entries += sh.len()
		st.Hits += sh.hitCount()
		st.Misses += sh.misses.Load()
		st.Evictions += sh.evictions.Load()
	}
	st.QueueDepth = len(s.build.queue)
	st.InFlight = int(s.build.inFlight.Load())
	st.Builds = s.build.builds.Load()
	st.BuildFailures = s.build.failures.Load()
	st.BuildCancels = s.build.cancels.Load()
	st.BuildSeconds = float64(s.build.nanos.Load()) / 1e9
	st.Sheds = s.build.sheds.Load()
	st.InFlightBuildSeconds = s.inFlightSeconds()
	st.StoreHits = s.store.hits.Load()
	st.StoreMisses = s.store.misses.Load()
	st.StorePutFailures = s.store.putFails.Load()
	st.StoreQuarantines = s.store.quarantines.Load()
	st.StoreBytesRead = s.store.bytesRead.Load()
	st.StoreBytesWritten = s.store.bytesWritten.Load()
	return st
}
