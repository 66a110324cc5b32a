package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"privcount/internal/core"
	"privcount/internal/design"
	"privcount/internal/lp"
)

// BuildState is one stage of an Entry's lifecycle:
//
//	pending → building → ready
//	                  ↘ failed
//
// Failed entries whose failure was a cancellation (abandoned request,
// eviction, shutdown) are rebuildable: the next interested caller re-arms
// them back to pending. Deterministic build errors stay failed, exactly
// as the old sync.Once path cached them.
type BuildState int32

// Entry build states.
const (
	BuildPending BuildState = iota // admitted, waiting for a worker
	BuildRunning                   // a worker is constructing the mechanism
	BuildReady                     // serving tables populated and immutable
	BuildFailed                    // build errored or was cancelled
)

// String renders the state as its wire name ("pending", "building",
// "ready", "failed").
func (s BuildState) String() string {
	switch s {
	case BuildPending:
		return "pending"
	case BuildRunning:
		return "building"
	case BuildReady:
		return "ready"
	case BuildFailed:
		return "failed"
	default:
		return fmt.Sprintf("BuildState(%d)", int32(s))
	}
}

// BuildInfo is a point-in-time snapshot of one entry's build status.
type BuildInfo struct {
	// Spec is the canonical spec of the entry.
	Spec Spec
	// State is the build state at snapshot time.
	State BuildState
	// Err is the terminal error of the last settled build (nil unless
	// State is BuildFailed).
	Err error
	// BuildSeconds is the wall time of the last settled build attempt
	// (0 while none has finished).
	BuildSeconds float64
}

// Cancellation causes and lookup errors surfaced by the build pipeline.
var (
	// ErrBuildAbandoned cancels a build none of whose waiters remain:
	// every blocking caller's context died and no async admission pinned
	// it. The entry is left failed-rebuildable.
	ErrBuildAbandoned = errors.New("service: build abandoned: no caller is waiting for it")
	// ErrEvicted cancels an in-flight build whose entry was LRU-evicted
	// with no waiters.
	ErrEvicted = errors.New("service: entry evicted while building")
	// ErrClosed fails builds cut short by Service.Close.
	ErrClosed = errors.New("service: service closed")
	// ErrNotAdmitted is returned by Status for specs never admitted (or
	// already evicted).
	ErrNotAdmitted = errors.New("service: spec not admitted")
	// ErrBuildFailed marks deterministic construction failures — an
	// infeasible LP, an iteration-limit abort, a numerically singular
	// estimator. Lookup errors for such builds wrap it (alongside the
	// underlying cause), so transports can classify "the build itself is
	// broken" apart from "the build was cut short and may be retried"
	// (IsRetryable) with errors.Is.
	ErrBuildFailed = errors.New("service: mechanism build failed")
)

// IsRetryable reports whether a build error is cancellation-class: the
// build was cut short (abandoned request, eviction, shutdown, context
// death) rather than deterministically failed, so re-requesting the
// same spec re-arms the build and may well succeed. It is the exported
// face of the rebuildable classification the pipeline itself uses.
func IsRetryable(err error) bool { return rebuildable(err) }

// rebuildable reports whether a failed build may be retried: every
// cancellation-class failure is, deterministic construction errors are
// not (retrying them would re-run an expensive solve just to fail the
// same way).
func rebuildable(err error) bool {
	return errors.Is(err, lp.ErrCanceled) ||
		errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, ErrBuildAbandoned) ||
		errors.Is(err, ErrEvicted) ||
		errors.Is(err, ErrClosed) ||
		errors.Is(err, ErrShed) // the pipeline drains; the same spec is admissible later
}

// buildError is the single point wrapping construction failures for
// callers, so every path reports them identically. Deterministic
// failures additionally match ErrBuildFailed; cancellation-class ones
// keep their sentinels (and IsRetryable).
func buildError(spec Spec, err error) error {
	if err == nil {
		return nil
	}
	if !rebuildable(err) {
		err = &failedBuildError{err}
	}
	return fmt.Errorf("service: building %s: %w", spec, err)
}

// failedBuildError tags a deterministic build failure so it matches
// both ErrBuildFailed and its underlying cause under errors.Is, without
// disturbing the message.
type failedBuildError struct{ err error }

func (e *failedBuildError) Error() string { return e.err.Error() }

func (e *failedBuildError) Unwrap() []error { return []error{ErrBuildFailed, e.err} }

// worker drains the build queue until Close closes it. Long solves are
// interrupted by their entry context (cancelled on abandonment,
// eviction, or shutdown), so draining is prompt even with an LP
// mid-flight.
func (s *Service) worker() {
	defer s.build.wg.Done()
	for e := range s.build.queue {
		s.runBuild(e)
	}
}

// ensureQueued arms the entry's build (re-arming a rebuildable failure)
// and hands it to the worker pool exactly once per pending generation.
// New admissions pass the load-shedding gate first: a shed returns the
// ShedError without touching the entry, which stays exactly as it was
// (ready entries and already-queued builds are never shed — the gate
// only guards adding NEW work to the pipeline).
func (s *Service) ensureQueued(e *Entry) error {
	e.mu.Lock()
	switch BuildState(e.state.Load()) {
	case BuildReady, BuildRunning:
		e.mu.Unlock()
		return nil
	case BuildFailed:
		if !rebuildable(e.buildErr) {
			e.mu.Unlock()
			return nil
		}
		if err := s.admitBuild(); err != nil {
			e.mu.Unlock()
			return err
		}
		e.rearmLocked(s.build.root)
	case BuildPending:
		if e.queued {
			e.mu.Unlock()
			return nil
		}
		if err := s.admitBuild(); err != nil {
			e.mu.Unlock()
			return err
		}
		if e.done == nil {
			e.armLocked(s.build.root)
		}
	}
	e.queued = true
	e.mu.Unlock()
	s.enqueue(e)
	return nil
}

// enqueue sends the entry to the worker pool, failing it outright when
// the service is closed. The read-lock brackets the send so Close can
// sequence itself after every in-flight enqueue before closing the
// channel.
func (s *Service) enqueue(e *Entry) {
	s.build.sendMu.RLock()
	if s.build.closed {
		s.build.sendMu.RUnlock()
		s.failPending(e, ErrClosed)
		return
	}
	s.build.queue <- e
	s.build.sendMu.RUnlock()
}

// failPending settles a not-yet-running entry as failed with the given
// cause (no-op for running builds — their worker settles them — and for
// already-settled entries).
func (s *Service) failPending(e *Entry, cause error) {
	e.mu.Lock()
	if st := BuildState(e.state.Load()); st == BuildPending {
		e.failLocked(cause)
		s.recordCancel(e.spec.Kind)
	}
	e.mu.Unlock()
}

// recordCancel counts one cancellation-class settlement in the
// service-wide and per-kind counters.
func (s *Service) recordCancel(kind Kind) {
	s.build.cancels.Add(1)
	s.build.byKind[kind].cancels.Add(1)
}

// await blocks until the entry settles or ctx dies, holding a waiter
// reference the whole time. When the last waiter of a non-detached build
// gives up, the build itself is cancelled: the solver returns
// lp.ErrCanceled within an iteration and the entry settles
// failed-rebuildable instead of burning a worker for a result nobody
// will read.
func (s *Service) await(ctx context.Context, e *Entry) error {
	e.mu.Lock()
	e.refs++
	e.mu.Unlock()
	defer s.releaseWaiter(e)

	for {
		e.mu.Lock()
		st := BuildState(e.state.Load())
		switch st {
		case BuildReady:
			e.mu.Unlock()
			return nil
		case BuildFailed:
			err := e.buildErr
			e.mu.Unlock()
			// A cancellation that settled while we were waiting (another
			// waiter abandoned it just before we registered, or an
			// eviction raced our admission) is not our failure: we hold a
			// live reference, so re-arm and keep waiting. ErrClosed is
			// terminal — re-queueing after Close just re-fails with it —
			// and our own dead context exits via the select below.
			if rebuildable(err) && !errors.Is(err, ErrClosed) && ctx.Err() == nil {
				if qerr := s.ensureQueued(e); qerr != nil {
					return qerr // re-admission shed; the entry stays rebuildable
				}
				continue
			}
			return err
		}
		done := e.done
		e.mu.Unlock()
		if done == nil {
			// Unarmed pending entry: arm it ourselves via the queue path.
			if qerr := s.ensureQueued(e); qerr != nil {
				return qerr
			}
			continue
		}
		select {
		case <-done:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// releaseWaiter drops one waiter reference, abandoning the build when it
// was the last interest in a non-detached entry.
func (s *Service) releaseWaiter(e *Entry) {
	e.mu.Lock()
	e.refs--
	if e.refs == 0 && !e.detached {
		switch BuildState(e.state.Load()) {
		case BuildRunning:
			if e.cancel != nil {
				e.cancel(ErrBuildAbandoned)
			}
		case BuildPending:
			e.failLocked(ErrBuildAbandoned)
			s.recordCancel(e.spec.Kind)
		}
	}
	e.mu.Unlock()
}

// runBuild executes one entry's build on the calling worker goroutine.
func (s *Service) runBuild(e *Entry) {
	e.mu.Lock()
	if BuildState(e.state.Load()) != BuildPending {
		e.mu.Unlock()
		return // cancelled or re-settled while queued
	}
	ctx := e.ctx
	if err := ctxCause(ctx); err != nil {
		e.failLocked(err)
		s.recordCancel(e.spec.Kind)
		e.mu.Unlock()
		return
	}
	e.state.Store(int32(BuildRunning))
	e.mu.Unlock()

	kc := &s.build.byKind[e.spec.Kind]
	s.build.inFlight.Add(1)
	start := time.Now()
	s.build.startMu.Lock()
	s.build.starts[e] = start
	s.build.startMu.Unlock()
	// Read-through: a stored artifact turns the build into an O(read)
	// load; only a store miss (or a quarantined bad artifact) pays for
	// the solve.
	res, fromStore := s.loadFromStore(e.spec)
	if !fromStore {
		res = buildMechanism(ctx, e.spec)
	}
	dur := time.Since(start)
	s.build.startMu.Lock()
	delete(s.build.starts, e)
	s.build.startMu.Unlock()
	s.build.inFlight.Add(-1)
	s.build.nanos.Add(dur.Nanoseconds())
	kc.nanos.Add(dur.Nanoseconds())

	e.mu.Lock()
	e.buildDur = dur.Seconds()
	if res.err != nil {
		e.failLocked(res.err)
		if rebuildable(res.err) {
			s.build.cancels.Add(1)
			kc.cancels.Add(1)
		} else {
			s.build.failures.Add(1)
			kc.failures.Add(1)
		}
	} else {
		e.installLocked(res.tables)
		if !fromStore {
			// Store loads are not builds: Stats.Builds counts solves, so
			// a warm restart can assert the solver never ran.
			s.build.builds.Add(1)
			kc.builds.Add(1)
		}
	}
	e.mu.Unlock()
	if res.err == nil && !fromStore {
		s.persistAsync(e.spec, res)
	}
}

// ctxCause returns the context's cause if it is cancelled, else nil.
func ctxCause(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	select {
	case <-ctx.Done():
		if c := context.Cause(ctx); c != nil {
			return c
		}
		return ctx.Err()
	default:
		return nil
	}
}

// buildResult carries everything a finished construction hands back to
// the entry: the tables it installs, and the mechanism itself, matrix
// included, for the write-behind persist.
type buildResult struct {
	mech *core.Mechanism
	tables
	err error
}

// closedForm reports whether spec's build runs no LP: forced GM, EM and
// UM, and a choose whose Figure 5 leaf is GM or EM. construct re-derives
// such a mechanism from its spec in O(n²), bit for bit, so its entry
// keeps no matrix.
func closedForm(spec Spec) bool {
	switch spec.Kind {
	case KindGeometric, KindExplicitFair, KindUniform:
		return true
	case KindChoose:
		return !design.IsLPBacked(spec.N, spec.Alpha, spec.Props)
	}
	return false
}

// construct builds spec's mechanism under ctx and reports the rule that
// selected it and the properties it guarantees. Closed forms never
// block; the LP-backed kinds thread ctx all the way into the simplex
// loops, so cancelling it abandons the solve mid-pivot.
func construct(ctx context.Context, spec Spec) (m *core.Mechanism, rule string, props core.PropertySet, err error) {
	switch spec.Kind {
	case KindGeometric:
		m, err = core.Geometric(spec.N, spec.Alpha)
		return m, "forced GM", design.GeometricProps(spec.N, spec.Alpha), err
	case KindExplicitFair:
		m, err = core.ExplicitFair(spec.N, spec.Alpha)
		return m, "forced EM", core.AllProperties, err
	case KindUniform:
		m, err = core.Uniform(spec.N)
		return m, "forced UM", core.AllProperties, err
	case KindChoose:
		ch, err := design.ChooseCtx(ctx, spec.N, spec.Alpha, spec.Props)
		if err != nil {
			return nil, "", 0, err
		}
		return ch.Mechanism, ch.Rule, ch.Props, nil
	case KindLP, KindLPMinimax:
		p := design.Problem{
			N: spec.N, Alpha: spec.Alpha, Props: spec.Props,
			Objective:      design.Objective{P: spec.ObjectiveP},
			ReduceSymmetry: spec.Props&core.Symmetry != 0,
		}
		var r *design.Result
		if spec.Kind == KindLPMinimax {
			rule = "LP minimax design"
			r, err = design.SolveMinimaxCtx(ctx, p)
		} else {
			rule = "LP design"
			r, err = design.SolveCtx(ctx, p)
		}
		if err != nil {
			return nil, "", 0, err
		}
		return r.Mechanism, rule, core.Closure(spec.Props), nil
	}
	return nil, "", 0, fmt.Errorf("service: no construction for kind %v", spec.Kind)
}

// buildMechanism constructs the mechanism for spec and its serving
// tables under ctx.
func buildMechanism(ctx context.Context, spec Spec) buildResult {
	var res buildResult
	m, rule, props, err := construct(ctx, spec)
	if err != nil {
		res.err = err
		return res
	}
	res.mech = m
	res.tables = tables{name: m.Name(), rule: rule, props: props, alpha: m.Alpha(), l0: m.L0()}
	if !closedForm(spec) {
		res.matrix = m
	}
	if res.sampler, res.err = core.NewSampler(m); res.err != nil {
		return res
	}
	res.mle = m.MLETable()
	res.debias, res.debiasErr = m.UnbiasedEstimator()
	return res
}

// Start admits spec and kicks off its build in the background without
// waiting, returning the current build status. The build is detached: it
// runs to completion (or failure) even though no caller blocks on it, so
// async admissions and cache pre-warming survive their originating
// request. (LRU eviction is the one thing that overrides the pin: an
// entry pushed out of the cache mid-build has no reachable result left,
// so its build is cancelled unless a blocking waiter holds it.) Start on
// a ready spec is a cheap status read; Start on a rebuildable failure
// re-queues it. Admitting new build work may be load-shed (see
// AdmissionConfig), in which case the ShedError is returned alongside
// the entry's unchanged status.
func (s *Service) Start(spec Spec) (BuildInfo, error) {
	if err := spec.Validate(); err != nil {
		return BuildInfo{}, err
	}
	spec = spec.Canonical()
	sh := s.shards[spec.hash()&s.mask]
	e := sh.get(spec, 0)
	if e.State() != BuildReady {
		e.mu.Lock()
		e.detached = true
		e.mu.Unlock()
		if err := s.ensureQueued(e); err != nil {
			return e.Info(), err
		}
	}
	return e.Info(), nil
}

// Status reports the build status of spec without admitting it: specs
// never admitted (or since evicted) return ErrNotAdmitted, invalid specs
// their validation error.
func (s *Service) Status(spec Spec) (BuildInfo, error) {
	if err := spec.Validate(); err != nil {
		return BuildInfo{}, err
	}
	spec = spec.Canonical()
	sh := s.shards[spec.hash()&s.mask]
	e := (*sh.entries.Load())[spec]
	if e == nil {
		return BuildInfo{Spec: spec}, ErrNotAdmitted
	}
	return e.Info(), nil
}

// Warmup builds every spec through the background worker pool and
// returns once all of them have settled, joining the individual build
// errors (nil when every spec is ready). Cancelling ctx abandons the
// warmup: builds with no other interest are cancelled and left
// rebuildable. Use it at startup to precompute a serving set before
// opening the listener.
func (s *Service) Warmup(ctx context.Context, specs []Spec) error {
	errs := make([]error, len(specs))
	var wg sync.WaitGroup
	for i, spec := range specs {
		wg.Add(1)
		go func(i int, spec Spec) {
			defer wg.Done()
			if _, err := s.GetCtx(ctx, spec); err != nil {
				errs[i] = err
			}
		}(i, spec)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// Close shuts the build pipeline down: every queued and in-flight build
// is cancelled (settling failed-rebuildable), the workers drain and
// exit, and pending waiters unblock with ErrClosed-class failures. Close
// blocks until the last worker goroutine has returned, so a caller that
// has Close back holds a quiesced service — nothing of the pipeline is
// left running. Serving ready entries keeps working after Close; only
// new builds are refused. Close is idempotent.
func (s *Service) Close() {
	s.build.closeOnce.Do(func() {
		// Cancel first: in-flight solves return within an iteration, so
		// the queue drains promptly even with a big LP mid-build.
		s.build.cancelRoot(ErrClosed)
		s.build.sendMu.Lock()
		s.build.closed = true
		close(s.build.queue)
		s.build.sendMu.Unlock()
		s.build.wg.Wait()
		// Workers are done, so no new write-behind goroutines can
		// start; drain the ones in flight before declaring quiescence.
		s.store.wg.Wait()
		// Settle anything admitted but never handed to a worker so no
		// later waiter can hang on an unarmed entry.
		for _, sh := range s.shards {
			for _, e := range *sh.entries.Load() {
				s.failPending(e, ErrClosed)
			}
		}
	})
}
