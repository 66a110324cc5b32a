// Package privcount implements constrained differentially private
// mechanisms for count queries, reproducing "Constrained Private
// Mechanisms for Count Data" (Cormode, Kulkarni, Srivastava; ICDE 2018).
//
// A group of n individuals each holds one private bit; a trusted
// aggregator releases a noisy version of the bit-sum, constrained to the
// same range {0..n}. A mechanism is an (n+1)×(n+1) column-stochastic
// matrix P with P[i][j] = Pr[output=i | true count=j], required to
// satisfy α-differential privacy: α ≤ P[i][j]/P[i][j±1] ≤ 1/α.
//
// The package provides:
//
//   - the explicit mechanisms of the paper: the truncated Geometric
//     mechanism (NewGeometric), the novel Explicit Fair mechanism
//     (NewExplicitFair), the Uniform mechanism (NewUniform), and the
//     §II-B comparators (randomized response, k-ary randomized response,
//     exponential and truncated-Laplace mechanisms);
//
//   - the seven structural properties of §IV-A (row/column honesty and
//     monotonicity, fairness, weak honesty, symmetry) as checkable and
//     enforceable constraints;
//
//   - LP-based constrained mechanism design (Design, WM) on a built-in
//     simplex solver — any combination of properties, any O_{p,Σ}
//     objective;
//
//   - the Figure 5 decision procedure (Choose) that picks among GM, EM
//     and the two LP behaviours for a requested property set;
//
//   - sampling (NewSampler), estimation (MLE tables, unbiased
//     debiasing), workload generators (Binomial populations, an
//     Adult-census workload), and an experiment harness with error bars;
//
//   - a concurrent serving layer (NewService) that caches constructed
//     mechanisms with precomputed sampling and estimation tables and
//     serves Sample/SampleBatch/Estimate traffic from many goroutines —
//     cmd/privcountd exposes it over HTTP/JSON, with mechanisms named
//     by their canonical spec token (Spec.ID, ParseSpec) and a typed
//     Go SDK in package privcount/client.
//
// # Quick start
//
//	em, err := privcount.NewExplicitFair(8, 0.9) // n=8 people, alpha=0.9
//	if err != nil { ... }
//	sampler, err := privcount.NewSampler(em)
//	noisy := sampler.Sample(privcount.NewRand(1), trueCount)
//
// See examples/ for runnable programs and DESIGN.md for the mapping from
// paper artefacts to code.
package privcount

import (
	"context"

	"privcount/internal/core"
	"privcount/internal/design"
	"privcount/internal/mat"
	"privcount/internal/rng"
	"privcount/internal/service"
)

// Mechanism is a randomized mechanism for count queries over {0..n}: a
// column-stochastic (n+1)×(n+1) probability matrix. See the core
// methods: Prob, SatisfiesDP, L0, Check, Quantile and CDF (inverse-CDF
// draws), Sample (via Sampler), and the estimator helpers.
type Mechanism = core.Mechanism

// Matrix is the dense matrix type underlying mechanisms.
type Matrix = mat.Dense

// Property identifies one structural property from §IV-A of the paper;
// properties combine into a PropertySet bitmask.
type Property = core.Property

// PropertySet is a bitmask of Properties.
type PropertySet = core.PropertySet

// The structural properties of §IV-A, plus the OutputDP extension from
// the paper's concluding remarks.
const (
	// RowHonesty: Pr[i|i] ≥ Pr[i|j] for every output i and input j.
	RowHonesty = core.RowHonesty
	// RowMonotone: row entries fall moving away from the diagonal.
	RowMonotone = core.RowMonotone
	// ColumnHonesty: the truth is the likeliest single output.
	ColumnHonesty = core.ColumnHonesty
	// ColumnMonotone: outputs nearer the truth are likelier.
	ColumnMonotone = core.ColumnMonotone
	// Fairness: the truth probability is the same for every input.
	Fairness = core.Fairness
	// WeakHonesty: the truth is at least as likely as uniform guessing.
	WeakHonesty = core.WeakHonesty
	// Symmetry: Pr[i|j] = Pr[n−i|n−j].
	Symmetry = core.Symmetry
	// OutputDP: the DP ratio bound applied between neighbouring outputs.
	OutputDP = core.OutputDP
)

// AllProperties is the full set of the paper's seven properties.
const AllProperties = core.AllProperties

// NewGeometric returns the truncated Geometric mechanism GM
// (Definition 4): two-sided geometric noise clamped to [0, n]. GM is the
// unique L0-optimal mechanism under the basic DP constraints (Theorem 3)
// but concentrates probability on the extreme outputs.
func NewGeometric(n int, alpha float64) (*Mechanism, error) {
	return core.Geometric(n, alpha)
}

// NewExplicitFair returns the paper's novel explicit fair mechanism EM
// (Eq 16): L0-optimal among mechanisms satisfying all seven structural
// properties (Theorem 4), at a cost only ≈ (n+1)/n times GM's.
func NewExplicitFair(n int, alpha float64) (*Mechanism, error) {
	return core.ExplicitFair(n, alpha)
}

// NewUniform returns the uniform mechanism UM (Definition 5), which
// ignores its input; it is the trivial baseline with rescaled L0 cost 1.
func NewUniform(n int) (*Mechanism, error) {
	return core.Uniform(n)
}

// NewRandomizedResponse returns classic one-bit randomized response — the
// n = 1 case, where it is the unique optimal mechanism.
func NewRandomizedResponse(alpha float64) (*Mechanism, error) {
	return core.RandomizedResponse(alpha)
}

// NewKRR returns Geng et al.'s k-ary randomized response over n+1
// outputs: truth with probability 1/(1+nα), otherwise uniform.
func NewKRR(n int, alpha float64) (*Mechanism, error) {
	return core.KRR(n, alpha)
}

// NewExponential returns the McSherry–Talwar exponential mechanism for
// count queries with the given quality function (nil selects −|i−j|).
func NewExponential(n int, alpha float64, quality func(input, output int) float64) (*Mechanism, error) {
	return core.Exponential(n, alpha, quality)
}

// NewTruncatedLaplace returns the rounded-and-truncated continuous
// Laplace mechanism, the discrete-domain adaptation discussed in §II-B.
func NewTruncatedLaplace(n int, alpha float64) (*Mechanism, error) {
	return core.TruncatedLaplace(n, alpha)
}

// FromMatrix wraps a user-supplied column-stochastic matrix as a
// Mechanism after validation. alpha records the intended privacy level
// (verify with SatisfiesDP). The matrix is copied, so later changes to m
// do not affect the mechanism.
func FromMatrix(name string, n int, alpha float64, m *Matrix) (*Mechanism, error) {
	return core.New(name, n, alpha, m.Clone())
}

// Symmetrize applies Theorem 1: it returns the centro-symmetric average
// ½(M + Mˢ), preserving differential privacy, every §IV-A property, and
// the L0 objective value.
func Symmetrize(m *Mechanism) (*Mechanism, error) {
	return core.Symmetrize(m)
}

// DerivableFromGM applies the Gupte–Sundararajan test: whether the
// mechanism can be obtained from GM by remapping outputs. EM and WM fail
// it for n > 1, certifying they are genuinely new mechanisms.
func DerivableFromGM(m *Mechanism, alpha float64) bool {
	return core.DerivableFromGM(m, alpha, 0)
}

// ParseProperties parses a list like "WH+CM" or "all" into a PropertySet.
func ParseProperties(s string) (PropertySet, error) {
	return core.ParseProperties(s)
}

// PropertySetString renders a PropertySet like "RH+CM+WH".
func PropertySetString(ps PropertySet) string {
	return core.PropertySetString(ps)
}

// ClosureOf expands a property set with everything it implies (RM ⇒ RH,
// CM ⇒ CH, CH ⇒ WH, F∧RH ⇒ CH, F∧CH ⇒ RH).
func ClosureOf(ps PropertySet) PropertySet {
	return core.Closure(ps)
}

// UniformWeights returns the uniform prior over inputs, the paper's
// default objective weighting.
func UniformWeights(n int) []float64 {
	return core.UniformWeights(n)
}

// Objective selects the loss Σ_j w_j Σ_i |i−j|^p·P[i][j] minimised by
// Design; P = 0 selects the paper's L0 (wrong-answer probability).
type Objective = design.Objective

// DesignProblem specifies a constrained mechanism-design instance for
// Design.
type DesignProblem = design.Problem

// DesignResult carries a designed mechanism plus LP diagnostics.
type DesignResult = design.Result

// Design solves the constrained mechanism-design LP of §III/§IV: BASICDP
// plus any property subset, minimising the requested objective. Results
// are exact LP optima from the built-in simplex solver.
func Design(p DesignProblem) (*DesignResult, error) {
	return design.Solve(p)
}

// DesignCtx is Design under a context: the simplex loops check ctx at
// every pivot and factorization boundary, so cancelling it abandons the
// solve within an iteration instead of letting it run to completion.
func DesignCtx(ctx context.Context, p DesignProblem) (*DesignResult, error) {
	return design.SolveCtx(ctx, p)
}

// DesignMinimax solves the same constrained design problem under the
// worst-input objective O_{p,max} of Definition 3 (⊕ = max): it bounds
// the expected penalty of every input rather than the average.
func DesignMinimax(p DesignProblem) (*DesignResult, error) {
	return design.SolveMinimax(p)
}

// DesignMinimaxCtx is DesignMinimax under a context, with the same
// prompt-cancellation guarantee as DesignCtx.
func DesignMinimaxCtx(ctx context.Context, p DesignProblem) (*DesignResult, error) {
	return design.SolveMinimaxCtx(ctx, p)
}

// AlphaFromEpsilon converts the conventional ε privacy parameter to the
// paper's α = exp(−ε).
func AlphaFromEpsilon(eps float64) float64 { return core.AlphaFromEpsilon(eps) }

// EpsilonFromAlpha converts the paper's α back to ε = −ln α.
func EpsilonFromAlpha(alpha float64) float64 { return core.EpsilonFromAlpha(alpha) }

// ComposedAlpha returns the overall privacy level α^k of k independent
// releases of an α-DP mechanism on the same input.
func ComposedAlpha(alpha float64, k int) float64 { return core.ComposedAlpha(alpha, k) }

// SplitAlpha returns the per-release level α^(1/k) whose k-fold
// composition meets an overall budget of α.
func SplitAlpha(alpha float64, k int) float64 { return core.SplitAlpha(alpha, k) }

// WM returns the paper's weakly-honest LP mechanism (weak honesty with
// row and column monotonicity), the intermediate point between GM and EM.
func WM(n int, alpha float64) (*Mechanism, error) {
	return design.WM(n, alpha)
}

// Choice is the outcome of the Figure 5 decision procedure.
type Choice = design.Choice

// Choose implements the paper's Figure 5 flowchart: given a requested
// property set it returns GM, EM, or the appropriate LP mechanism, with
// the decision rule that selected it.
func Choose(n int, alpha float64, props PropertySet) (*Choice, error) {
	return design.Choose(n, alpha, props)
}

// ChooseCtx is Choose under a context: the LP-backed flowchart branches
// cancel their design solve when ctx dies; the closed-form branches
// never block.
func ChooseCtx(ctx context.Context, n int, alpha float64, props PropertySet) (*Choice, error) {
	return design.ChooseCtx(ctx, n, alpha, props)
}

// GeometricL0 is GM's closed-form rescaled L0 score 2α/(1+α).
func GeometricL0(alpha float64) float64 { return core.GeometricL0(alpha) }

// ExplicitFairL0 is EM's closed-form rescaled L0 score (n+1)(1−y)/n.
func ExplicitFairL0(n int, alpha float64) float64 { return core.ExplicitFairL0(n, alpha) }

// Sampler draws mechanism outputs in O(1) per draw via alias tables. It
// holds only the tables; inverse-CDF sampling (Quantile, CDF,
// SampleInverse) is on the Mechanism.
type Sampler = core.Sampler

// NewSampler prepares a sampler for the mechanism.
func NewSampler(m *Mechanism) (*Sampler, error) {
	return core.NewSampler(m)
}

// Source produces the randomness consumed by samplers.
type Source = rng.Source

// Rand is a seeded, reproducible randomness source for experiments.
type Rand = rng.Rand

// NewRand returns a reproducible source for experiments. For releasing
// real data use CryptoSource instead.
func NewRand(seed uint64) *Rand { return rng.New(seed) }

// CryptoSource is a cryptographically secure Source, appropriate when a
// differentially private release must not be predictable.
type CryptoSource = rng.CryptoSource

// Service is the serving layer: a sharded cache of constructed
// mechanisms, each admitted with precomputed sampling and estimation
// tables, serving Sample/SampleBatch/Estimate concurrently. See
// internal/service for the architecture and cmd/privcountd for the HTTP
// front end.
type Service = service.Service

// ServiceConfig tunes a Service; the zero value is usable.
type ServiceConfig = service.Config

// ServiceStats is a snapshot of the mechanism cache's behaviour.
type ServiceStats = service.Stats

// Spec identifies one servable mechanism scenario — the cache key of
// the serving layer and, through its canonical wire token (Spec.ID,
// MarshalText), the resource identity of the v2 HTTP API. Equivalent
// specs — property sets with the same §IV-A closure, fields the kind
// ignores — share one canonical form (Spec.Canonical) and one ID.
type Spec = service.Spec

// ParseSpec parses a canonical mechanism wire token like
// "lp:n=64:a=0.5:RH+RM+CH+CM+WH:p=0" (see Spec.ID for the grammar) into
// its validated, canonical Spec.
func ParseSpec(token string) (Spec, error) {
	return service.ParseSpec(token)
}

// NewSpec assembles and validates a Spec from wire-level strings — the
// same constructor every privcountd transport parses through.
func NewSpec(mechanism string, n int, alpha float64, properties string, objectiveP float64) (Spec, error) {
	return service.NewSpec(mechanism, n, alpha, properties, objectiveP)
}

// Spec and build failure classes, matchable with errors.Is against any
// error the serving layer returns.
var (
	// ErrSpecInvalid marks malformed specs (unknown kind, alpha outside
	// (0,1), unknown properties, negative objective exponent).
	ErrSpecInvalid = service.ErrSpecInvalid
	// ErrOverLimit marks well-formed specs beyond a serving admission
	// bound (service.MaxN, MaxLPN, MaxLPMinimaxN).
	ErrOverLimit = service.ErrOverLimit
	// ErrBuildFailed marks deterministic mechanism-construction
	// failures; retrying the same spec fails the same way.
	ErrBuildFailed = service.ErrBuildFailed
	// ErrNotAdmitted is returned by status lookups for specs never
	// admitted (or since evicted).
	ErrNotAdmitted = service.ErrNotAdmitted
	// ErrNotReady marks an artifact export of a mechanism whose build
	// has not settled yet; retry once it is ready.
	ErrNotReady = service.ErrNotReady
	// ErrArtifactInvalid marks mechanism artifact bytes that fail
	// decoding or re-verification (bad framing, failed checksum, wrong
	// spec, non-stochastic matrix).
	ErrArtifactInvalid = service.ErrArtifactInvalid
)

// IsRetryableBuild reports whether a serving-layer error is
// cancellation-class — the build was cut short (abandoned request,
// eviction, shutdown) rather than deterministically failed — so
// re-requesting the same spec re-arms it.
func IsRetryableBuild(err error) bool { return service.IsRetryable(err) }

// SpecKind selects how a Spec's mechanism is constructed.
type SpecKind = service.Kind

// The supported Spec kinds.
const (
	// SpecChoose runs the Figure 5 decision procedure (the default).
	SpecChoose = service.KindChoose
	// SpecGeometric forces the truncated Geometric mechanism GM.
	SpecGeometric = service.KindGeometric
	// SpecExplicitFair forces the explicit fair mechanism EM.
	SpecExplicitFair = service.KindExplicitFair
	// SpecUniform forces the uniform mechanism UM.
	SpecUniform = service.KindUniform
	// SpecLP solves the constrained-design LP for the requested
	// properties and objective.
	SpecLP = service.KindLP
	// SpecLPMinimax solves the LP under the worst-input objective.
	SpecLPMinimax = service.KindLPMinimax
)

// ServiceEstimate is the decoded result of a batch of observed releases.
type ServiceEstimate = service.Estimate

// BuildState is one stage of a cached mechanism's build lifecycle:
// pending → building → ready/failed. Builds run on the Service's
// bounded background worker pool; see Service.GetCtx, Service.Start,
// Service.Status, Service.Warmup and Service.Close.
type BuildState = service.BuildState

// The mechanism build states.
const (
	// BuildPending: admitted, waiting for a build worker.
	BuildPending = service.BuildPending
	// BuildRunning: a worker is constructing the mechanism.
	BuildRunning = service.BuildRunning
	// BuildReady: serving tables populated and immutable.
	BuildReady = service.BuildReady
	// BuildFailed: the build errored or was cancelled (cancellations are
	// rebuildable on the next interested request).
	BuildFailed = service.BuildFailed
)

// BuildInfo is a snapshot of one cached mechanism's build status.
type BuildInfo = service.BuildInfo

// Store is a persistent mechanism-artifact tier keyed by canonical Spec
// ID. Wire one into ServiceConfig.Store to make builds read-through /
// write-behind persistent: cache misses try a stored artifact before
// solving, successful solves persist asynchronously. See NewFSStore.
type Store = service.Store

// NewFSStore opens (creating if needed) dir as a filesystem mechanism
// store: one file per artifact, atomic-rename writes, corrupt artifacts
// quarantined aside and rebuilt rather than crashing the server.
func NewFSStore(dir string) (Store, error) { return service.NewFSStore(dir) }

// NewService returns a serving layer with the given configuration. Call
// (*Service).Close to drain its background build pool on shutdown.
func NewService(cfg ServiceConfig) *Service {
	return service.New(cfg)
}
