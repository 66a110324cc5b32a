// Package service is privcount's serving layer: it caches constructed
// mechanisms — which are expensive to build (LP solves, closed-form
// matrices, estimator tables) relative to drawing one noisy count — and
// serves sampling and estimation traffic from many goroutines.
//
// A Service holds a sharded LRU cache keyed by Spec (mechanism kind,
// group size n, privacy level α, property set, objective). First touch
// of a spec admits a build-state entry (pending → building →
// ready/failed) onto a bounded background worker pool; the mechanism and
// its flat per-column alias sampling tables, MLE decode table and
// unbiased (debiasing) estimator are constructed exactly once, off the
// caller's goroutine, and every later request is served from the cache.
// Builds are cancellable end to end: a blocking caller whose context
// dies releases its interest, and a build nobody waits for (and no
// Start/Warmup pinned) is cancelled mid-pivot inside the LP engine,
// leaving the entry failed-but-rebuildable. Start admits without
// waiting (async serving), Status polls build state, Warmup precomputes
// a serving set, and Close drains the pipeline for shutdown.
//
// The hot path — Sample, SampleBatch, Estimate on a ready entry — is
// one lock-free map probe plus one atomic state load, and draws
// randomness from per-shard rng.Pools, so throughput scales with
// GOMAXPROCS.
package service

import (
	"errors"
	"fmt"
	"math"

	"privcount/internal/core"
	"privcount/internal/design"
)

// Kind selects how a Spec's mechanism is constructed.
type Kind uint8

const (
	// KindChoose runs the paper's Figure 5 decision procedure over the
	// requested property set, returning GM, EM or an LP mechanism. It is
	// the zero value and the recommended default.
	KindChoose Kind = iota
	// KindGeometric forces the truncated Geometric mechanism GM.
	KindGeometric
	// KindExplicitFair forces the paper's explicit fair mechanism EM.
	KindExplicitFair
	// KindUniform forces the uniform mechanism UM (ignores Alpha).
	KindUniform
	// KindLP solves the constrained-design LP for the requested property
	// set under the O_{p,Σ} objective with exponent ObjectiveP.
	KindLP
	// KindLPMinimax solves the same LP under the worst-input objective
	// O_{p,max} of Definition 3.
	KindLPMinimax

	// kindCount bounds the enum, sizing per-kind counter arrays.
	kindCount = int(iota)
)

var kindNames = map[Kind]string{
	KindChoose:       "choose",
	KindGeometric:    "gm",
	KindExplicitFair: "em",
	KindUniform:      "um",
	KindLP:           "lp",
	KindLPMinimax:    "lp-minimax",
}

// String renders the kind as its wire name ("choose", "gm", "em", "um",
// "lp", "lp-minimax").
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// ParseKind parses a wire name as produced by Kind.String. The empty
// string parses as KindChoose.
func ParseKind(s string) (Kind, error) {
	if s == "" {
		return KindChoose, nil
	}
	for k, name := range kindNames {
		if s == name {
			return k, nil
		}
	}
	return 0, fmt.Errorf("service: unknown mechanism kind %q (want choose, gm, em, um, lp, or lp-minimax)", s)
}

// Spec identifies one servable mechanism scenario; it is the cache key.
// The zero Props and ObjectiveP are meaningful (no constraints, the L0
// objective), so the only required fields are N and — except for
// KindUniform — Alpha.
type Spec struct {
	// Kind selects the construction; the zero value is KindChoose.
	Kind Kind
	// N is the group size; inputs and outputs range over {0, …, N}.
	N int
	// Alpha is the paper's privacy level α = e^−ε in (0, 1). Ignored by
	// KindUniform.
	Alpha float64
	// Props is the requested §IV-A property set. Ignored by KindGeometric,
	// KindExplicitFair and KindUniform.
	Props core.PropertySet
	// ObjectiveP is the O_{p,Σ} exponent for the LP kinds (0 = the
	// paper's L0 wrong-answer probability). Ignored by other kinds.
	ObjectiveP float64
}

// MaxN bounds the group size a Service will build. A mechanism and its
// serving tables are dense over (N+1)² cells — roughly 40(N+1)² bytes —
// so without a ceiling a single request for a huge N could exhaust the
// process's memory before the cache ever gets to evict it.
const MaxN = 4096

// MaxLPN bounds the group size for specs whose construction solves a
// constrained-design LP (kinds lp and lp-minimax, plus the choose
// branches that the Figure 5 flowchart routes to an LP). What makes
// n=1024 admissible is the band-reduced solve path: for the WM-shaped
// designs the optimum equals the truncated geometric mechanism outside
// two boundary bands of α-dependent, n-independent depth, so the design
// layer fixes the interior and solves an O(d·n)-variable boundary LP —
// ~3 s at n=1024, α=0.9 — falling back to the full LP only for shapes
// outside the band family (which stay slower, but builds run async off
// the request path with cancellation, so the bound caps how much CPU
// one admission can pin on a build worker rather than an HTTP write
// deadline). Closed-form kinds (gm, em, um, and the choose branches
// they serve) are unaffected and go up to MaxN.
const MaxLPN = 1024

// MaxLPMinimaxN bounds kind lp-minimax separately: the epigraph LP of
// Definition 3 has no geometric-vertex crash basis (its optimum spreads
// duals across every worst-case column), so no warm or crash start
// exists and every solve runs cold. A cold simplex drowns in the
// epigraph's degenerate pivots (tens of minutes approaching n=128),
// which is why minimax builds route to the interior point engine: its
// iteration count is indifferent to vertex degeneracy, and it solves
// the epigraph LP in ~1.4 s at n=128 and ~10 s at n=256. The bound
// sits at the largest size an IPM epigraph solve finishes in a
// background-tolerable window (builds are async with cancellation).
const MaxLPMinimaxN = 256

// Validation failure classes. Every Validate error wraps exactly one of
// them, so callers (the HTTP error taxonomy in particular) can classify
// with errors.Is instead of string matching.
var (
	// ErrSpecInvalid marks specs that are malformed in themselves: an
	// unknown kind, an alpha outside (0, 1), unknown property bits, a
	// negative objective exponent.
	ErrSpecInvalid = errors.New("service: invalid spec")
	// ErrOverLimit marks specs that are well-formed but exceed a serving
	// admission bound (MaxN, MaxLPN, MaxLPMinimaxN). The request might be
	// servable by a deployment with different limits; it is refused here.
	ErrOverLimit = errors.New("service: spec exceeds serving limits")
)

// Validate reports whether the spec describes a servable scenario.
// Group-size ceilings come from the kind's declared CostEnvelope (see
// envelope.go), so admission can never desync from the declarations the
// costtest harness enforces.
func (s Spec) Validate() error {
	if _, ok := kindNames[s.Kind]; !ok {
		return fmt.Errorf("%w: invalid kind %d", ErrSpecInvalid, s.Kind)
	}
	if s.N < 1 {
		return fmt.Errorf("%w: group size n=%d, want >= 1", ErrSpecInvalid, s.N)
	}
	env := EnvelopeFor(s.Kind)
	if s.N > env.MaxN {
		return fmt.Errorf("%w: group size n=%d exceeds kind %s's cost envelope, want n <= %d", ErrOverLimit, s.N, s.Kind, env.MaxN)
	}
	if s.Kind != KindUniform {
		if !(s.Alpha > 0 && s.Alpha < 1) || math.IsNaN(s.Alpha) {
			return fmt.Errorf("%w: alpha=%v, want in (0, 1)", ErrSpecInvalid, s.Alpha)
		}
	}
	if s.Props&^(core.AllProperties|core.OutputDP) != 0 {
		return fmt.Errorf("%w: unknown property bits in %#x", ErrSpecInvalid, uint(s.Props))
	}
	if s.Kind == KindChoose && s.Props&core.OutputDP != 0 {
		return fmt.Errorf("%w: the Figure 5 procedure does not cover OutputDP; use kind lp", ErrSpecInvalid)
	}
	if max := env.LPBackedMaxN; max != 0 && max < env.MaxN && s.N > max && s.lpBacked() {
		return fmt.Errorf("%w: group size n=%d needs an LP-designed mechanism, over kind %s's cost envelope, want n <= %d", ErrOverLimit, s.N, s.Kind, max)
	}
	if s.ObjectiveP < 0 || math.IsNaN(s.ObjectiveP) {
		return fmt.Errorf("%w: objective exponent p=%v, want >= 0", ErrSpecInvalid, s.ObjectiveP)
	}
	return nil
}

// lpBacked reports whether building this spec solves a design LP. For
// KindChoose it defers to design.IsLPBacked, the predicate maintained
// next to the Figure 5 flowchart itself, so admission can never desync
// from the build path.
func (s Spec) lpBacked() bool {
	switch s.Kind {
	case KindLP, KindLPMinimax:
		return true
	case KindChoose:
		return design.IsLPBacked(s.N, s.Alpha, s.Props)
	}
	return false
}

// Canonical folds equivalent specs onto one identity: fields a kind
// ignores are zeroed, and property sets are closed under the §IV-A
// implications (for KindChoose additionally dropping Symmetry, which
// Theorem 1 grants for free), so e.g. requesting CM and requesting CM+CH
// hit the same cache entry — and, via ID/MarshalText, share one wire
// identity.
func (s Spec) Canonical() Spec {
	switch s.Kind {
	case KindUniform:
		s.Alpha, s.Props, s.ObjectiveP = 0, 0, 0
	case KindGeometric, KindExplicitFair:
		s.Props, s.ObjectiveP = 0, 0
	case KindChoose:
		s.Props = core.Closure(s.Props &^ core.Symmetry)
		s.ObjectiveP = 0
	case KindLP, KindLPMinimax:
		s.Props = core.Closure(s.Props)
	}
	return s
}

// String renders the spec compactly, e.g. "choose(n=64, a=0.5, WH+CM)".
func (s Spec) String() string {
	switch s.Kind {
	case KindUniform:
		return fmt.Sprintf("um(n=%d)", s.N)
	case KindGeometric, KindExplicitFair:
		return fmt.Sprintf("%s(n=%d, a=%g)", s.Kind, s.N, s.Alpha)
	case KindLP, KindLPMinimax:
		return fmt.Sprintf("%s(n=%d, a=%g, %s, p=%g)", s.Kind, s.N, s.Alpha,
			core.PropertySetString(s.Props), s.ObjectiveP)
	default:
		return fmt.Sprintf("%s(n=%d, a=%g, %s)", s.Kind, s.N, s.Alpha,
			core.PropertySetString(s.Props))
	}
}

// hash returns a 64-bit digest of the canonical spec, used only to pick a
// cache shard (entry equality is on the full Spec, so hash collisions
// merely co-locate two specs in one shard). It is a short xor-multiply
// mix — cheap enough for the per-draw hot path.
func (s Spec) hash() uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	mix := func(v uint64) {
		h ^= v
		h *= 0xff51afd7ed558ccd
		h ^= h >> 33
	}
	mix(uint64(s.Kind))
	mix(uint64(s.N))
	mix(math.Float64bits(s.Alpha))
	mix(uint64(s.Props))
	mix(math.Float64bits(s.ObjectiveP))
	return h
}
