package service

import "fmt"

// This file declares the cost envelope of every mechanism kind: what a
// build of that kind is allowed to spend. The declarations follow the
// startest idiom from canonical/starlark — a builtin declares MemSafe/
// CPUSafe and a test harness enforces the declaration — so an envelope
// is never just documentation: internal/costtest builds a representative
// spec per kind under measurement and fails when a kind exceeds what it
// declared here, and Spec.Validate refuses admission past the declared
// group-size ceilings. Changing a number below without also keeping the
// measured behaviour inside it is a test failure, not a silent drift.

// CostClass is an approximate resource class for one build dimension
// (CPU or memory). Classes are deliberately coarse: the paper's closed
// forms (Lemmas 2–3) are O(n²) table fills plus an O(n³) debias solve,
// the constrained designs run a crash-basis-accelerated simplex, and the
// Definition 3 minimax epigraph LP solves cold. The class picks which
// budget curve internal/costtest holds the kind to.
type CostClass uint8

const (
	// CostTable covers closed-form construction: O(n²) dense table
	// fills (mechanism matrix, alias sampling tables, MLE table) with no
	// iterative solve, plus the debiasing estimator, which is a dense
	// O(n³) elimination on the (n+1)² matrix — the dominant CPU cost at
	// large n until the closed forms get their O(n) structured debias.
	CostTable CostClass = iota
	// CostLP covers LP-backed construction on the bounded-variable
	// revised simplex with presolve and the geometric-vertex crash
	// basis (seconds at the admission ceiling, milliseconds at
	// representative test sizes).
	CostLP
	// CostLPMinimax covers the Definition 3 epigraph LP, which has no
	// crash vertex and solves cold — the most expensive class per
	// admitted n.
	CostLPMinimax
)

// String renders the class for error messages and logs.
func (c CostClass) String() string {
	switch c {
	case CostTable:
		return "table"
	case CostLP:
		return "lp"
	case CostLPMinimax:
		return "lp-minimax"
	default:
		return fmt.Sprintf("CostClass(%d)", uint8(c))
	}
}

// CostEnvelope declares what building and serving one kind may cost.
// Every Kind has exactly one (see EnvelopeFor); admission control
// enforces the group-size ceilings at Validate time and the costtest
// harness enforces the resource classes by measurement.
type CostEnvelope struct {
	// MaxN is the kind's admission ceiling on group size n. Tables are
	// dense over (N+1)² cells, so this is first a memory bound; for the
	// LP kinds it is a build-CPU bound (see the MaxLPN / MaxLPMinimaxN
	// rationale on the constants).
	MaxN int
	// LPBackedMaxN, when non-zero, caps specs whose construction solves
	// a design LP. It only differs from MaxN for KindChoose, where the
	// Figure 5 flowchart routes some property sets to closed forms
	// (admitted to MaxN) and others to an LP (capped here).
	LPBackedMaxN int
	// BuildCPU classes the wall-clock cost of one build.
	BuildCPU CostClass
	// BuildMem classes the allocation cost of one build.
	BuildMem CostClass
	// SampleAllocs is the maximum number of heap allocations one cached
	// Sample draw may perform — the hot-path allocation declaration.
	// The serving tables are precomputed precisely so this can be 0.
	SampleAllocs int
	// ResidentBytesPerCell bounds the live heap a ready entry holds per
	// cell of its (n+1)×(n+1) matrix: the matrix itself (8 B) plus the
	// flat alias tables (8 B probability + 4 B target). The O(n) MLE and
	// debias vectors ride in the slack above those 20 B.
	ResidentBytesPerCell int
}

// tableBytesPerCell is the resident figure every kind declares today:
// they all serve from the same dense matrix and alias tables.
const tableBytesPerCell = 21

// envelopes holds the declared envelope of every kind. The group-size
// ceilings reference the exported Max* constants so their rationale
// (documented on the constants) stays in one place.
var envelopes = map[Kind]CostEnvelope{
	KindChoose: {
		// Choose may land on a closed form (to MaxN) or an LP design
		// (to MaxLPN); its build classes declare the worst case.
		MaxN: MaxN, LPBackedMaxN: MaxLPN,
		BuildCPU: CostLP, BuildMem: CostLP, SampleAllocs: 0,
		ResidentBytesPerCell: tableBytesPerCell,
	},
	KindGeometric: {
		MaxN:     MaxN,
		BuildCPU: CostTable, BuildMem: CostTable, SampleAllocs: 0,
		ResidentBytesPerCell: tableBytesPerCell,
	},
	KindExplicitFair: {
		MaxN:     MaxN,
		BuildCPU: CostTable, BuildMem: CostTable, SampleAllocs: 0,
		ResidentBytesPerCell: tableBytesPerCell,
	},
	KindUniform: {
		MaxN:     MaxN,
		BuildCPU: CostTable, BuildMem: CostTable, SampleAllocs: 0,
		ResidentBytesPerCell: tableBytesPerCell,
	},
	KindLP: {
		MaxN: MaxLPN, LPBackedMaxN: MaxLPN,
		BuildCPU: CostLP, BuildMem: CostLP, SampleAllocs: 0,
		ResidentBytesPerCell: tableBytesPerCell,
	},
	KindLPMinimax: {
		MaxN: MaxLPMinimaxN, LPBackedMaxN: MaxLPMinimaxN,
		BuildCPU: CostLPMinimax, BuildMem: CostLPMinimax, SampleAllocs: 0,
		ResidentBytesPerCell: tableBytesPerCell,
	},
}

// EnvelopeFor returns the declared cost envelope for kind. Unknown
// kinds return a zero-ceiling envelope that admits nothing.
func EnvelopeFor(kind Kind) CostEnvelope {
	return envelopes[kind]
}

// Kinds lists every declared kind in wire-name order, for harnesses
// that must cover the whole envelope table (internal/costtest iterates
// it so a kind added without an envelope fails the build's tests).
func Kinds() []Kind {
	return []Kind{KindChoose, KindGeometric, KindExplicitFair, KindUniform, KindLP, KindLPMinimax}
}
