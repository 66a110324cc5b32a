package main

import (
	"fmt"
	"math"
	"math/rand/v2"

	"privcount/client"
	"privcount/internal/service"
)

// Every input the daemons see is made here, from the benchmark seed
// alone: the same seed gives the same op sequences, schedules and spec
// streams. Shapes that decide how much work an op is (the mechanism set,
// the op mix, batch sizes, the Zipf skew) are constants, so a seed only
// changes which draws are made, not how heavy the run is.

// newRand returns the generator for one named input stream of a seed;
// streams are independent, so adding one never shifts another.
func newRand(seed uint64, stream string) *rand.Rand {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(stream); i++ {
		h ^= uint64(stream[i])
		h *= 1099511628211
	}
	return rand.New(rand.NewPCG(seed, h))
}

// mustID canonicalises a spec token.
func mustID(token string) string {
	s, err := service.ParseSpec(token)
	if err != nil {
		panic(fmt.Sprintf("benchmark spec %q: %v", token, err))
	}
	return s.ID()
}

// specN returns the group size of a canonical ID.
func specN(id string) int {
	s, err := service.ParseSpec(id)
	if err != nil {
		panic(fmt.Sprintf("benchmark spec %q: %v", id, err))
	}
	return s.N
}

// streamSet is query-stream's warm serving set, hottest first under the
// Zipf draw: closed forms from n=16 to n=1024 and one band-path WM LP.
// The n=1024 member is UM: a forced GM or EM that large spends seconds
// in its debiasing solve, which would make set-up, not serving, the
// bulk of the run.
var streamSet = []string{
	"gm:n=64:a=0.9",
	"choose:n=256:a=0.9:CM",
	"em:n=128:a=0.8",
	"um:n=1024",
	"gm:n=16:a=0.5",
	"em:n=256:a=0.7",
	"gm:n=32:a=0.3",
	"choose:n=192:a=0.3:RH",
}

const (
	streamOps       = 8192 // length of the op cycle each stream replays
	streamBatch     = 256  // counts per batch op
	streamEstimate  = 64   // outputs per estimate op
	streamProbes    = 4    // distinct true counts per mechanism
	streamSeeds     = 16   // seeds shared by the seeded batch ops
	streamSeededDiv = 8    // one batch op in streamSeededDiv is seeded
	zipfS           = 1.2
)

// streamInput is one generated op plus what its answer is checked
// against.
type streamInput struct {
	op   client.Op
	mech int // index into the mechanism set
}

// streamInputs is query-stream's input: the mechanism IDs, each
// mechanism's probe counts, and the op cycle.
type streamInputs struct {
	ids    []string
	probes [][]int
	ops    []streamInput
}

// zipfWeights returns normalised Zipf(s) weights over k ranks.
func zipfWeights(k int, s float64) []float64 {
	w := make([]float64, k)
	var sum float64
	for i := range w {
		w[i] = 1 / math.Pow(float64(i+1), s)
		sum += w[i]
	}
	for i := range w {
		w[i] /= sum
	}
	return w
}

func genStreamInputs(seed uint64) streamInputs {
	r := newRand(seed, "query-stream")
	in := streamInputs{ids: make([]string, len(streamSet)), probes: make([][]int, len(streamSet))}
	for i, tok := range streamSet {
		in.ids[i] = mustID(tok)
		// One probe in each of streamProbes equal strata of [0, n]. A
		// probe's size sets how many bytes its outputs take on the wire, so
		// unstratified probes made some seeds cheaper to serve than others.
		n := specN(in.ids[i])
		for p := 0; p < streamProbes; p++ {
			lo, hi := p*(n+1)/streamProbes, (p+1)*(n+1)/streamProbes
			in.probes[i] = append(in.probes[i], lo+r.IntN(hi-lo))
		}
	}
	seeds := make([]uint64, streamSeeds)
	for i := range seeds {
		seeds[i] = r.Uint64()
	}
	// Exact shares, seeded order: each mechanism gets its Zipf share of
	// the cycle and each op kind its share of every mechanism's ops, so
	// seeds differ in draws and order but not in how much work a cycle is.
	w := zipfWeights(len(in.ids), zipfS)
	in.ops = make([]streamInput, 0, streamOps)
	for m := range in.ids {
		k := int(math.Round(w[m] * streamOps))
		if m == len(in.ids)-1 {
			k = streamOps - len(in.ops)
		}
		id, n, probes := in.ids[m], specN(in.ids[m]), in.probes[m]
		for i := 0; i < k; i++ {
			var op client.Op
			switch u := i % 20; {
			case u < 18:
				counts := make([]int, streamBatch)
				for c := range counts {
					counts[c] = probes[r.IntN(len(probes))]
				}
				op = client.Op{Op: client.OpBatch, ID: id, Counts: counts}
				if i%streamSeededDiv == 0 {
					s := seeds[r.IntN(len(seeds))]
					op.Seed = &s
				}
			case u < 19:
				op = client.Op{Op: client.OpSample, ID: id, Count: probes[r.IntN(len(probes))]}
			default:
				outs := make([]int, streamEstimate)
				for c := range outs {
					outs[c] = r.IntN(n + 1)
				}
				op = client.Op{Op: client.OpEstimate, ID: id, Outputs: outs}
			}
			in.ops = append(in.ops, streamInput{op: op, mech: m})
		}
	}
	r.Shuffle(len(in.ops), func(i, j int) { in.ops[i], in.ops[j] = in.ops[j], in.ops[i] })
	return in
}

// The fleet's warm set is a pool of cheap closed-form specs; which of
// them count as "local" or "remote" to the entry node depends on ring
// ownership, which depends on the loopback ports the daemons got. The
// generated schedule therefore names abstract slots — local slot k,
// remote slot k, cold spec k — and bindSlots maps them onto IDs once the
// ring is known, so the same seed yields the same traffic shape on any
// ports.
var fleetPool = func() []string {
	var ids []string
	for n := 24; n <= 208; n += 8 {
		ids = append(ids, mustID(fmt.Sprintf("gm:n=%d:a=0.8", n)))
		ids = append(ids, mustID(fmt.Sprintf("em:n=%d:a=0.6", n)))
	}
	return ids
}()

const (
	fleetLocalSlots  = 6
	fleetRemoteSlots = 4
	fleetOpsPerReq   = 8
	fleetBatch       = 16 // counts per batch op
	fleetEstimate    = 16 // outputs per estimate op
	fleetRemotePct   = 25 // share of query ops naming a remote slot
	fleetColdPct     = 2  // share of query ops naming a never-seen spec
	fleetGetPct      = 10 // share of requests that are GET /v2/mechanisms/{id}
	fleetSchedule    = 4096
	fleetProbes      = 8 // seeded batches per slot, each sent many times a run
)

// slotRef names a mechanism abstractly: a local slot, a remote slot, or
// the k-th cold spec.
type slotRef struct {
	kind int // slotLocal, slotRemote, slotCold
	k    int
}

const (
	slotLocal = iota
	slotRemote
	slotCold
)

// fleetOp is one query op before its slot is bound to an ID.
type fleetOp struct {
	slot    slotRef
	op      string
	count   int
	counts  []int
	outputs []int
	seed    *uint64
	probe   int // for a seeded batch, which of the fleetProbes it is
}

// fleetReq is one request of the open-loop schedule.
type fleetReq struct {
	get  bool    // GET /v2/mechanisms/{id} on a remote slot
	slot slotRef // for get
	ops  []fleetOp
}

// fleetInputs is query-fleet's input: the request cycle. The k-th cold
// op of cycle c names coldSpecs(seed, ...)[c*coldPerCycle+k].
type fleetInputs struct {
	reqs         []fleetReq
	coldPerCycle int // cold ops in one pass over reqs
}

// coldSpecs returns k distinct closed-form specs with 16 ≤ n ≤ 64, none
// in fleetPool. Kind and n follow a fixed stratified sequence, so every
// seed asks for the same build work; the seed picks each α. Keeping n
// small keeps a cold admission a cache insert, not a build that would
// dominate the request path this workload measures.
func coldSpecs(seed uint64, k int) ([]string, error) {
	if k > maxColdSpecs {
		return nil, fmt.Errorf("%d cold specs asked for, at most %d are drawn", k, maxColdSpecs)
	}
	r := newRand(seed, "query-fleet-cold")
	seen := map[string]bool{}
	for _, id := range fleetPool {
		seen[id] = true
	}
	out := make([]string, 0, k)
	for i := 0; len(out) < k; i++ {
		kind := [2]string{"gm", "em"}[i%2]
		n := 16 + (i/2*29)%49
		for try := 0; try < 64; try++ {
			id := mustID(fmt.Sprintf("%s:n=%d:a=%.2f", kind, n, 0.01*float64(1+r.IntN(98))))
			if !seen[id] {
				seen[id] = true
				out = append(out, id)
				break
			}
		}
	}
	return out, nil
}

// maxColdSpecs keeps the draw well inside the 2·49·98 distinct cold
// specs, so it never searches long for an unused one.
const maxColdSpecs = 4000

func genFleetInputs(seed uint64) fleetInputs {
	r := newRand(seed, "query-fleet")
	// Seeded batches come from a small fixed set of (seed, counts)
	// probes, so every (slot, probe) pair is sent many times in a run,
	// on both connections, and its answers must all be identical.
	type probe struct {
		seed   uint64
		counts []int
	}
	probes := make([]probe, fleetProbes)
	for i := range probes {
		probes[i].seed = r.Uint64()
		probes[i].counts = make([]int, fleetBatch)
		for k := range probes[i].counts {
			probes[i].counts[k] = r.IntN(17)
		}
	}
	in := fleetInputs{reqs: make([]fleetReq, fleetSchedule)}
	cold := 0
	for i := range in.reqs {
		if r.IntN(100) < fleetGetPct {
			in.reqs[i] = fleetReq{get: true, slot: slotRef{slotRemote, r.IntN(fleetRemoteSlots)}}
			continue
		}
		ops := make([]fleetOp, fleetOpsPerReq)
		for j := range ops {
			var ref slotRef
			switch u := r.IntN(100); {
			case u < fleetColdPct:
				ref = slotRef{slotCold, cold}
				cold++
			case u < fleetColdPct+fleetRemotePct:
				ref = slotRef{slotRemote, r.IntN(fleetRemoteSlots)}
			default:
				ref = slotRef{slotLocal, r.IntN(fleetLocalSlots)}
			}
			// Counts and outputs stay within [0, 16], valid for every
			// pool and cold spec.
			op := fleetOp{slot: ref}
			switch u := r.IntN(100); {
			case u < 60 || ref.kind == slotCold:
				op.op = client.OpBatch
				if r.IntN(4) == 0 && ref.kind != slotCold {
					op.probe = r.IntN(fleetProbes)
					op.seed, op.counts = &probes[op.probe].seed, probes[op.probe].counts
					break
				}
				op.counts = make([]int, fleetBatch)
				for k := range op.counts {
					op.counts[k] = r.IntN(17)
				}
			case u < 80:
				op.op, op.count = client.OpSample, r.IntN(17)
			default:
				op.op = client.OpEstimate
				op.outputs = make([]int, fleetEstimate)
				for k := range op.outputs {
					op.outputs[k] = r.IntN(17)
				}
			}
			ops[j] = op
		}
		in.reqs[i] = fleetReq{ops: ops}
	}
	in.coldPerCycle = cold
	return in
}

// bindSlots picks, from fleetPool in order, the first fleetLocalSlots
// IDs the entry node holds and the first fleetRemoteSlots it does not.
func bindSlots(rv ring) (local, remote []string, err error) {
	for _, id := range fleetPool {
		if rv.holds(id) {
			if len(local) < fleetLocalSlots {
				local = append(local, id)
			}
		} else if len(remote) < fleetRemoteSlots {
			remote = append(remote, id)
		}
	}
	if len(local) < fleetLocalSlots || len(remote) < fleetRemoteSlots {
		return nil, nil, fmt.Errorf("ring gives the entry node %d local and %d remote pool specs, need %d and %d",
			len(local), len(remote), fleetLocalSlots, fleetRemoteSlots)
	}
	return local, remote, nil
}

// latticeSpec is one build-cold spec and the design route it takes.
type latticeSpec struct {
	id    string
	route string // band, full_sym, full, minimax
	sweep bool   // part of the α-sweep of one shape
}

// buildLattice is build-cold's fixed spec lattice, in build order. The
// seed does not change it: the build path's cost is the spec, not the
// draw. No entry is more than about a third of the total build time.
var buildLattice = []latticeSpec{
	{id: mustID("choose:n=256:a=0.9:CM"), route: "band"},
	{id: mustID("choose:n=512:a=0.75:CM"), route: "band"},
	{id: mustID("lp:n=128:a=0.85:RM+CM+S:p=0"), route: "full_sym"},
	{id: mustID("lp:n=96:a=0.85:RM+S:p=0"), route: "full_sym", sweep: true},
	{id: mustID("lp:n=96:a=0.9:RM+S:p=0"), route: "full_sym", sweep: true},
	{id: mustID("lp:n=96:a=0.95:RM+S:p=0"), route: "full_sym", sweep: true},
	{id: mustID("lp:n=64:a=0.9:RH+CH+S:p=0"), route: "full_sym"},
	{id: mustID("lp:n=48:a=0.9:WH+CM:p=0"), route: "full"},
	{id: mustID("lp:n=40:a=0.85:CH:p=0"), route: "full"},
	{id: mustID("lp-minimax:n=32:a=0.9:none:p=0"), route: "minimax"},
	{id: mustID("lp-minimax:n=64:a=0.9:none:p=0"), route: "minimax"},
}

// buildChecks is build-cold's seeded verification input: for each
// lattice spec, a batch seed and counts whose answers must be identical
// before and after the restart.
type buildCheck struct {
	seed   uint64
	counts []int
}

func genBuildChecks(seed uint64) []buildCheck {
	r := newRand(seed, "build-cold")
	out := make([]buildCheck, len(buildLattice))
	for i, ls := range buildLattice {
		n := specN(ls.id)
		counts := make([]int, 64)
		for k := range counts {
			counts[k] = r.IntN(n + 1)
		}
		out[i] = buildCheck{seed: r.Uint64(), counts: counts}
	}
	return out
}
