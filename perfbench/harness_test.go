package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"

	"privcount/client"
)

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n     int
		q     float64
		ok    bool
		extra int
	}{
		{1000, 0.99, true, 10},
		{999, 0.99, false, 9},
		{1010, 0.99, true, 10},
		{10000, 0.999, true, 10},
		{9999, 0.999, false, 9},
		{20, 0.5, true, 10},
		{11, 0.5, false, 5},
		{0, 0.5, false, 0},
	} {
		if got := beyond(tc.n, tc.q); got != tc.extra {
			t.Errorf("beyond(%d, %g) = %d, want %d", tc.n, tc.q, got, tc.extra)
		}
		if got := supports(tc.n, tc.q); got != tc.ok {
			t.Errorf("supports(%d, %g) = %v, want %v", tc.n, tc.q, got, tc.ok)
		}
	}
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{20000, 0.999, true},
		{5000, 0.99, true},
		{999, 0.95, true},
		{100, 0.9, true},
		{40, 0.75, true},
		{39, 0, false},
		{11, 0, false},
	} {
		q, ok := highestTail(tc.n)
		if ok != tc.ok || q != tc.want {
			t.Errorf("highestTail(%d) = %g, %v; want %g, %v", tc.n, q, ok, tc.want, tc.ok)
		}
	}
	// The reported tail really has tailBeyond samples past it.
	xs := make([]float64, 1234)
	for i := range xs {
		xs[i] = float64(i)
	}
	ls := summarize(xs)
	if math.IsNaN(ls.P99) || ls.N != 1234 {
		t.Fatalf("summarize(1234 samples) does not support p99: %+v", ls)
	}
	var past int
	for _, x := range xs {
		if x > ls.P99 {
			past++
		}
	}
	if past < tailBeyond {
		t.Errorf("p99 of 1234 samples leaves %d beyond, want ≥ %d", past, tailBeyond)
	}
	if few := summarize(xs[:500]); !math.IsNaN(few.P99) {
		t.Errorf("500 samples reported a p99: %+v", few)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q2 != 4 || q3 != 12 {
		t.Errorf("quartiles(1,2,4,8,16) = %g %g %g, want 1.5 4 12", q1, q2, q3)
	}
}

func TestOpenLoopSchedule(t *testing.T) {
	start := time.Unix(1000, 0)
	s := schedule{start: start, rate: 120}
	if got := s.count(10 * time.Second); got != 1200 {
		t.Errorf("count(10s) at 120/s = %d, want 1200", got)
	}
	if got := s.count(1500 * time.Millisecond); got != 180 {
		t.Errorf("count(1.5s) at 120/s = %d, want 180", got)
	}
	// Due times depend only on the index: evenly spaced from the start,
	// whatever earlier requests did.
	for _, i := range []int64{0, 1, 119, 120, 1199} {
		want := start.Add(time.Duration(i) * time.Second / 120)
		if d := s.due(i).Sub(want); d < -time.Microsecond || d > time.Microsecond {
			t.Errorf("due(%d) off by %v", i, d)
		}
	}
	if gap := s.due(121).Sub(s.due(120)); gap < 8333*time.Microsecond || gap > 8334*time.Microsecond {
		t.Errorf("gap between requests = %v, want 1/120 s", gap)
	}
}

func TestSlotBindingFollowsOwnershipOnAnyPorts(t *testing.T) {
	in := genFleetInputs(5)
	var remoteOps, queryOps int
	for _, r := range in.reqs {
		for _, op := range r.ops {
			queryOps++
			if op.slot.kind == slotRemote {
				remoteOps++
			}
		}
	}
	bound := map[string]bool{}
	for p := 0; p < 40; p++ {
		var urls []string
		for i := 0; i < fleetNodes; i++ {
			urls = append(urls, fmt.Sprintf("http://127.0.0.1:%d", 30000+p*7+i*1013))
		}
		rv, err := newRing(urls, urls[p%fleetNodes])
		if err != nil {
			t.Fatal(err)
		}
		local, remote, err := bindSlots(rv)
		if err != nil {
			t.Fatalf("ports %v: %v", urls, err)
		}
		if len(local) != fleetLocalSlots || len(remote) != fleetRemoteSlots {
			t.Fatalf("ports %v: %d local, %d remote", urls, len(local), len(remote))
		}
		for _, id := range local {
			if !rv.holds(id) {
				t.Errorf("ports %v: local slot %s is not held by the entry node", urls, id)
			}
		}
		for _, id := range remote {
			if rv.holds(id) {
				t.Errorf("ports %v: remote slot %s is held by the entry node", urls, id)
			}
			if len(rv.holders(id)) != fleetReplication {
				t.Errorf("ports %v: %s has %d holders", urls, id, len(rv.holders(id)))
			}
		}
		again, _, _ := bindSlots(rv)
		if !reflect.DeepEqual(again, local) {
			t.Errorf("ports %v: binding is not deterministic", urls)
		}
		bound[remote[0]] = true
	}
	// Different ports bind different IDs; the forwarded share of the
	// traffic is fixed by the slots, not by the ports.
	if len(bound) < 2 {
		t.Errorf("40 port sets all bound the same remote ID; the test does not vary ownership")
	}
	if share := float64(remoteOps) / float64(queryOps); share < 0.2 || share > 0.3 {
		t.Errorf("remote share of query ops = %.3f, want about %d%%", share, fleetRemotePct)
	}
}

// A run of BENCHMARK.json's length sends each seeded (slot, probe) batch
// many times on both connections, so the repeat and cross-connection
// checks compare real answers. Workers take requests in turn; here the
// even requests stand for one connection and the odd ones for the other.
func TestSeededBatchesRepeatOnBothConnections(t *testing.T) {
	const runSeconds = 20
	for _, seed := range []uint64{1, 101, 110} {
		in := genFleetInputs(seed)
		n := schedule{rate: defaultFleetRate}.count(warmup + runSeconds*time.Second)
		type key struct {
			slot  slotRef
			probe int
		}
		var conn [2]map[key]int
		conn[0], conn[1] = map[key]int{}, map[key]int{}
		for i := int64(0); i < n; i++ {
			for _, op := range in.reqs[i%int64(len(in.reqs))].ops {
				if op.seed != nil {
					conn[i%2][key{op.slot, op.probe}]++
				}
			}
		}
		keys := fleetProbes * (fleetLocalSlots + fleetRemoteSlots)
		for c := range conn {
			if len(conn[c]) != keys {
				t.Errorf("seed %d: connection %d sent %d of the %d seeded pairs", seed, c, len(conn[c]), keys)
			}
		}
		for k, times := range conn[0] {
			if times+conn[1][k] < 3 {
				t.Errorf("seed %d: %v sent only %d times", seed, k, times+conn[1][k])
			}
		}
	}
}

func TestInputsArePureFunctionsOfTheSeed(t *testing.T) {
	if !reflect.DeepEqual(genStreamInputs(9), genStreamInputs(9)) {
		t.Error("genStreamInputs(9) differs between calls")
	}
	if !reflect.DeepEqual(genFleetInputs(9), genFleetInputs(9)) {
		t.Error("genFleetInputs(9) differs between calls")
	}
	c1, _ := coldSpecs(9, 500)
	c2, _ := coldSpecs(9, 500)
	c3, _ := coldSpecs(10, 500)
	if !reflect.DeepEqual(c1, c2) {
		t.Error("coldSpecs(9) differs between calls")
	}
	if !reflect.DeepEqual(genBuildChecks(9), genBuildChecks(9)) {
		t.Error("genBuildChecks(9) differs between calls")
	}
	if reflect.DeepEqual(genStreamInputs(9).ops, genStreamInputs(10).ops) {
		t.Error("seeds 9 and 10 give the same query-stream ops")
	}
	if reflect.DeepEqual(c1, c3) {
		t.Error("seeds 9 and 10 give the same cold specs")
	}
	// The seed changes draws, not how much work a cycle is: every seed
	// gives each mechanism and op kind the same number of ops.
	shape := func(seed uint64) map[string]int {
		m := map[string]int{}
		for _, op := range genStreamInputs(seed).ops {
			m[op.op.ID+"/"+op.op.Op]++
		}
		return m
	}
	if a, b := shape(9), shape(10); !reflect.DeepEqual(a, b) {
		t.Errorf("op mix differs between seeds:\n%v\n%v", a, b)
	}
	cold, err := coldSpecs(3, maxColdSpecs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := coldSpecs(3, maxColdSpecs+1); err == nil {
		t.Error("coldSpecs drew more than maxColdSpecs")
	}
	seen := map[string]bool{}
	for _, id := range cold {
		if seen[id] {
			t.Fatalf("cold spec %s drawn twice", id)
		}
		seen[id] = true
		if n := specN(id); n < 16 || n > 64 {
			t.Fatalf("cold spec %s outside 16 ≤ n ≤ 64", id)
		}
	}
	for _, id := range fleetPool {
		if seen[id] {
			t.Fatalf("cold spec %s is in the warm pool", id)
		}
	}
}

func TestChiSquare(t *testing.T) {
	if q := gammaQ(1, 2); math.Abs(q-math.Exp(-2)) > 1e-12 {
		t.Errorf("gammaQ(1, 2) = %g, want e^-2", q)
	}
	if q := gammaQ(3, 20); math.Abs(q-math.Exp(-20)*(1+20+200)) > 1e-15 {
		t.Errorf("gammaQ(3, 20) = %g", q)
	}
	probs := []float64{0.1, 0.2, 0.3, 0.4}
	if p, df := chiSquareP([]int64{100, 200, 300, 400}, probs); p < 0.99 || df != 3 {
		t.Errorf("exact counts: p = %g, df = %d", p, df)
	}
	if p, _ := chiSquareP([]int64{400, 300, 200, 100}, probs); p > 1e-12 {
		t.Errorf("reversed counts: p = %g, want tiny", p)
	}
	// Cells expecting fewer than five draws are pooled.
	if _, df := chiSquareP([]int64{4, 4, 4, 188}, []float64{0.02, 0.02, 0.02, 0.94}); df != 1 {
		t.Errorf("pooled df = %d, want 1", df)
	}
}

func TestCPUSplitIsDisjoint(t *testing.T) {
	for _, tc := range []struct {
		n             int
		daemons, load []int
	}{
		{1, nil, nil},
		{2, []int{0}, []int{1}},
		{3, []int{0, 1}, []int{2}},
		{4, []int{0, 1}, []int{2, 3}},
	} {
		d, l := splitCPUs(tc.n)
		if !reflect.DeepEqual(d, tc.daemons) || !reflect.DeepEqual(l, tc.load) {
			t.Errorf("splitCPUs(%d) = %v, %v; want %v, %v", tc.n, d, l, tc.daemons, tc.load)
		}
	}
}

func TestEncodedOpsReadBackAsTheCycle(t *testing.T) {
	in := genStreamInputs(7)
	e, err := encodeOps(in.ops)
	if err != nil {
		t.Fatal(err)
	}
	// A stream that wraps round the end of the cycle, as a long-lived
	// stream does, must read back op for op and then end cleanly.
	var order []int
	for k := len(in.ops) - 3; k < len(in.ops)+5; k++ {
		order = append(order, k%len(in.ops))
	}
	stream := append([]byte(nil), e.magic...)
	for _, k := range order {
		stream = append(stream, e.buf[e.off[k]:e.off[k+1]]...)
	}
	stream = append(stream, e.end...)
	fr := client.NewFrameReader(bytes.NewReader(stream))
	for _, k := range order {
		op, err := fr.ReadOp()
		if err != nil {
			t.Fatalf("op %d: %v", k, err)
		}
		if !reflect.DeepEqual(op, in.ops[k].op) {
			t.Fatalf("op %d read back as %+v, want %+v", k, op, in.ops[k].op)
		}
	}
	if _, err := fr.ReadOp(); err != io.EOF {
		t.Fatalf("after the last op: %v, want io.EOF", err)
	}
}

func TestUnstolenShare(t *testing.T) {
	t0 := time.Unix(0, 0)
	cpus := float64(runtime.NumCPU())
	ticks := func(share float64) int64 { return int64(math.Round(share * clockTicks * cpus)) }
	ss := []slice{
		{t: t0},
		{t: t0.Add(time.Second), steal: 0},
		{t: t0.Add(2 * time.Second), steal: ticks(0.25)},
		{t: t0.Add(3 * time.Second), steal: ticks(0.25) + ticks(2)}, // over-read: clamped
	}
	got := unstolen(ss)
	want := []float64{1, 1, 0.75, 0.1}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 0.01 {
			t.Errorf("unstolen share of slice %d = %.3f, want %.3f", i, got[i], want[i])
		}
	}
}

func TestHostSpeedsTakeEachSlicesKernelRuns(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	ss := []slice{{t: at(0)}, {t: at(1000)}, {t: at(2000)}, {t: at(3000)}}
	runs := []speedSample{
		{at(100), refCostRef}, {at(500), refCostRef}, {at(900), 3 * refCostRef}, // slice 1: median 1×
		{at(1100), 2 * refCostRef}, {at(1500), 2 * refCostRef}, // slice 2: 2× the cost
		// slice 3 has no run and takes the median over all five: 2×
	}
	got, err := hostSpeeds(ss, runs)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 1, 0.5, 0.5}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("speed of slice %d = %g, want %g", i, got[i], want[i])
		}
	}
	if _, err := hostSpeeds(ss, nil); err == nil {
		t.Error("hostSpeeds with no kernel runs did not fail")
	}
}

func TestReferenceKernelRuns(t *testing.T) {
	k, err := newRefKernel()
	if err != nil {
		t.Fatal(err)
	}
	defer k.close()
	c, err := k.run()
	if err != nil {
		t.Fatal(err)
	}
	if c <= 0 {
		t.Fatalf("kernel CPU cost = %g ns", c)
	}
}
