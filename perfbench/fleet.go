package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"privcount/client"
	"privcount/internal/cluster"
	"privcount/internal/service"
)

const (
	fleetNodes        = 3
	fleetReplication  = 2
	fleetSyncInterval = 500 * time.Millisecond
	fleetCapacity     = 64 // small enough that cold specs churn the LRU
	fleetConns        = 2
	fleetSetupReps    = 31 // set-ups per run; setup_s is their median
	// A run whose generator starts more than this share of its requests
	// after the window closed fell behind its schedule; its latencies
	// would describe the generator, not the fleet.
	fleetMaxBacklogShare = 0.01
	fleetMaxLateness     = 50 * time.Millisecond // at the highest supported percentile
)

// ring mirrors the fleet's consistent-hash ring, so the benchmark knows
// which IDs the entry node holds without asking it.
type ring struct {
	r     *cluster.Ring
	entry string
}

// holds reports whether the entry node owns or replicates id.
func (rv ring) holds(id string) bool {
	for _, p := range rv.r.Owners(id, fleetReplication) {
		if p.URL == rv.entry {
			return true
		}
	}
	return false
}

func (rv ring) holders(id string) []string {
	var out []string
	for _, p := range rv.r.Owners(id, fleetReplication) {
		out = append(out, p.URL)
	}
	return out
}

func newRing(urls []string, entry string) (ring, error) {
	peers := make([]cluster.Peer, len(urls))
	for i, u := range urls {
		peers[i] = cluster.Peer{URL: u}
	}
	r, err := cluster.NewRing(peers, 0)
	if err != nil {
		return ring{}, err
	}
	return ring{r: r, entry: entry}, nil
}

// fleetRun is one started fleet with its bound slots.
type fleetRun struct {
	nodes         []*daemon
	urls          []string
	rv            ring
	local, remote []string
}

// warm is the fleet's warm set: every local and remote slot's ID.
func (fr *fleetRun) warm() []string {
	return append(append([]string(nil), fr.local...), fr.remote...)
}

// startFleet spawns three daemons and admits the warm set through the
// entry node. It returns the time from the first spawn until every warm
// mechanism answers ready through the entry node.
func startFleet(ctx context.Context, e *env, rep int) (*fleetRun, *daemonSet, float64, error) {
	fl := &daemonSet{}
	addrs, err := freeAddrs(fleetNodes)
	if err != nil {
		return nil, fl, 0, err
	}
	fr := &fleetRun{}
	stores := make([]string, fleetNodes)
	for i, a := range addrs {
		fr.urls = append(fr.urls, "http://"+a)
		stores[i] = filepath.Join(e.workdir, fmt.Sprintf("fleet-%d-store-%d", rep, i))
		if err := os.MkdirAll(stores[i], 0o755); err != nil {
			return nil, fl, 0, err
		}
	}
	t0 := time.Now()
	for i, a := range addrs {
		d, err := startDaemon(e.bin, a, filepath.Join(e.workdir, fmt.Sprintf("fleet-%d-node-%d.log", rep, i)),
			"-self", fr.urls[i], "-peers", strings.Join(fr.urls, ","),
			"-replication", fmt.Sprint(fleetReplication), "-route-mode", "proxy",
			"-sync-interval", fleetSyncInterval.String(), "-store-dir", stores[i],
			"-capacity", fmt.Sprint(fleetCapacity), "-seed", fmt.Sprint(e.seed+uint64(i)))
		if err != nil {
			return nil, fl, 0, err
		}
		fr.nodes = append(fr.nodes, fl.add(d))
	}
	if fr.rv, err = newRing(fr.urls, fr.urls[0]); err != nil {
		return nil, fl, 0, err
	}
	if fr.local, fr.remote, err = bindSlots(fr.rv); err != nil {
		return nil, fl, 0, err
	}
	if _, err := admit(ctx, newSDK(fr.urls[0], 1), fr.warm()); err != nil {
		return nil, fl, 0, err
	}
	return fr, fl, time.Since(t0).Seconds(), nil
}

// waitSynced returns once each node holds every warm ID the ring gives
// it, that is once warm-sync has copied the warm set to the replicas.
func waitSynced(ctx context.Context, fr *fleetRun) error {
	want := make([]int, fleetNodes)
	for _, id := range fr.warm() {
		for _, h := range fr.rv.holders(id) {
			for i, u := range fr.urls {
				if u == h {
					want[i]++
				}
			}
		}
	}
	for i, u := range fr.urls {
		c := newSDK(u, 1)
		for {
			st, err := c.ClusterStatus(ctx)
			if err != nil {
				return err
			}
			if st.OwnedMechanisms >= want[i] {
				break
			}
			if ctx.Err() != nil {
				return ctx.Err()
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	return nil
}

// schedule is the open loop's timetable: request i is due at
// start + i/rate, whatever happened to earlier requests.
type schedule struct {
	start time.Time
	rate  float64
}

func (s schedule) due(i int64) time.Time {
	return s.start.Add(time.Duration(float64(i) / s.rate * float64(time.Second)))
}

// count returns how many requests fall due in [start, start+d).
func (s schedule) count(d time.Duration) int64 {
	return int64(math.Ceil(d.Seconds() * s.rate))
}

// timerSlack is how early waitUntil stops sleeping and starts yielding:
// a sleeping goroutine wakes up to a few hundred microseconds late, and
// that lateness would be charged to the fleet as latency.
const timerSlack = time.Millisecond

// waitUntil returns at t, sleeping until shortly before and then
// yielding to other goroutines until t passes.
func waitUntil(t time.Time) {
	if d := time.Until(t) - timerSlack; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// reqRecord is one sent request's timing and outcome.
type reqRecord struct {
	sent, done time.Time
	ops        int
	failed     bool
}

// fleetLoad sends requests of the schedule to the entry node and checks
// the answers.
type fleetLoad struct {
	in    *fleetInputs
	fr    *fleetRun
	cold  []string
	entry *client.Client
	certs map[string]*certified
}

// id binds a slot of the schedule's cycle-th pass to a mechanism ID.
func (l *fleetLoad) id(ref slotRef, cycle int) string {
	switch ref.kind {
	case slotLocal:
		return l.fr.local[ref.k]
	case slotRemote:
		return l.fr.remote[ref.k]
	}
	return l.cold[cycle*l.in.coldPerCycle+ref.k]
}

// send sends request i of the schedule on behalf of worker w and checks
// the answer.
func (l *fleetLoad) send(ctx context.Context, w *fleetWorker, i int64) reqRecord {
	k := int(i % int64(len(l.in.reqs)))
	cycle := int(i / int64(len(l.in.reqs)))
	req := &l.in.reqs[k]
	rec := reqRecord{sent: time.Now()}
	if req.get {
		rec.ops = 1
		w.tally.attempted++
		spec, _ := service.ParseSpec(l.id(req.slot, cycle))
		s, err := l.entry.Status(ctx, spec)
		switch {
		case err != nil:
			w.tally.fail(errCode(err))
			rec.failed = true
		case !s.Ready():
			w.tally.fail("not_ready")
			rec.failed = true
		}
		rec.done = time.Now()
		return rec
	}
	ops := make([]client.Op, len(req.ops))
	for j, fo := range req.ops {
		ops[j] = client.Op{Op: fo.op, ID: l.id(fo.slot, cycle), Count: fo.count,
			Counts: fo.counts, Outputs: fo.outputs, Seed: fo.seed}
	}
	rec.ops = len(ops)
	w.tally.attempted += int64(len(ops))
	res, err := l.entry.Query(ctx, ops)
	rec.done = time.Now()
	if err != nil {
		for range ops {
			w.tally.fail(errCode(err))
		}
		rec.failed = true
		return rec
	}
	rec.failed = w.checkQuery(req, ops, res, l.certs)
	return rec
}

// opsDone counts the ops of successful requests completed in [from, to).
func opsDone(recs []reqRecord, from, to time.Time) int64 {
	var n int64
	for i := range recs {
		r := &recs[i]
		if !r.failed && !r.done.IsZero() && !r.done.Before(from) && r.done.Before(to) {
			n += int64(r.ops)
		}
	}
	return n
}

func runFleet(ctx context.Context, e *env) (*report, error) {
	in := genFleetInputs(e.seed)
	rep := &report{metrics: map[string]float64{}, layers: layers{}}
	var fl *daemonSet
	defer func() {
		if fl != nil {
			fl.stopAll()
		}
	}()
	// The fleet's figures are taken at the reference host speed, like
	// query-stream's (hostspeed.go), from the reference kernel run on the
	// daemons' core. The fleet is far from saturation, so time the
	// hypervisor steals is not lost one for one, and it is not scaled out.
	setupProbe, err := startSpeedProbe()
	if err != nil {
		return nil, err
	}
	defer setupProbe.stop()
	var fr *fleetRun
	var spans []time.Time // the start and end of each set-up
	var rawSetups []float64
	for i := 0; i < fleetSetupReps; i++ {
		if fl != nil {
			fl.stopAll()
		}
		var secs float64
		var err error
		spans = append(spans, time.Now())
		fr, fl, secs, err = startFleet(ctx, e, i)
		if err != nil {
			return nil, err
		}
		spans = append(spans, time.Now())
		rawSetups = append(rawSetups, secs)
	}
	setupRuns, err := setupProbe.stop()
	if err != nil {
		return nil, err
	}
	sp, err := newSpeeds(setupRuns)
	if err != nil {
		return nil, err
	}
	var setups []float64
	for i, secs := range rawSetups {
		setups = append(setups, secs*sp.over(spans[2*i], spans[2*i+1]))
	}
	t0 := time.Now()
	if err := waitSynced(ctx, fr); err != nil {
		return nil, err
	}
	warm := fr.warm()
	rep.metrics["setup_s"] = median(setups)
	e.printf("query-fleet setup_s = %.4f s (median of %d: spawn 3 nodes → %d warm mechanisms ready through the entry node, at reference speed; as measured %.4f s)",
		median(setups), len(setups), len(warm), median(rawSetups))
	e.printf("query-fleet warm-sync settled %.4f s after set-up (sync interval %v)", time.Since(t0).Seconds(), fleetSyncInterval)

	certs := map[string]*certified{}
	for _, id := range warm {
		cm, err := certifyFrom(ctx, fr.rv.holders(id), id)
		if err != nil {
			rep.gate.failf("certificate: %v", err)
			continue
		}
		certs[id] = cm
	}
	if !rep.gate.ok() {
		return rep, nil
	}

	sched := schedule{start: time.Now().Add(50 * time.Millisecond), rate: e.fleetRate}
	window := time.Duration(e.seconds * float64(time.Second))
	total := sched.count(warmup + window)
	cycles := int(total/int64(len(in.reqs))) + 1
	cold, err := coldSpecs(e.seed, cycles*in.coldPerCycle)
	if err != nil {
		return nil, fmt.Errorf("fleet rate %.0f/s over %.0f s: %w", e.fleetRate, (warmup + window).Seconds(), err)
	}
	hc := &http.Client{Transport: &http.Transport{MaxConnsPerHost: fleetConns, MaxIdleConnsPerHost: fleetConns, DisableCompression: true}}
	entry, err := client.New(fr.urls[0], client.WithHTTPClient(hc))
	if err != nil {
		return nil, err
	}
	load := &fleetLoad{in: &in, fr: fr, cold: cold, entry: entry, certs: certs}

	recs := make([]reqRecord, total)
	var next atomic.Int64
	ws := make([]*fleetWorker, fleetConns)
	windowStart := sched.start.Add(warmup)
	windowEnd := windowStart.Add(window)
	var wg sync.WaitGroup
	for w := range ws {
		st := &fleetWorker{hist: newHistograms(), seen: map[seededKey][]int{}, cold: map[string]bool{}}
		ws[w] = st
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= total || ctx.Err() != nil {
					return
				}
				waitUntil(sched.due(i))
				if time.Now().After(windowEnd) {
					// Requests still unsent when the window closes are
					// the generator's backlog; they are never sent.
					return
				}
				recs[i] = load.send(ctx, st, i)
			}
		}()
	}
	probe, err := startSpeedProbe()
	if err != nil {
		wg.Wait()
		return nil, err
	}
	sleepCtx(ctx, time.Until(windowStart))
	slices, werr := sampleWindow(ctx, windowEnd, nil, fr.nodes...)
	wg.Wait()
	kernelRuns, perr := probe.stop()
	if werr != nil {
		return nil, werr
	}
	if perr != nil {
		return nil, perr
	}
	speed, err := hostSpeeds(slices, kernelRuns)
	if err != nil {
		return nil, err
	}
	var peak float64
	for _, d := range fr.nodes {
		p, err := d.peakRSSMB()
		if err != nil {
			return nil, err
		}
		peak += p
	}
	if err := fleetLayers(ctx, e, fr, rep); err != nil {
		return nil, err
	}

	// Requests due in the window, timed from when they were due, and
	// scaled by the host's speed in the slice they ended in.
	var lat, rawLat, late []float64
	var ops, backlog, inWin int64
	for i := range recs {
		r := &recs[i]
		due := sched.due(int64(i))
		if due.Before(windowStart) || !due.Before(windowEnd) {
			continue
		}
		inWin++
		if r.sent.IsZero() {
			backlog++
			continue
		}
		late = append(late, float64(r.sent.Sub(due))/1e6)
		if r.failed {
			lat = append(lat, math.Inf(1))
			continue
		}
		l := float64(r.done.Sub(due)) / 1e6
		rawLat = append(rawLat, l)
		lat = append(lat, l*speed[sliceOf(slices, r.done)])
		if !r.done.After(windowEnd) {
			ops += int64(r.ops)
		}
	}
	ls, lateS := summarize(lat), summarize(late)
	e.printf("query-fleet load: open loop at %.0f req/s over %d connections to the entry node, %.1f s measured after %.1f s warm-up",
		e.fleetRate, fleetConns, window.Seconds(), warmup.Seconds())
	e.printf("query-fleet generator lateness: p50 %.3g ms, p%g %.3g ms, max %.3g ms; backlog at window end %d of %d requests; %.6g ops/s completed at the offered rate",
		lateS.P50, 100*lateS.TailQ, lateS.Tail, lateS.Max, backlog, inWin, float64(opsDone(recs, windowStart, windowEnd))/window.Seconds())
	if float64(backlog) > fleetMaxBacklogShare*float64(inWin) || lateS.Tail > float64(fleetMaxLateness/time.Millisecond) {
		return nil, fmt.Errorf("run invalid: the generator fell behind its schedule (backlog %d of %d, p%g lateness %.3g ms); latencies not published",
			backlog, inWin, 100*lateS.TailQ, lateS.Tail)
	}

	hist := newHistograms()
	coldSeen := map[string]bool{}
	var repeats int
	for _, st := range ws {
		rep.tally.merge(&st.tally)
		hist.merge(st.hist)
		repeats += st.repeats
		for _, m := range st.bad {
			rep.gate.failf("%s", m)
		}
		for id := range st.cold {
			coldSeen[id] = true
		}
	}
	shared := 0
	for key, out := range ws[0].seen {
		for _, st := range ws[1:] {
			if prev, ok := st.seen[key]; ok {
				shared++
				if !sameInts(prev, out) {
					rep.gate.failf("%s: seeded probe %d answered differently on two connections", key.id, key.probe)
				}
			}
		}
	}
	tested := hist.check(&rep.gate, certs)
	crossChecked := fleetCrossCheck(ctx, fr, warm, e.seed, &rep.gate)
	coldOK := certifyCold(ctx, entry, sortedKeys(coldSeen), &rep.gate)

	opsIn := func(i int) int64 { return opsDone(recs, slices[i-1].t, slices[i].t) }
	rate, rawCPU, rss := sliceMedians(slices, opsIn, nil, nil)
	_, cpuPerOp, _ := sliceMedians(slices, opsIn, nil, speed)
	first, last := slices[0], slices[len(slices)-1]
	// The open loop's completed rate is its offered rate; what the fleet
	// itself decides is how much CPU those ops cost.
	rep.metrics["ops_per_s"] = 1e6 / cpuPerOp
	rep.metrics["lat_p50_ms"] = ls.P50
	rep.metrics["server_cpu_us_per_op"] = cpuPerOp
	rep.metrics["rss_mb"] = rss
	// The traced replay's layer times are raw, so the remainder is taken
	// against the raw figure.
	rep.ref = e2eRef{meanLatencyMs: meanFinite(rawLat)}
	rep.steal = stealShare(slices)
	e.printf("query-fleet host steal %.1f%% of CPU time in the window", 100*stealShare(slices))
	e.printf("query-fleet ops_per_s = %.6g 1/s (ops completed per second of all three daemons' CPU = 1e6 / server_cpu_us_per_op; the completed rate, %.6g ops/s by slice median, is the offered rate)",
		1e6/cpuPerOp, rate)
	printSpeed(e, "query-fleet", speed, len(kernelRuns))
	e.printf("query-fleet server_cpu_us_per_op = %.6g us (all three daemons, median of slices at reference speed; as measured: median %.6g, window mean %.6g)",
		cpuPerOp, rawCPU, (last.cpu-first.cpu)*1e6/float64(ops))
	e.printf("query-fleet rss_mb = %.6g MB (median summed resident set in the window; summed peaks %.6g)", rss, peak)
	printLatency(e, "query-fleet", ls)
	e.printf("query-fleet lat_p50_ms as measured = %.6g ms (the figure above is at reference speed)", summarize(rawLat).P50)
	e.printf("query-fleet checks: %d warm artifacts certified on every holder, %d cold specs certified, %d columns chi-square tested, %d seeded batches identical on all %d nodes",
		len(certs), coldOK, tested, crossChecked, fleetNodes)
	e.printf("query-fleet checks: %d seeded answers matched an earlier answer to the same (mechanism, probe); %d (mechanism, probe) pairs answered on both connections",
		repeats, shared)
	if repeats == 0 || shared == 0 {
		rep.gate.failf("no seeded batch was repeated (%d repeats, %d pairs on both connections): the repeat check did not run", repeats, shared)
	}
	return rep, nil
}

// fleetLayers reads, right after the open loop, the entry node's
// POST /v2/query route quantiles and every node's warm-sync counters. The traced query-fleet
// run reports them as its httpapi routing and cluster sync figures.
func fleetLayers(ctx context.Context, e *env, fr *fleetRun, rep *report) error {
	var pulls, bytesPulled, rejects int64
	for i, u := range fr.urls {
		p50, p99, err := routeLatency(ctx, u)
		if err != nil {
			return err
		}
		cs, err := newSDK(u, 1).ClusterStatus(ctx)
		if err != nil {
			return err
		}
		e.printf("query-fleet node %d: POST /v2/query route p50 %.3g ms p99 %.3g ms; sync pulls %d bytes %d rejects %d",
			i, p50*1e3, p99*1e3, cs.SyncPulls, cs.SyncBytes, cs.SyncRejects)
		if cs.SyncRejects != 0 {
			rep.gate.failf("node %d rejected %d pulled artifacts", i, cs.SyncRejects)
		}
		if i == 0 {
			rep.layers.set("httpapi.route_p50_ms", "ms", p50*1e3)
			rep.layers.set("httpapi.route_p99_ms", "ms", p99*1e3)
		}
		pulls, bytesPulled, rejects = pulls+cs.SyncPulls, bytesPulled+cs.SyncBytes, rejects+cs.SyncRejects
	}
	rep.layers.set("cluster.sync_pulls", "count", float64(pulls))
	rep.layers.set("cluster.sync_bytes", "B", float64(bytesPulled))
	rep.layers.set("cluster.sync_rejects", "count", float64(rejects))
	return nil
}

// seededKey names a seeded batch by what decides its answer: the
// mechanism and the (seed, counts) probe.
type seededKey struct {
	id    string
	probe int
}

// fleetWorker is one load worker's accounting and check state.
type fleetWorker struct {
	tally   tally
	hist    *histograms
	seen    map[seededKey][]int // first answer of each seeded batch
	repeats int                 // seeded answers compared with an earlier one
	bad     []string
	cold    map[string]bool // cold specs touched, certified after the run
}

func (w *fleetWorker) badf(format string, args ...any) {
	if len(w.bad) < 5 {
		w.bad = append(w.bad, fmt.Sprintf(format, args...))
	}
}

// checkQuery checks the answers to one query request, counts failed
// ops, accumulates unseeded draws, and reports whether any op failed.
func (w *fleetWorker) checkQuery(req *fleetReq, ops []client.Op, res []client.OpResult, certs map[string]*certified) (failed bool) {
	for j := range ops {
		r := &res[j]
		if r.Error != nil {
			w.tally.fail(string(r.Error.Code))
			failed = true
			continue
		}
		fo := &req.ops[j]
		if fo.slot.kind == slotCold {
			w.cold[ops[j].ID] = true
			if msg := checkRange(ops[j].ID, r); msg != "" {
				w.badf("%s", msg)
			}
			continue
		}
		cm := certs[ops[j].ID]
		if msg := checkResult(cm, &ops[j], r); msg != "" {
			w.badf("%s", msg)
			continue
		}
		if fo.op != client.OpBatch {
			continue
		}
		if fo.seed != nil {
			key := seededKey{cm.id, fo.probe}
			if prev, ok := w.seen[key]; !ok {
				w.seen[key] = append([]int(nil), r.Outputs...)
			} else {
				w.repeats++
				if !sameInts(prev, r.Outputs) {
					w.badf("%s: seeded probe %d answered differently on a repeat", cm.id, fo.probe)
				}
			}
			continue
		}
		for c, jv := range fo.counts {
			w.hist.column(cm.id, cm.n, jv)[r.Outputs[c]]++
		}
	}
	return failed
}

// checkRange checks a cold op's outputs against its spec's range; its
// distribution is certified after the run.
func checkRange(id string, r *client.OpResult) string {
	n := specN(id)
	outs := r.Outputs
	if r.Output != nil {
		outs = []int{*r.Output}
	}
	for _, o := range outs {
		if o < 0 || o > n {
			return fmt.Sprintf("%s: output %d out of [0, %d]", id, o, n)
		}
	}
	return ""
}

func meanFinite(xs []float64) float64 {
	var s float64
	var n int
	for _, x := range xs {
		if !math.IsInf(x, 0) {
			s += x
			n++
		}
	}
	return s / float64(n)
}

// rawGet fetches url; routed pins the request to the node it names.
func rawGet(ctx context.Context, url string, routed bool) ([]byte, int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, 0, err
	}
	if routed {
		req.Header.Set(cluster.RoutedHeader, "perfbench")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return b, resp.StatusCode, err
}

// certifyFrom fetches id's artifact from each holder directly and
// certifies it; the holders' copies must be byte-identical.
func certifyFrom(ctx context.Context, holders []string, id string) (*certified, error) {
	var first []byte
	for _, h := range holders {
		b, code, err := rawGet(ctx, h+"/v2/mechanisms/"+id+"/artifact", true)
		if err != nil {
			return nil, err
		}
		if code != http.StatusOK {
			return nil, fmt.Errorf("%s: artifact from %s answered %d", id, h, code)
		}
		if first == nil {
			first = b
		} else if string(first) != string(b) {
			return nil, fmt.Errorf("%s: holders serve different artifacts", id)
		}
	}
	return certifyBytes(id, first)
}

// fleetCrossCheck sends one seeded batch per warm mechanism to every
// node, each pinned to execute locally, and requires identical answers.
func fleetCrossCheck(ctx context.Context, fr *fleetRun, ids []string, seed uint64, g *gate) int {
	r := newRand(seed, "query-fleet-cross")
	same := 0
	for _, id := range ids {
		s := r.Uint64()
		counts := make([]int, 64)
		for i := range counts {
			counts[i] = r.IntN(17)
		}
		body, _ := json.Marshal(client.QueryRequest{Ops: []client.Op{{Op: client.OpBatch, ID: id, Counts: counts, Seed: &s}}})
		var want []int
		ok := true
		for _, u := range fr.urls {
			req, err := http.NewRequestWithContext(ctx, http.MethodPost, u+"/v2/query", strings.NewReader(string(body)))
			if err != nil {
				g.failf("%v", err)
				return same
			}
			req.Header.Set("Content-Type", client.ContentTypeJSON)
			req.Header.Set(cluster.RoutedHeader, "perfbench")
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				g.failf("cross-node check of %s on %s: %v", id, u, err)
				return same
			}
			var qr client.QueryResponse
			err = json.NewDecoder(resp.Body).Decode(&qr)
			resp.Body.Close()
			if err != nil || len(qr.Results) != 1 || qr.Results[0].Error != nil {
				g.failf("cross-node check of %s on %s failed: %v %+v", id, u, err, qr.Results)
				ok = false
				break
			}
			if want == nil {
				want = qr.Results[0].Outputs
			} else if !sameInts(want, qr.Results[0].Outputs) {
				g.failf("%s: seeded batch differs between nodes", id)
				ok = false
				break
			}
		}
		if ok {
			same++
		}
	}
	return same
}

// certifyCold certifies every cold spec the load touched, through the
// entry node. A spec the owner has since evicted is admitted again first
// (it comes back from the owner's store) and then certified.
func certifyCold(ctx context.Context, c *client.Client, ids []string, g *gate) int {
	ok := 0
	for _, id := range ids {
		_, err := certify(ctx, c, id)
		if err != nil {
			if _, err2 := admit(ctx, c, []string{id}); err2 != nil {
				g.failf("cold spec %s: %v; re-admission: %v", id, err, err2)
				continue
			}
			_, err = certify(ctx, c, id)
		}
		if err != nil {
			g.failf("cold spec certificate: %v", err)
			continue
		}
		ok++
	}
	return ok
}

// getJSON decodes the JSON document at url into v.
func getJSON(ctx context.Context, url string, v any) error {
	b, code, err := rawGet(ctx, url, false)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("GET %s answered %d", url, code)
	}
	return json.Unmarshal(b, v)
}

// routeLatency reads the POST /v2/query route quantiles, in seconds,
// from a daemon's /v2/stats.
func routeLatency(ctx context.Context, base string) (p50, p99 float64, err error) {
	var doc struct {
		RouteLatency map[string]map[string]float64 `json:"route_latency"`
	}
	if err := getJSON(ctx, base+"/v2/stats", &doc); err != nil {
		return 0, 0, err
	}
	q := doc.RouteLatency["POST /v2/query"]
	return q["p50"], q["p99"], nil
}
