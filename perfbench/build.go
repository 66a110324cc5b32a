package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"privcount/client"
	"privcount/internal/service"
)

// buildMaxCycles caps how many build-and-restart cycles one run makes.
const buildMaxCycles = 10

// buildChiDraws is the size of the unseeded batch drawn per lattice spec
// after the restart, for the chi-square check.
const buildChiDraws = 4096

// buildCycle is one pass of build-cold: a fresh daemon on an empty store
// builds the lattice, is killed, and is restarted on the filled store.
type buildCycle struct {
	specSecs []float64 // PUT→ready per lattice spec
	cpu      float64   // daemon CPU from first PUT to last persist
	rss      float64   // peak RSS of the building daemon
	restarts []float64 // spawn on the filled store → every spec answers, per restart
	spawn    float64   // spawn on the empty store → healthy

	// When each timing above ran, for scaling it to the reference host
	// speed: each spec's PUT→ready, the CPU's span, and each restart.
	specAt    [][2]time.Time
	cpuAt     [2]time.Time
	restartAt [][2]time.Time
}

// scale takes every timing of the cycle to the reference host speed.
func (bc *buildCycle) scale(sp *speeds) {
	for i, at := range bc.specAt {
		bc.specSecs[i] *= sp.over(at[0], at[1])
	}
	bc.cpu *= sp.over(bc.cpuAt[0], bc.cpuAt[1])
	for i, at := range bc.restartAt {
		bc.restarts[i] *= sp.over(at[0], at[1])
	}
}

func runBuild(ctx context.Context, e *env) (*report, error) {
	checks := genBuildChecks(e.seed)
	rep := &report{metrics: map[string]float64{}}
	ids := make([]string, len(buildLattice))
	for i, ls := range buildLattice {
		ids[i] = ls.id
	}
	// The builds are CPU-bound, so their times are taken at the reference
	// host speed (hostspeed.go). The daemon is not pinned here, and
	// neither is the reference kernel; it runs beside the build on
	// whichever core is free.
	probe, err := startSpeedProbe()
	if err != nil {
		return nil, err
	}
	defer probe.stop()
	var cycles []buildCycle
	start := time.Now()
	for len(cycles) < buildMaxCycles && (len(cycles) == 0 || time.Since(start).Seconds() < e.seconds) {
		c, err := buildOnce(ctx, e, len(cycles), ids, checks, rep, len(cycles) == 0)
		if err != nil {
			return nil, err
		}
		cycles = append(cycles, c)
		if !rep.gate.ok() {
			return rep, nil
		}
	}
	runs, err := probe.stop()
	if err != nil {
		return nil, err
	}
	sp, err := newSpeeds(runs)
	if err != nil {
		return nil, err
	}
	rawBuildS := median(mapCycles(cycles, func(c buildCycle) float64 { return sum(c.specSecs) }))
	for i := range cycles {
		cycles[i].scale(sp)
	}
	pick := func(f func(c buildCycle) float64) float64 { return median(mapCycles(cycles, f)) }
	buildS := pick(func(c buildCycle) float64 { return sum(c.specSecs) })
	cpuS := pick(func(c buildCycle) float64 { return c.cpu })
	// setup_s pools every restart of every cycle: each is a short
	// single-shot timing, so the run reports the median of many.
	var all []float64
	for _, c := range cycles {
		all = append(all, c.restarts...)
	}
	restart := median(all)
	n := float64(len(ids))
	rep.metrics["setup_s"] = restart
	rep.metrics["ops_per_s"] = n / buildS
	rep.metrics["lat_p50_ms"] = 1e3 * pick(func(c buildCycle) float64 { return median(c.specSecs) })
	rep.metrics["server_cpu_us_per_op"] = cpuS * 1e6 / n
	rep.metrics["rss_mb"] = pick(func(c buildCycle) float64 { return c.rss })
	// The traced replay's layer times are raw, so the remainder is taken
	// against the raw figure.
	rep.ref = e2eRef{buildS: rawBuildS}

	e.printf("build-cold load: %d cycles of sequential PUT+WaitReady over %d lattice specs, kill, restart on the filled store", len(cycles), len(ids))
	e.printf("build-cold host speed = %.4g of the reference (median of %d kernel runs)", refCostRef/sp.whole, len(runs))
	e.printf("build-cold build_s = %.6g s (median over cycles of the summed PUT→ready time, at reference speed; as measured %.6g s)", buildS, rawBuildS)
	e.printf("build-cold build_cpu_s = %.6g s (daemon CPU through the last async persist, at reference speed)", cpuS)
	e.printf("build-cold restart_ready_s = %.6g s (= setup_s: spawn on the filled store → every spec answers from it; median of %d restarts, at reference speed)", restart, len(all))
	e.printf("build-cold spawn_s = %.6g s (spawn on an empty store → healthy)", pick(func(c buildCycle) float64 { return c.spawn }))
	e.printf("build-cold ops_per_s = %.6g 1/s (lattice specs built per second of build_s)", n/buildS)
	e.printf("build-cold lat_p50_ms = %.6g ms (median PUT→ready of one spec, n=%d; %d samples support no tail percentile)",
		rep.metrics["lat_p50_ms"], len(ids), len(ids))
	e.printf("build-cold server_cpu_us_per_op = %.6g us (build_cpu_s per lattice spec)", cpuS*1e6/n)
	e.printf("build-cold rss_mb = %.6g MB", rep.metrics["rss_mb"])
	last := cycles[len(cycles)-1]
	for i, ls := range buildLattice {
		e.printf("build-cold   %-32s %-8s %.4f s at reference speed", ls.id, ls.route, last.specSecs[i])
	}
	return rep, nil
}

func mapCycles(cycles []buildCycle, f func(c buildCycle) float64) []float64 {
	xs := make([]float64, len(cycles))
	for i, c := range cycles {
		xs[i] = f(c)
	}
	return xs
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// buildOnce runs one build-and-restart cycle. The first cycle also
// draws unseeded batches after the restart for the chi-square check.
func buildOnce(ctx context.Context, e *env, cycle int, ids []string, checks []buildCheck, rep *report, chi bool) (buildCycle, error) {
	var bc buildCycle
	var fl daemonSet
	defer fl.stopAll()
	storeDir := filepath.Join(e.workdir, fmt.Sprintf("build-%d-store", cycle))
	if err := os.MkdirAll(storeDir, 0o755); err != nil {
		return bc, err
	}
	addrs, err := freeAddrs(1)
	if err != nil {
		return bc, err
	}
	flags := []string{"-store-dir", storeDir, "-seed", fmt.Sprint(e.seed)}
	t0 := time.Now()
	d, err := startDaemon(e.bin, addrs[0], filepath.Join(e.workdir, fmt.Sprintf("build-%d.log", cycle)), flags...)
	if err != nil {
		return bc, err
	}
	fl.add(d)
	bc.spawn = time.Since(t0).Seconds()
	c := newSDK(d.url, 1)
	cpu0, err := d.cpuSeconds()
	if err != nil {
		return bc, err
	}
	bc.cpuAt[0] = time.Now()
	for _, id := range ids {
		at := time.Now()
		secs, err := admit(ctx, c, []string{id})
		if err != nil {
			rep.tally.attempted++
			rep.tally.fail(errCode(err))
			return bc, err
		}
		rep.tally.attempted++
		bc.specSecs = append(bc.specSecs, secs[0])
		bc.specAt = append(bc.specAt, [2]time.Time{at, time.Now()})
	}
	if err := waitStored(ctx, storeDir, len(ids)); err != nil {
		return bc, err
	}
	cpu1, err := d.cpuSeconds()
	if err != nil {
		return bc, err
	}
	bc.cpuAt[1] = time.Now()
	bc.cpu = cpu1 - cpu0
	if bc.rss, err = d.peakRSSMB(); err != nil {
		return bc, err
	}
	certs := certifyAll(ctx, c, ids, &rep.gate)
	before, err := seededAnswers(ctx, c, ids, checks)
	if err != nil {
		return bc, err
	}
	d.kill()

	for r := 0; r < restartReps; r++ {
		at := time.Now()
		secs, err := restartOnce(ctx, e, addrs[0], flags, fmt.Sprintf("build-%d-restart-%d.log", cycle, r),
			ids, checks, before, certs, rep, chi && r == 0)
		if err != nil {
			return bc, err
		}
		bc.restarts = append(bc.restarts, secs)
		bc.restartAt = append(bc.restartAt, [2]time.Time{at, time.Now()})
	}
	return bc, nil
}

// restartReps is how many times each cycle restarts on the filled store.
const restartReps = 7

// restartOnce starts a daemon on the filled store and times it until
// every lattice spec has answered its seeded batch, which must equal the
// answer from before the kill. The daemon is killed afterwards.
func restartOnce(ctx context.Context, e *env, addr string, flags []string, logName string, ids []string,
	checks []buildCheck, before [][]int, certs map[string]*certified, rep *report, chi bool) (float64, error) {
	t0 := time.Now()
	d, err := startDaemon(e.bin, addr, filepath.Join(e.workdir, logName), flags...)
	if err != nil {
		return 0, err
	}
	defer d.kill()
	c := newSDK(d.url, 1)
	after, err := seededAnswers(ctx, c, ids, checks)
	if err != nil {
		return 0, err
	}
	secs := time.Since(t0).Seconds()
	for i, id := range ids {
		if !sameInts(before[i], after[i]) {
			rep.gate.failf("%s: seeded batch differs after the restart", id)
		}
	}
	var st struct {
		StoreHits   int64 `json:"store_hits"`
		StoreMisses int64 `json:"store_misses"`
	}
	if err := getJSON(ctx, d.url+"/v2/stats", &st); err != nil {
		return 0, err
	}
	if st.StoreHits != int64(len(ids)) || st.StoreMisses != 0 {
		rep.gate.failf("restart served %d specs from the store with %d misses, want %d and 0", st.StoreHits, st.StoreMisses, len(ids))
	}
	if chi {
		if err := buildChiSquare(ctx, c, ids, checks, certs, rep); err != nil {
			return 0, err
		}
	}
	return secs, nil
}

// seededAnswers queries one seeded batch per spec in a single request.
func seededAnswers(ctx context.Context, c *client.Client, ids []string, checks []buildCheck) ([][]int, error) {
	ops := make([]client.Op, len(ids))
	for i, id := range ids {
		s := checks[i].seed
		ops[i] = client.Op{Op: client.OpBatch, ID: id, Counts: checks[i].counts, Seed: &s}
	}
	res, err := c.Query(ctx, ops)
	if err != nil {
		return nil, err
	}
	out := make([][]int, len(ids))
	for i := range res {
		if res[i].Error != nil {
			return nil, fmt.Errorf("seeded batch on %s: %w", ids[i], res[i].Error)
		}
		out[i] = res[i].Outputs
	}
	return out, nil
}

// buildChiSquare draws an unseeded batch at one input per spec and tests
// it against the certified column.
func buildChiSquare(ctx context.Context, c *client.Client, ids []string, checks []buildCheck, certs map[string]*certified, rep *report) error {
	hist := newHistograms()
	ops := make([]client.Op, len(ids))
	for i, id := range ids {
		j := checks[i].counts[0]
		counts := make([]int, buildChiDraws)
		for k := range counts {
			counts[k] = j
		}
		ops[i] = client.Op{Op: client.OpBatch, ID: id, Counts: counts}
	}
	res, err := c.Query(ctx, ops)
	if err != nil {
		return err
	}
	for i, id := range ids {
		rep.tally.attempted++
		if res[i].Error != nil {
			rep.tally.fail(string(res[i].Error.Code))
			continue
		}
		cm := certs[id]
		if cm == nil {
			continue
		}
		if msg := checkResult(cm, &ops[i], &res[i]); msg != "" {
			rep.gate.failf("%s", msg)
			continue
		}
		col := hist.column(id, cm.n, ops[i].Counts[0])
		for _, o := range res[i].Outputs {
			col[o]++
		}
	}
	hist.check(&rep.gate, certs)
	return nil
}

// waitStored waits until the store in dir holds n artifacts: persist is
// write-behind, so a build is ready before its artifact is on disk.
func waitStored(ctx context.Context, dir string, n int) error {
	store, err := service.NewFSStore(dir)
	if err != nil {
		return err
	}
	for {
		got, err := store.List()
		if err != nil {
			return err
		}
		if len(got) >= n {
			return nil
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		time.Sleep(2 * time.Millisecond)
	}
}
