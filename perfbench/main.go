// Command perfbench is privcount's end-to-end benchmark. It starts real
// privcountd processes, drives them from this one process, checks every
// answer, and prints the end-to-end metrics of one workload (or, with
// -trace 1, the per-layer metrics of an in-process replay of the
// workloads' inputs). Run it through run.sh from the repository root:
//
//	bash perfbench/run.sh -workload query-stream -seed 1 -seconds 30 -trace 0
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and metrics. -noise k instead runs the workload k
// times on seeds seed..seed+k-1 and prints each end-to-end metric's
// median, quartiles and spread. README.md explains the workloads.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
)

// e2eUnits lists the end-to-end metrics every workload reports, with
// their units; BENCHMARK.json declares the same set.
var e2eUnits = map[string]string{
	"setup_s":              "s",
	"ops_per_s":            "1/s",
	"lat_p50_ms":           "ms",
	"server_cpu_us_per_op": "us",
	"rss_mb":               "MB",
}

// defaultFleetRate is query-fleet's open-loop request rate unless
// -fleet-rate overrides it; BENCHMARK.json passes the same value.
const defaultFleetRate = 80

// runTimeout bounds one run, so a stuck run still ends, with its
// daemons stopped, inside the 180 s a run may take.
const runTimeout = 170 * time.Second

// env is what one run needs from the command line.
type env struct {
	bin       string // privcountd binary
	workdir   string // per-run directory for stores and logs
	seed      uint64
	seconds   float64
	fleetRate float64 // query-fleet's open-loop request rate, 1/s
	traceDir  string  // where traced runs write their spans
	out       *strings.Builder
}

// printf writes one human-readable line of the run's report.
func (e *env) printf(format string, args ...any) {
	fmt.Fprintf(e.out, format+"\n", args...)
}

// report is one workload run's outcome.
type report struct {
	metrics map[string]float64 // end-to-end, keyed as e2eUnits
	layers  layers
	tally   tally
	gate    gate
	ref     e2eRef  // what the traced run's remainder is measured against
	steal   float64 // host steal share during the measured window
}

type layerMetric struct {
	value float64
	unit  string
}

var workloads = map[string]func(context.Context, *env) (*report, error){
	"query-stream": runStream,
	"query-fleet":  runFleet,
	"build-cold":   runBuild,
}

func main() { os.Exit(run()) }

// run is main with an exit code, so deferred clean-up runs on every path.
func run() int {
	var (
		workload  = flag.String("workload", "", "query-stream, query-fleet or build-cold")
		seed      = flag.Uint64("seed", 1, "input seed")
		seconds   = flag.Float64("seconds", 10, "measured seconds per run")
		trace     = flag.Int("trace", 0, "1 = report per-layer metrics from an in-process traced replay")
		noise     = flag.Int("noise", 0, "run the workload this many times on consecutive seeds and report the spread")
		bin       = flag.String("privcountd", "", "privcountd binary")
		workdir   = flag.String("workdir", ".bench_build/run", "directory for daemon stores and logs; traces go beside it")
		fleetRate = flag.Float64("fleet-rate", defaultFleetRate, "query-fleet open-loop request rate per second")
	)
	flag.Parse()
	wl, ok := workloads[*workload]
	if !ok || *bin == "" || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: run.sh -workload query-stream|query-fleet|build-cold -seed N -seconds S -trace 0|1 [-noise k]")
		return 2
	}
	if *workload != "build-cold" {
		if err := pin(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	mk := func(s uint64) (*env, error) {
		dir := filepath.Join(*workdir, fmt.Sprintf("%s-%d-%d", *workload, s, os.Getpid()))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		return &env{bin: *bin, workdir: dir, seed: s, seconds: *seconds, fleetRate: *fleetRate,
			traceDir: filepath.Join(filepath.Dir(*workdir), "traces"), out: &strings.Builder{}}, nil
	}
	if *noise > 0 {
		if err := noiseReport(ctx, *workload, wl, mk, *seed, *noise); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}

	ctx, cancel := context.WithTimeout(ctx, runTimeout)
	defer cancel()
	e, err := mk(*seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(e.workdir)
	var rep *report
	if *trace == 1 {
		rep, err = runTraced(ctx, *workload, wl, e)
	} else {
		rep, err = wl(ctx, e)
	}
	fmt.Print(e.out.String())
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	printTally(os.Stdout, *workload, &rep.tally)
	for _, f := range rep.gate.failures {
		fmt.Println("CHECK FAILED:", f)
	}
	metrics := map[string]any{}
	if *trace == 1 {
		for name, m := range rep.layers {
			metrics[name] = map[string]any{"value": m.value, "unit": m.unit}
		}
	} else {
		for name, unit := range e2eUnits {
			v, ok := rep.metrics[name]
			if !ok && rep.gate.ok() {
				fmt.Fprintf(os.Stderr, "perfbench: workload %s did not measure %s\n", *workload, name)
				return 1
			}
			metrics[name] = map[string]any{"value": v, "unit": unit}
		}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   rep.gate.ok(),
		"attempted": rep.tally.attempted,
		"failed":    rep.tally.failed(),
		"metrics":   metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !rep.gate.ok() || rep.tally.attempted == 0 {
		return 1
	}
	return 0
}

// noiseReport runs one workload k times and prints, per end-to-end
// metric, the median, the quartiles and the interquartile range as a
// share of the median — the evidence behind BENCHMARK.json's bounds.
func noiseReport(ctx context.Context, name string, run func(context.Context, *env) (*report, error),
	mk func(uint64) (*env, error), seed uint64, k int) error {
	vals := map[string][]float64{}
	for i := 0; i < k; i++ {
		e, err := mk(seed + uint64(i))
		if err != nil {
			return err
		}
		rctx, cancel := context.WithTimeout(ctx, runTimeout)
		rep, err := run(rctx, e)
		cancel()
		os.RemoveAll(e.workdir)
		if err != nil {
			return fmt.Errorf("seed %d: %w", e.seed, err)
		}
		if !rep.gate.ok() {
			return fmt.Errorf("seed %d: correctness gate failed: %s", e.seed, strings.Join(rep.gate.failures, "; "))
		}
		for m, v := range rep.metrics {
			vals[m] = append(vals[m], v)
		}
		fmt.Printf("run %d seed %d (host steal %.1f%%):", i+1, e.seed, 100*rep.steal)
		for _, m := range sortedKeys(rep.metrics) {
			fmt.Printf(" %s=%.6g", m, rep.metrics[m])
		}
		fmt.Println()
	}
	fmt.Printf("noise report: workload %s, %d runs\n", name, k)
	fmt.Printf("%-22s %12s %12s %12s %10s\n", "metric", "median", "q1", "q3", "iqr/med")
	for _, m := range sortedKeys(vals) {
		q1, q2, q3 := quartiles(vals[m])
		fmt.Printf("%-22s %12.6g %12.6g %12.6g %9.2f%%\n", m, q2, q1, q3, 100*(q3-q1)/q2)
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
