package main

import (
	"context"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTicks is USER_HZ, the unit of utime/stime in /proc/<pid>/stat; it
// is 100 on every Linux architecture Go supports.
const clockTicks = 100

// A daemon is one privcountd child process. Its CPU and peak RSS come
// from /proc, so they never include the load generator's own work.
type daemon struct {
	cmd  *exec.Cmd
	url  string
	addr string
	log  *os.File
	done chan struct{} // closed once cmd.Wait has returned
}

// freeAddrs reserves k loopback ports at once and releases them, so
// the daemons can be told their own and their peers' addresses up front.
func freeAddrs(k int) ([]string, error) {
	addrs := make([]string, k)
	ls := make([]net.Listener, 0, k)
	defer func() {
		for _, l := range ls {
			l.Close()
		}
	}()
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("reserving a port: %w", err)
		}
		ls = append(ls, l)
		addrs[i] = l.Addr().String()
	}
	return addrs, nil
}

// startDaemon launches bin listening on addr with the extra flags and
// returns once GET /healthz answers.
func startDaemon(bin, addr, logPath string, flags ...string) (*daemon, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr}, flags...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := startPinned(cmd); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting privcountd: %w", err)
	}
	d := &daemon{cmd: cmd, url: "http://" + addr, addr: addr, log: logf, done: make(chan struct{})}
	go func() {
		cmd.Wait()
		close(d.done)
	}()
	if err := d.waitHealthy(20 * time.Second); err != nil {
		d.kill()
		return nil, err
	}
	return d, nil
}

var healthClient = &http.Client{Timeout: time.Second}

func (d *daemon) waitHealthy(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		select {
		case <-d.done:
			return fmt.Errorf("privcountd on %s exited during start-up (log %s)", d.addr, d.log.Name())
		default:
		}
		resp, err := healthClient.Get(d.url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("privcountd on %s not healthy after %v", d.addr, limit)
}

// procStat returns the fields of /proc/<pid>/stat after the command name.
func (d *daemon) procStat() ([]string, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return nil, err
	}
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return nil, fmt.Errorf("malformed /proc stat for pid %d", d.cmd.Process.Pid)
	}
	return strings.Fields(s[i+1:]), nil
}

// cpuSeconds is the daemon's user+system CPU time so far, all threads.
func (d *daemon) cpuSeconds() (float64, error) {
	f, err := d.procStat()
	if err != nil {
		return 0, err
	}
	// Fields after the name start at stat field 3; utime and stime are
	// fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat for pid %d", d.cmd.Process.Pid)
	}
	u, err1 := strconv.ParseUint(f[11], 10, 64)
	s, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing cpu times for pid %d", d.cmd.Process.Pid)
	}
	return float64(u+s) / clockTicks, nil
}

// peakRSSMB is the daemon's resident-set high-water mark (VmHWM).
func (d *daemon) peakRSSMB() (float64, error) { return d.statusMB("VmHWM:") }

// rssMB is the daemon's current resident set (VmRSS).
func (d *daemon) rssMB() (float64, error) { return d.statusMB("VmRSS:") }

// statusMB reads a kB-valued field of /proc/<pid>/status, in MB.
func (d *daemon) statusMB(field string) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, field); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing %s %q: %w", field, rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s for pid %d", field, d.cmd.Process.Pid)
}

// stop asks the daemon to drain (SIGTERM) and kills it if it has not
// exited within the grace period. It returns once the process is gone.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(15 * time.Second):
		d.kill()
	}
	d.log.Close()
}

// kill ends the daemon at once, as a crash would, and waits for it.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill()
	<-d.done
	d.log.Close()
}

// daemonSet owns every daemon a workload started, so one deferred call
// stops them all on any exit path.
type daemonSet struct{ ds []*daemon }

func (f *daemonSet) add(d *daemon) *daemon { f.ds = append(f.ds, d); return d }

func (f *daemonSet) stopAll() {
	for _, d := range f.ds {
		select {
		case <-d.done:
		default:
			d.stop()
		}
	}
	f.ds = nil
}

// cpuOf sums CPU seconds over the given daemons.
func cpuOf(ds ...*daemon) (float64, error) {
	var sum float64
	for _, d := range ds {
		s, err := d.cpuSeconds()
		if err != nil {
			return 0, err
		}
		sum += s
	}
	return sum, nil
}

// sliceLen is the length of the slices a measured window is cut into.
// Per-slice rates and costs are reported as medians, so a burst of host
// contention shorter than half the window cannot move them.
const sliceLen = time.Second

// slice is one sample at a slice boundary: time, the caller's completed
// op count, summed daemon CPU seconds, summed daemon resident MB, and the
// host's cumulative steal ticks.
type slice struct {
	t     time.Time
	ops   int64
	cpu   float64
	rss   float64
	steal int64
}

// sampleWindow samples from now until end at every slice boundary.
// ops may be nil when the caller counts ops afterwards.
func sampleWindow(ctx context.Context, end time.Time, ops func() int64, ds ...*daemon) ([]slice, error) {
	var out []slice
	for {
		s := slice{t: time.Now()}
		if ops != nil {
			s.ops = ops()
		}
		var err error
		if s.cpu, err = cpuOf(ds...); err != nil {
			return nil, err
		}
		for _, d := range ds {
			r, err := d.rssMB()
			if err != nil {
				return nil, err
			}
			s.rss += r
		}
		s.steal = hostSteal()
		out = append(out, s)
		if !s.t.Before(end) || ctx.Err() != nil {
			return out, ctx.Err()
		}
		next := s.t.Add(sliceLen)
		if next.After(end) {
			next = end
		}
		sleepCtx(ctx, time.Until(next))
	}
}

// hostSteal returns the host's cumulative steal time in clock ticks
// (0 where /proc/stat does not report it).
func hostSteal() int64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, _ := strconv.ParseInt(f[8], 10, 64)
	return v
}

// stealShare is the share of the window's CPU time the hypervisor took.
func stealShare(ss []slice) float64 {
	first, last := ss[0], ss[len(ss)-1]
	cpuTicks := last.t.Sub(first.t).Seconds() * clockTicks * float64(runtime.NumCPU())
	return float64(last.steal-first.steal) / cpuTicks
}

// unstolen returns, for each slice i ≥ 1, the share of the host's CPU
// time between samples i-1 and i that the hypervisor did not steal; the
// first entry is 1.
func unstolen(ss []slice) []float64 {
	out := make([]float64, len(ss))
	out[0] = 1
	for i := 1; i < len(ss); i++ {
		ticks := ss[i].t.Sub(ss[i-1].t).Seconds() * clockTicks * float64(runtime.NumCPU())
		u := 1.0
		if ticks > 0 {
			u -= float64(ss[i].steal-ss[i-1].steal) / ticks
		}
		// Tick counts and wall time are sampled a moment apart, so a
		// slice can read slightly over or under; a share below a tenth
		// would mean the guest barely ran and is clamped there.
		out[i] = math.Min(1, math.Max(0.1, u))
	}
	return out
}

// sliceMedians returns the medians over slices of the op rate (1/s), of
// the CPU per op (µs) and of the resident set (MB), given each slice's
// op count. When unst is not nil, slice i's wall time is scaled by
// unst[i] (see unstolen); when speed is not nil, its rate is taken at
// the reference host speed by dividing by speed[i] and its CPU per op by
// multiplying by it (see hostSpeeds). The resident set is not scaled.
func sliceMedians(ss []slice, opsIn func(i int) int64, unst, speed []float64) (rate, cpuPerOp, rss float64) {
	var rates, cpus, rsss []float64
	for i := 1; i < len(ss); i++ {
		dt := ss[i].t.Sub(ss[i-1].t).Seconds()
		n := opsIn(i)
		if dt < sliceLen.Seconds()/2 || n == 0 {
			continue // a short tail slice
		}
		k := 1.0
		if unst != nil {
			dt *= unst[i]
		}
		if speed != nil {
			k = speed[i]
		}
		rates = append(rates, float64(n)/(dt*k))
		cpus = append(cpus, (ss[i].cpu-ss[i-1].cpu)*1e6/float64(n)*k)
	}
	for _, s := range ss {
		rsss = append(rsss, s.rss)
	}
	return median(rates), median(cpus), median(rsss)
}

// sliceOf returns the index i ≥ 1 of the slice (ss[i-1].t, ss[i].t] that
// holds t, clamped to the first and last slice.
func sliceOf(ss []slice, t time.Time) int {
	i := sort.Search(len(ss), func(i int) bool { return !ss[i].t.Before(t) })
	return min(max(i, 1), len(ss)-1)
}

// sleepCtx sleeps for d or until ctx ends.
func sleepCtx(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}
