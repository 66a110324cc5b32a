package main

import (
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The shared host this benchmark runs on changes speed by up to 1.7×
// over minutes: a daemon's CPU per streaming op moved between 9 µs and
// 16 µs from one stretch to the next, and so did its throughput. A
// fixed reference kernel, run on the daemon's core all through the
// measured window, tracks those changes: over three runs whose CPU per op
// differed by 27%, CPU per op divided by the kernel's cost differed by
// 2%. query-stream therefore reports its figures at a reference host
// speed. The kernel is benchmark code and never changes with the program,
// so only the host moves it.
//
// The kernel does the two kinds of work a streaming op costs the daemon:
// table-lookup draws with varint encoding of the results, and system
// calls that move bytes through the kernel.
const (
	refDraws   = 20000 // alias-table draws per kernel run
	refTrips   = 2000  // 2 KiB pipe write+read round trips per kernel run
	refN       = 1024  // the tables' n: refN+1 columns of refN+1 entries
	refPeriod  = 100 * time.Millisecond
	refCostRef = 3.6e6 // ns: the kernel's median cost at the reference speed
)

// refKernel is the reference kernel's state: fixed tables from a fixed
// seed, a result buffer and a pipe.
type refKernel struct {
	cut   []float64
	alias []int32
	rnd   *rand.Rand
	out   []byte
	buf   []byte
	pipe  [2]int
}

func newRefKernel() (*refKernel, error) {
	k := &refKernel{
		cut:   make([]float64, (refN+1)*(refN+1)),
		alias: make([]int32, (refN+1)*(refN+1)),
		rnd:   rand.New(rand.NewPCG(1, 2)),
		out:   make([]byte, 0, 1<<16),
		buf:   make([]byte, 2048),
	}
	for i := range k.cut {
		k.cut[i] = k.rnd.Float64()
		k.alias[i] = int32(k.rnd.IntN(refN + 1))
	}
	if err := syscall.Pipe(k.pipe[:]); err != nil {
		return nil, fmt.Errorf("reference kernel pipe: %w", err)
	}
	return k, nil
}

func (k *refKernel) close() {
	syscall.Close(k.pipe[0])
	syscall.Close(k.pipe[1])
}

// run does one fixed unit of work and returns the calling thread's CPU
// time for it in ns, so time the thread spent waiting is not counted.
// The goroutine stays on its thread throughout, so both clock readings
// are of the same thread.
func (k *refKernel) run() (float64, error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	t0 := threadCPU()
	k.out = k.out[:0]
	for i := 0; i < refDraws; i++ {
		col := k.rnd.IntN(refN+1) * (refN + 1)
		u := k.rnd.Float64() * (refN + 1)
		j := int(u)
		v := int32(j)
		if u-float64(j) >= k.cut[col+j] {
			v = k.alias[col+j]
		}
		k.out = binary.AppendUvarint(k.out, uint64(v))
		if len(k.out) > 1<<15 {
			k.out = k.out[:0]
		}
	}
	for i := 0; i < refTrips; i++ {
		if _, err := syscall.Write(k.pipe[1], k.buf); err != nil {
			return 0, fmt.Errorf("reference kernel write: %w", err)
		}
		if _, err := syscall.Read(k.pipe[0], k.buf); err != nil {
			return 0, fmt.Errorf("reference kernel read: %w", err)
		}
	}
	return float64(threadCPU() - t0), nil
}

// threadCPU returns the calling thread's CPU time in ns.
func threadCPU() int64 {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return ts.Nano()
}

// speedSample is one kernel run: when it ended and its CPU cost in ns.
type speedSample struct {
	t    time.Time
	cost float64
}

// A speedProbe runs the reference kernel every refPeriod on the daemons'
// CPUs until stop, on a thread of its own.
type speedProbe struct {
	once    sync.Once
	quit    chan struct{}
	done    chan struct{}
	samples []speedSample
	err     error
}

func startSpeedProbe() (*speedProbe, error) {
	k, err := newRefKernel()
	if err != nil {
		return nil, err
	}
	p := &speedProbe{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		defer k.close()
		// The thread stays locked, and so stays on the daemons' CPUs, until
		// the goroutine exits; the runtime then discards it.
		runtime.LockOSThread()
		if daemonCPUs != nil {
			if p.err = setAffinity(0, daemonCPUs); p.err != nil {
				return
			}
		}
		tick := time.NewTicker(refPeriod)
		defer tick.Stop()
		for {
			select {
			case <-p.quit:
				return
			case <-tick.C:
			}
			c, err := k.run()
			if err != nil {
				p.err = err
				return
			}
			p.samples = append(p.samples, speedSample{time.Now(), c})
		}
	}()
	return p, nil
}

// stop ends the probe, waits for its thread, and returns its samples.
// It may be called more than once.
func (p *speedProbe) stop() ([]speedSample, error) {
	p.once.Do(func() { close(p.quit) })
	<-p.done
	return p.samples, p.err
}

// hostSpeeds returns, for each slice i ≥ 1, the host's speed relative to
// the reference over the slice (see speeds.over). The first entry is 1.
func hostSpeeds(ss []slice, samples []speedSample) ([]float64, error) {
	sp, err := newSpeeds(samples)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(ss))
	out[0] = 1
	for i := 1; i < len(ss); i++ {
		out[i] = sp.over(ss[i-1].t, ss[i].t)
	}
	return out, nil
}

// speeds answers what the host's speed was over a span, from the
// reference kernel's runs, which are in time order.
type speeds struct {
	runs  []speedSample
	costs []float64
	whole float64 // the median cost over all runs
}

func newSpeeds(runs []speedSample) (*speeds, error) {
	if len(runs) == 0 {
		return nil, fmt.Errorf("the reference kernel never ran")
	}
	sp := &speeds{runs: runs, costs: make([]float64, len(runs))}
	for i, r := range runs {
		sp.costs[i] = r.cost
	}
	sp.whole = median(sp.costs)
	return sp, nil
}

// over returns the host's speed relative to the reference over (a, b]:
// refCostRef over the median cost of the kernel runs that ended in it. A
// span shorter than a slice is first widened to a slice around its
// middle, and a span with no run takes the median over all runs.
func (sp *speeds) over(a, b time.Time) float64 {
	if d := b.Sub(a); d < sliceLen {
		mid := a.Add(d / 2)
		a, b = mid.Add(-sliceLen/2), mid.Add(sliceLen/2)
	}
	lo := sort.Search(len(sp.runs), func(j int) bool { return sp.runs[j].t.After(a) })
	hi := sort.Search(len(sp.runs), func(j int) bool { return sp.runs[j].t.After(b) })
	c := sp.whole
	if hi > lo {
		c = median(sp.costs[lo:hi])
	}
	return refCostRef / c
}

// printSpeed prints the host's speed over a window's slices.
func printSpeed(e *env, workload string, speed []float64, runs int) {
	q1, q2, q3 := quartiles(speed[1:])
	e.printf("%s host speed = %.4g of the reference (median of %d slices, quartiles %.4g and %.4g; %d kernel runs)",
		workload, q2, len(speed)-1, q1, q3, runs)
}
