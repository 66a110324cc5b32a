package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// On the query workloads the daemons and the load generator run on
// disjoint CPU sets: the generator's encoding and checking never compete
// with the daemons for a core, and neither process's threads migrate
// across the other's caches. On a shared 2-core host this roughly halved
// the run-to-run spread of the query-stream metrics. build-cold's
// generator only polls, so there the daemon keeps every CPU. With n CPUs
// the daemons get the first half (rounded up) and the generator the
// rest; on one CPU nothing is pinned. Both sets stay nil until pin.
var daemonCPUs, loadCPUs []int

func splitCPUs(n int) (daemons, load []int) {
	if n < 2 {
		return nil, nil
	}
	for c := 0; c < n; c++ {
		if c < (n+1)/2 {
			daemons = append(daemons, c)
		} else {
			load = append(load, c)
		}
	}
	return daemons, load
}

// setAffinity pins one thread (0 = the calling thread) to cpus.
func setAffinity(tid int, cpus []int) error {
	var mask [16]uint64
	for _, c := range cpus {
		if c >= len(mask)*64 {
			return fmt.Errorf("cpu %d beyond the affinity mask", c)
		}
		mask[c/64] |= 1 << (c % 64)
	}
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid),
		unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask[0])))
	if errno != 0 {
		return fmt.Errorf("sched_setaffinity(%d): %w", tid, errno)
	}
	return nil
}

// pin splits the CPUs and moves every thread of this process onto the
// load generator's set; threads started later inherit the mask from
// their creator. Daemons started afterwards go to the other set.
func pin() error {
	daemonCPUs, loadCPUs = splitCPUs(runtime.NumCPU())
	if loadCPUs == nil {
		return nil
	}
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return err
	}
	for _, t := range tasks {
		tid, err := strconv.Atoi(t.Name())
		if err != nil {
			continue
		}
		if err := setAffinity(tid, loadCPUs); err != nil {
			return err
		}
	}
	// One P more than the generator's CPUs, for the reference kernel's
	// thread (hostspeed.go), which runs on the daemons' CPUs. Without it
	// the kernel held the generator's only P for its few milliseconds
	// every 100 ms, and the fleet's requests due then went out late.
	runtime.GOMAXPROCS(len(loadCPUs) + 1)
	return nil
}

// startPinned starts cmd on the daemons' CPUs. A child inherits the
// affinity of the thread that forks it, so the fork runs on a thread
// briefly moved there; the daemon's Go runtime then sizes GOMAXPROCS to
// its CPU set from its first instruction.
func startPinned(cmd *exec.Cmd) error {
	if daemonCPUs == nil {
		return cmd.Start()
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	if err := setAffinity(0, daemonCPUs); err != nil {
		return err
	}
	startErr := cmd.Start()
	if err := setAffinity(0, loadCPUs); err != nil {
		if startErr == nil {
			_ = cmd.Process.Kill()
			_ = cmd.Wait()
		}
		return err
	}
	return startErr
}
