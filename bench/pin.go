//go:build linux

package main

import (
	"fmt"
	"math/bits"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// The benchmark runs on one CPU. With two Ps on the two-vCPU reference host
// a run measured the hypervisor: the vCPUs are hyperthreads the host shares
// with other tenants, and the capacity two busy threads got between them
// moved between one and two cores' worth within a minute (a two-thread
// compare-and-branch loop read 2600 to 5900 iterations per quarter second,
// the same loop on one thread 1500 to 2800), which put closed-loop
// throughput anywhere between 390k and 710k updates/s on engine-fanout with
// the same seed. On one CPU every goroutine hand-off is a scheduler switch
// instead of a futex wake on a vCPU the host may have parked, throughput is
// exactly the inverse of CPU cost, and the speed probe (probe.go) runs on
// the very hardware thread the fleet runs on, so it sees what the fleet
// sees. README.md, "One CPU and the speed probe".

// cpuMask is the affinity mask of up to 1024 CPUs, as the kernel lays it out.
type cpuMask [16]uint64

func (m *cpuMask) count() int {
	n := 0
	for _, w := range m {
		n += bits.OnesCount64(w)
	}
	return n
}

// last is the highest-numbered CPU in the mask: on a small VM the low ones
// take the device interrupts.
func (m *cpuMask) last() int {
	for i := len(m) - 1; i >= 0; i-- {
		if m[i] != 0 {
			return i*64 + 63 - bits.LeadingZeros64(m[i])
		}
	}
	return -1
}

func getAffinity() (cpuMask, error) {
	var m cpuMask
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	if errno != 0 {
		return m, fmt.Errorf("sched_getaffinity: %w", errno)
	}
	return m, nil
}

// hostCPUsEnv carries the number of CPUs the process was offered across the
// exec, after which runtime.NumCPU reads 1.
const hostCPUsEnv = "CONDMON_BENCH_HOST_CPUS"

// hostCPUs and pinnedCPU describe the placement for the environment record:
// how many CPUs the process was offered and the one it runs on (-1 when it
// could not be pinned).
var hostCPUs, pinnedCPU = runtime.NumCPU(), -1

// pinToOneCPU confines the process to the last CPU it is allowed on. The
// runtime has started threads by the time main runs and an affinity mask
// binds only the calling thread and those it creates later, so the process
// narrows the mask of its main thread and executes itself again: every
// thread of the new image inherits the mask, and the runtime sizes
// GOMAXPROCS to it. The second time round the mask holds one CPU and the
// function returns.
func pinToOneCPU() error {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	mask, err := getAffinity()
	if err != nil {
		return err
	}
	cpu := mask.last()
	if mask.count() == 1 {
		pinnedCPU = cpu
		if n, err := strconv.Atoi(os.Getenv(hostCPUsEnv)); err == nil {
			hostCPUs = n
		}
		return nil
	}
	if err := os.Setenv(hostCPUsEnv, strconv.Itoa(mask.count())); err != nil {
		return err
	}
	var one cpuMask
	one[cpu/64] = 1 << (cpu % 64)
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(one), uintptr(unsafe.Pointer(&one))); errno != 0 {
		return fmt.Errorf("sched_setaffinity: %w", errno)
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	return fmt.Errorf("exec %s: %w", exe, syscall.Exec(exe, os.Args, os.Environ()))
}
