package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// cpuSet is a sched_setaffinity mask for up to 1024 CPUs.
type cpuSet [16]uint64

func (s *cpuSet) add(cpu int)      { s[cpu/64] |= 1 << (cpu % 64) }
func (s *cpuSet) has(cpu int) bool { return s[cpu/64]&(1<<(cpu%64)) != 0 }

// list returns the CPUs in the set, ascending.
func (s *cpuSet) list() []int {
	var out []int
	for cpu := 0; cpu < len(s)*64; cpu++ {
		if s.has(cpu) {
			out = append(out, cpu)
		}
	}
	return out
}

// allowedCPUs returns the CPUs this process may run on.
func allowedCPUs() (cpuSet, error) {
	var s cpuSet
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(s), uintptr(unsafe.Pointer(&s)))
	if errno != 0 {
		return s, fmt.Errorf("sched_getaffinity: %w", errno)
	}
	return s, nil
}

// setThreadAffinity pins one thread (0 = the calling thread).
func setThreadAffinity(tid int, s *cpuSet) error {
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(*s), uintptr(unsafe.Pointer(s)))
	if errno != 0 {
		return fmt.Errorf("sched_setaffinity(%d): %w", tid, errno)
	}
	return nil
}

// pinProcess pins every thread the process has now; threads created later
// inherit the mask from the pinned thread that creates them.
func pinProcess(s *cpuSet) error {
	entries, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return err
	}
	for _, e := range entries {
		tid, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		if err := setThreadAffinity(tid, s); err != nil {
			return err
		}
	}
	return nil
}

// placeCPUs chooses where the two processes run: the daemon on all allowed
// CPUs but the first (on all of one), the generator on the first of the
// daemon's. Left alone, the kernel runs the two ends of a one-connection
// ping-pong now on one core, now on two, and changes its mind every few
// minutes; a wake-up across cores of this VM costs tens of microseconds more
// than a context switch, which moved every latency by 10-20 % between runs of
// identical code. On the two-CPU box the benchmark is specified for, both
// ends therefore share one core -- a closed loop with one or two connections
// has nothing to run in parallel -- and the other core absorbs the rest of
// the system.
func placeCPUs(allowed cpuSet) (generator, daemon cpuSet) {
	cpus := allowed.list()
	if len(cpus) > 1 {
		cpus = cpus[1:]
	}
	for _, c := range cpus {
		daemon.add(c)
	}
	generator.add(cpus[0])
	return generator, daemon
}

// startPinned starts the command on the daemon's CPUs: the calling thread
// takes the daemon's mask for the duration of the fork, which the child
// inherits, and then returns to the generator's.
func startPinned(start func() error, daemon, generator *cpuSet) error {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	if err := setThreadAffinity(0, daemon); err != nil {
		return err
	}
	startErr := start()
	if err := setThreadAffinity(0, generator); err != nil {
		return err
	}
	return startErr
}
