package main

import (
	"errors"
	"fmt"
	"math/bits"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// On the reference box two busy threads that the kernel is left to place
// share one CPU for long stretches (a fixed spin takes 7.1 ms alone, 7.2 ms
// on each of two pinned CPUs, 11-18 ms on two unpinned threads), which was the
// ±30 % "drift" of the first version of this benchmark. So the benchmark
// places its threads itself: the daemon under test gets the last allowed CPU
// to itself, the generator (and the in-process twin of a traced run) every
// other one. With a single allowed CPU both share it. In a traced run the
// generator keeps every CPU: the twin replays what the daemon just served
// while the daemon is idle, and its spans should not also time the twin's own
// garbage collector queueing for the twin's CPU.

// cpuSet is a sched_setaffinity mask.
type cpuSet [16]uint64

func (s *cpuSet) set(cpu int)   { s[cpu/64] |= 1 << (cpu % 64) }
func (s *cpuSet) clear(cpu int) { s[cpu/64] &^= 1 << (cpu % 64) }

func (s *cpuSet) count() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// last is the highest CPU in the set.
func (s *cpuSet) last() int {
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] != 0 {
			return i*64 + 63 - bits.LeadingZeros64(s[i])
		}
	}
	return -1
}

// allowedCPUs is the calling thread's affinity mask.
func allowedCPUs() (cpuSet, error) {
	var s cpuSet
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(s), uintptr(unsafe.Pointer(&s)))
	if errno != 0 {
		return s, fmt.Errorf("sched_getaffinity: %w", errno)
	}
	return s, nil
}

// setAffinity moves one thread (0 = the calling thread) onto the set.
func setAffinity(tid int, s cpuSet) error {
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(s), uintptr(unsafe.Pointer(&s)))
	if errno != 0 {
		return fmt.Errorf("sched_setaffinity(%d): %w", tid, errno)
	}
	return nil
}

// placement is where the benchmark's two sides run.
type placement struct {
	generator, daemon cpuSet
}

// place splits the allowed CPUs between the generator and the daemon and
// moves every thread of this process onto the generator's share; threads the
// runtime starts later inherit it.
func place(traced bool) (placement, error) {
	all, err := allowedCPUs()
	if err != nil {
		return placement{}, err
	}
	p := placement{generator: all, daemon: all}
	if all.count() > 1 {
		d := all.last()
		p.daemon = cpuSet{}
		p.daemon.set(d)
		if !traced {
			p.generator.clear(d)
		}
	}
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return p, err
	}
	for _, t := range tasks {
		tid, err := strconv.Atoi(t.Name())
		if err != nil {
			return p, err
		}
		// A thread may exit between the listing and the call.
		if err := setAffinity(tid, p.generator); err != nil && !errors.Is(err, syscall.ESRCH) {
			return p, err
		}
	}
	return p, nil
}

// startOn starts a child process on the daemon's CPUs: a child inherits the
// mask of the thread that forks it, so the calling goroutine's thread wears
// the daemon's mask for the length of the fork.
func (p placement) startOn(start func() error) error {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	if err := setAffinity(0, p.daemon); err != nil {
		return err
	}
	err := start()
	if rerr := setAffinity(0, p.generator); err == nil {
		err = rerr
	}
	return err
}
