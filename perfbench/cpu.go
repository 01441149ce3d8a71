package main

import (
	"runtime/metrics"
	"syscall"
	"time"
	"unsafe"
)

// The benchmark times work in CPU time, not wall time. It runs on a few
// virtual cores of a shared host, where the hypervisor takes a core away
// for stretches of seconds; Linux leaves that stolen time out of a task's
// CPU clock (paravirtual steal-time accounting) but not out of the wall
// clock, so only CPU time repeats from run to run.

const (
	clockProcessCPU = 2 // CLOCK_PROCESS_CPUTIME_ID
	clockThreadCPU  = 3 // CLOCK_THREAD_CPUTIME_ID
)

func cpuClock(id uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic("clock_gettime: " + errno.Error())
	}
	return time.Duration(ts.Nano())
}

// processCPU is the CPU time every thread of the process has used so far.
func processCPU() time.Duration { return cpuClock(clockProcessCPU) }

// threadCPU is the CPU time the calling OS thread has used so far. It
// measures one goroutine only while that goroutine is locked to its
// thread (runtime.LockOSThread).
func threadCPU() time.Duration { return cpuClock(clockThreadCPU) }

// idleMarkCPU is the collector's estimate, as of its last completed cycle,
// of the CPU time its mark workers have spent on processors that would
// otherwise have sat idle.
func idleMarkCPU() time.Duration {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/mark/idle:cpu-seconds"}}
	metrics.Read(s)
	return time.Duration(s[0].Value.Float64() * 1e9)
}

// workCPU is processCPU less idle-time marking. How much marking the
// collector does on idle processors depends on when a processor happens
// to idle, not on the work; the runtime's documentation calls the rest
// the compulsory GC CPU time.
func workCPU() time.Duration { return processCPU() - idleMarkCPU() }
