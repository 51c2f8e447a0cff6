package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// processCPU returns the CPU time used so far by every thread of this
// process (CLOCK_PROCESS_CPUTIME_ID). Unlike wall time it leaves out the
// time a virtual CPU is stolen by the host, so it moves with the work the
// program does rather than with the load of neighbouring machines.
func processCPU() time.Duration {
	const clockProcessCPUTimeID = 2
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(fmt.Sprintf("clock_gettime(CLOCK_PROCESS_CPUTIME_ID): %v", errno))
	}
	return time.Duration(ts.Nano())
}

// pidCPU returns the CPU time another process's threads have used, from
// the per-task scheduler statistics (the same precise, steal-free clock as
// processCPU). A thread that exited takes its time with it; the Go runtime
// keeps its threads for the life of the process.
func pidCPU(pid int) (time.Duration, error) {
	tasks, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", pid))
	if err != nil || len(tasks) == 0 {
		return 0, fmt.Errorf("no scheduler statistics for pid %d", pid)
	}
	var total time.Duration
	for _, t := range tasks {
		b, err := os.ReadFile(t)
		if err != nil {
			continue // the thread exited between the glob and the read
		}
		f := strings.Fields(string(b))
		if len(f) == 0 {
			return 0, fmt.Errorf("empty %s", t)
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("parse %s: %w", t, err)
		}
		total += time.Duration(ns)
	}
	return total, nil
}
