package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"time"
)

// cpuTime is the user plus system CPU time a getrusage result reports.
func cpuTime(ru *syscall.Rusage) time.Duration {
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// processCPU is the CPU time this process (every thread) has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return cpuTime(&ru)
}

// parseVmHWM extracts the peak resident set size, in KiB, from the
// contents of /proc/<pid>/status.
func parseVmHWM(status []byte) (int64, error) {
	sc := bufio.NewScanner(bytes.NewReader(status))
	for sc.Scan() {
		line := sc.Bytes()
		rest, ok := bytes.CutPrefix(line, []byte("VmHWM:"))
		if !ok {
			continue
		}
		fields := bytes.Fields(rest)
		if len(fields) != 2 || string(fields[1]) != "kB" {
			return 0, fmt.Errorf("malformed VmHWM line %q", line)
		}
		kb, err := strconv.ParseInt(string(fields[0]), 10, 64)
		if err != nil || kb <= 0 {
			return 0, fmt.Errorf("malformed VmHWM value %q", fields[0])
		}
		return kb, nil
	}
	return 0, fmt.Errorf("no VmHWM line")
}

// peakRSSMB is this process's peak resident set size in MiB.
func peakRSSMB() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	kb, err := parseVmHWM(status)
	if err != nil {
		return 0, err
	}
	return float64(kb) / 1024, nil
}

// parseCPUTicks reads the machine-wide "cpu" line of /proc/stat:
// total ticks, and ticks stolen by the hypervisor (the eighth column).
func parseCPUTicks(stat []byte) (total, steal int64, err error) {
	line, _, _ := bytes.Cut(stat, []byte("\n"))
	fields := bytes.Fields(line)
	if len(fields) < 9 || string(fields[0]) != "cpu" {
		return 0, 0, fmt.Errorf("malformed cpu line %q", line)
	}
	for i, f := range fields[1:] {
		n, err := strconv.ParseInt(string(f), 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("malformed cpu line %q", line)
		}
		total += n
		if i == 7 {
			steal = n
		}
	}
	return total, steal, nil
}

// hostTicks is parseCPUTicks of this machine; ok is false where
// /proc/stat cannot be read.
func hostTicks() (total, steal int64, ok bool) {
	stat, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	total, steal, err = parseCPUTicks(stat)
	return total, steal, err == nil
}

// snapshot is the process-wide counters read at an interval boundary.
type snapshot struct {
	at      time.Time
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
	numGC   uint32
	pauseNs uint64
}

func takeSnapshot() snapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return snapshot{
		at:      time.Now(),
		cpu:     processCPU(),
		mallocs: ms.Mallocs,
		bytes:   ms.TotalAlloc,
		numGC:   ms.NumGC,
		pauseNs: ms.PauseTotalNs,
	}
}

// costs is the work the process did between two snapshots, spread over
// ops operations.
type costs struct {
	wall       time.Duration
	cpuUsPerOp float64
	allocs     float64 // per op
	kbPerOp    float64
	gcPerKop   float64
	pauseUsOp  float64
}

func costsBetween(a, b snapshot, ops int64) costs {
	c := costs{wall: b.at.Sub(a.at)}
	if ops <= 0 {
		return c
	}
	n := float64(ops)
	c.cpuUsPerOp = float64(b.cpu-a.cpu) / float64(time.Microsecond) / n
	c.allocs = float64(b.mallocs-a.mallocs) / n
	c.kbPerOp = float64(b.bytes-a.bytes) / 1024 / n
	c.gcPerKop = float64(b.numGC-a.numGC) * 1000 / n
	c.pauseUsOp = float64(b.pauseNs-a.pauseNs) / 1000 / n
	return c
}
