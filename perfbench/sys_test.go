package main

import (
	"syscall"
	"testing"
	"time"
)

const sampleStatus = `Name:	perfbench
Umask:	0022
State:	R (running)
VmPeak:	 1243716 kB
VmSize:	 1243716 kB
VmHWM:	   48760 kB
VmRSS:	   41212 kB
Threads:	9
`

func TestParseVmHWM(t *testing.T) {
	kb, err := parseVmHWM([]byte(sampleStatus))
	if err != nil || kb != 48760 {
		t.Fatalf("parseVmHWM = %d, %v; want 48760", kb, err)
	}
	for _, bad := range []string{
		"VmRSS:	 100 kB\n",
		"VmHWM:	 lots kB\n",
		"VmHWM:	 100 MB\n",
		"VmHWM:\n",
	} {
		if _, err := parseVmHWM([]byte(bad)); err == nil {
			t.Errorf("parseVmHWM(%q) accepted", bad)
		}
	}
}

func TestPeakRSSOfThisProcess(t *testing.T) {
	mb, err := peakRSSMB()
	if err != nil || mb <= 0 {
		t.Fatalf("peakRSSMB = %v, %v", mb, err)
	}
}

func TestCPUTimeAddsUserAndSystem(t *testing.T) {
	ru := syscall.Rusage{
		Utime: syscall.Timeval{Sec: 1, Usec: 500000},
		Stime: syscall.Timeval{Sec: 0, Usec: 250000},
	}
	if got, want := cpuTime(&ru), 1750*time.Millisecond; got != want {
		t.Errorf("cpuTime = %v, want %v", got, want)
	}
	if processCPU() <= 0 {
		t.Error("this process has used no CPU")
	}
}

func TestCostsBetweenSpreadsOverOps(t *testing.T) {
	t0 := time.Now()
	a := snapshot{at: t0, cpu: time.Second, mallocs: 1000, bytes: 1 << 20, numGC: 3, pauseNs: 5000}
	b := snapshot{at: t0.Add(2 * time.Second), cpu: 3 * time.Second, mallocs: 3000, bytes: 3 << 20, numGC: 5, pauseNs: 9000}
	c := costsBetween(a, b, 1000)
	if c.wall != 2*time.Second || c.cpuUsPerOp != 2000 || c.allocs != 2 || c.kbPerOp != 2.048 ||
		c.gcPerKop != 2 || c.pauseUsOp != 0.004 {
		t.Errorf("costs = %+v", c)
	}
	if z := costsBetween(a, b, 0); z.allocs != 0 {
		t.Errorf("costs over no ops = %+v", z)
	}
}

func TestParseCPUTicks(t *testing.T) {
	stat := "cpu  317593 0 45692 4399687 264 0 15676 28591 0 0\ncpu0 1 2 3 4 5 6 7 8 0 0\n"
	total, steal, err := parseCPUTicks([]byte(stat))
	if err != nil || steal != 28591 || total != 317593+45692+4399687+264+15676+28591 {
		t.Errorf("parseCPUTicks = %d, %d, %v", total, steal, err)
	}
	for _, bad := range []string{"", "cpu0 1 2 3 4 5 6 7 8\n", "cpu 1 2 3\n", "cpu 1 2 3 4 5 6 7 x 0\n"} {
		if _, _, err := parseCPUTicks([]byte(bad)); err == nil {
			t.Errorf("parseCPUTicks(%q) accepted", bad)
		}
	}
}
