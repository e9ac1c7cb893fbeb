// Command perfbench is the repository's benchmark. It runs one named
// workload in a single process on loopback, checks every output, and
// prints the end-to-end metrics (or, traced, the per-layer split) as
// the last line of its standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Workloads:
//
//	world_study  the paper-scale study as `worldstudy -scale 2.7
//	             -transports do53,doh,dot,doq,smart -export` runs it
//	doh_hit      DoH over HTTP/2+TLS, warm answer cache, reused connections
//	doh_miss     DoH over HTTP/2+TLS, every name new: cache miss, smart
//	             forwarder, Do53 to the authoritative server
//	doh_newconn  as doh_hit, but a new TCP+TLS+HTTP/2 connection per query
//
// Run it through perfbench/run.sh from the repository root, which
// builds it from the checkout's sources. See perfbench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// commit is set at build time by run.sh.
var commit = "unknown"

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	log      io.Writer // progress and diagnostics (stderr)
}

// outcome is what a workload hands back: measured values (end-to-end
// or per-layer, by mode), operation counts, and the correctness
// failures it saw.
type outcome struct {
	values    map[string]float64
	attempted int64
	failed    int64
	problems  []string
}

func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(runConfig) (*outcome, error){
	"world_study": runWorldStudy,
	"doh_hit":     func(c runConfig) (*outcome, error) { return runDoH(c, kindHit) },
	"doh_miss":    func(c runConfig) (*outcome, error) { return runDoH(c, kindMiss) },
	"doh_newconn": func(c runConfig) (*outcome, error) { return runDoH(c, kindNewConn) },
}

func workloadNames() string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Int64("seed", 1, "seed every input of the workload derives from")
	seconds := fs.Int("seconds", 15, "measured seconds (set-up not included)")
	trace := fs.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	repeat := fs.Int("repeat", 0, "run the workload this many times with the seed held fixed, each in its own process, and print every metric's median and quartiles")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloads[*workload]; !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", *workload, workloadNames())
		return 2
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(stderr, "perfbench: -seconds must be at least 1 and -trace 0 or 1")
		return 2
	}
	cfg := runConfig{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, log: stderr}
	if *repeat > 0 {
		if err := repeatRuns(cfg, *repeat, stdout); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		return 0
	}

	fmt.Fprintf(stdout, "perfbench: env go=%s GOMAXPROCS=%d NumCPU=%d commit=%s os=%s/%s network=loopback (127.0.0.1 only; no real link crossed) workload=%s seed=%d seconds=%d trace=%d\n",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), commit, runtime.GOOS, runtime.GOARCH,
		cfg.workload, cfg.seed, cfg.seconds, *trace)
	start := time.Now()
	total0, steal0, ok0 := hostTicks()
	out, err := workloads[cfg.workload](cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	if total1, steal1, ok1 := hostTicks(); ok0 && ok1 && total1 > total0 {
		// Time the hypervisor gave other guests: the main source of
		// run-to-run spread in the timing metrics on a shared host.
		fmt.Fprintf(stderr, "perfbench: the hypervisor stole %.1f%% of this machine's CPU time during the run\n",
			100*float64(steal1-steal0)/float64(total1-total0))
	}
	specs := endToEnd
	if cfg.trace {
		specs = perLayer
	}
	metrics, err := fill(specs, out.values)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	if out.attempted < 1 {
		out.problem("no operation was attempted")
	}
	for _, p := range out.problems {
		fmt.Fprintf(stderr, "perfbench: CHECK FAILED: %s\n", p)
	}
	res := result{
		Correct:   len(out.problems) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   metrics,
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stderr, "perfbench: %s done in %v: %d attempted, %d failed, %d check failures\n",
		cfg.workload, time.Since(start).Round(time.Millisecond), out.attempted, out.failed, len(out.problems))
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}
