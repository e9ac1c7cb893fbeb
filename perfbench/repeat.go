package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// repeatRuns runs the workload n times with its seed held fixed, each in
// a child process of this binary (so peak RSS and set-up are per run),
// and prints every metric's median, quartiles and spread. This is how
// the bounds in BENCHMARK.json were set and how they are rechecked.
func repeatRuns(cfg runConfig, n int, stdout io.Writer) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	units := map[string]string{}
	var failShares []float64
	for i := 0; i < n; i++ {
		trace := "0"
		if cfg.trace {
			trace = "1"
		}
		args := []string{"--workload", cfg.workload, "--seed", strconv.FormatInt(cfg.seed, 10),
			"--seconds", strconv.Itoa(cfg.seconds), "--trace", trace}
		cmd := exec.Command(self, args...)
		var buf bytes.Buffer
		cmd.Stdout = &buf
		cmd.Stderr = cfg.log
		runErr := cmd.Run()
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			return fmt.Errorf("run %d: %v, no result line: %v", i+1, runErr, err)
		}
		if runErr != nil || !res.Correct {
			return fmt.Errorf("run %d failed: %v (correct=%v)", i+1, runErr, res.Correct)
		}
		failShares = append(failShares, float64(res.Failed)/float64(res.Attempted))
		for name, m := range res.Metrics {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
		}
		fmt.Fprintf(cfg.log, "perfbench: repeat %d/%d done\n", i+1, n)
	}
	var names []string
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(stdout, "%s: %d runs, seed %d fixed, %ds each, trace=%v; failed share per run %v\n",
		cfg.workload, n, cfg.seed, cfg.seconds, cfg.trace, failShares)
	fmt.Fprintf(stdout, "%-36s %-6s %14s %14s %14s %9s  %s\n", "metric", "unit", "q1", "median", "q3", "spread", "runs in order")
	for _, name := range names {
		xs := values[name]
		q1, q2, q3, ok := quartiles(xs)
		if !ok {
			q2 = xs[0]
			q1, q3 = q2, q2
		}
		runs := make([]string, len(xs))
		for i, x := range xs {
			runs[i] = strconv.FormatFloat(x, 'g', 4, 64)
		}
		fmt.Fprintf(stdout, "%-36s %-6s %14.6g %14.6g %14.6g %8.2f%%  %s\n",
			name, units[name], q1, q2, q3, 100*spread(xs), strings.Join(runs, " "))
	}
	return nil
}
