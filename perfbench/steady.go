package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// steadyMain runs one workload k times untraced, each as its own process
// with seed seed, seed+1, ..., and prints for every metric the median, the
// interquartile range (as Python's statistics.quantiles computes it) and
// (max-min)/median across the runs: the evidence that two sets of runs of
// the same code agree within the benchmark's bounds.
func steadyMain(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench steady", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to repeat")
	runs := fs.Int("runs", 5, "number of runs")
	seed := fs.Int64("seed", 1, "seed of the first run")
	seconds := fs.Float64("seconds", 20, "measured window of each run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if _, ok := findWorkload(*name); !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *runs < 2 {
		return errors.New("need --runs >= 2")
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := make(map[string][]float64)
	units := make(map[string]string)
	for r := 0; r < *runs; r++ {
		cmd := exec.Command(self, "--workload", *name, "--seed", strconv.FormatInt(*seed+int64(r), 10),
			"--seconds", strconv.FormatFloat(*seconds, 'g', -1, 64), "--trace", "0")
		var out bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, io.Discard
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("run %d: %w", r, err)
		}
		lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
		var o output
		if err := json.Unmarshal(lines[len(lines)-1], &o); err != nil {
			return fmt.Errorf("run %d: result line: %w", r, err)
		}
		if !o.Correct || o.Failed > 0 {
			return fmt.Errorf("run %d: %d of %d operations failed", r, o.Failed, o.Attempted)
		}
		line := fmt.Sprintf("steady: run %d of %d (seed %d):", r+1, *runs, *seed+int64(r))
		for k, m := range o.Metrics {
			values[k] = append(values[k], m.Value)
			units[k] = m.Unit
			line += fmt.Sprintf(" %s=%.4g", k, m.Value)
		}
		fmt.Fprintln(stderr, line)
	}
	keys := make([]string, 0, len(values))
	for k := range values {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(stdout, "%s: %d runs, seeds %d..%d, %gs each\n", *name, *runs, *seed, *seed+int64(*runs)-1, *seconds)
	fmt.Fprintf(stdout, "%-34s %12s %12s %9s %9s  %s\n", "metric", "median", "IQR", "IQR/med", "range/med", "unit")
	for _, k := range keys {
		med := median(values[k])
		q1, q3 := quartiles(values[k])
		s := sorted(values[k])
		fmt.Fprintf(stdout, "%-34s %12.6g %12.6g %9.4f %9.4f  %s\n", k, med, q3-q1,
			(q3-q1)/med, (s[len(s)-1]-s[0])/med, units[k])
	}
	return nil
}
