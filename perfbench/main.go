// Command perfbench is the end-to-end benchmark of somrm. It runs one
// named workload through the public entry points (the solver HTTP service
// with somrm-serve's defaults, or the core library), checks every answer,
// and prints its metrics; the last line of standard output is one JSON
// object. See README.md for the workloads, metrics and design.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	perfbench steady --workload <name> --runs <k> [--seconds <s>] [--seed <n>]
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

var stderr io.Writer = os.Stderr

// workloadDef is one named workload: how to set it up from a seed.
type workloadDef struct {
	name  string
	setup func(seed int64, tr *tracer) (workload, error)
}

var workloads = []workloadDef{
	{"serve-hot", setupServeHot},
	{"serve-cold", setupServeCold},
	{"fig8-large", setupFig8},
	{"structured-csr32", setupStructured("csr32")},
	{"structured-band", setupStructured("band")},
	{"structured-kron", setupStructured("kron")},
	{"structured-qbd", setupStructured("qbd")},
}

// A run sets its workload up at least minSetupReps times and then until
// the set-ups have taken setupBudget seconds, at most maxSetupReps times;
// setup_s is the median. A quick set-up (serve-hot's is about 50 ms, with
// ±20% jitter between repetitions) gets many samples, a slow one few.
const (
	minSetupReps = 5
	maxSetupReps = 25
	setupBudget  = 2.0
)

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

func main() {
	var err error
	if len(os.Args) > 1 && os.Args[1] == "steady" {
		err = steadyMain(os.Args[2:], os.Stdout)
	} else {
		err = runMain(os.Args[1:], os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func runMain(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: serve-hot, serve-cold, fig8-large or structured-<format>")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 20, "length of the measured window in seconds")
	trace := fs.Int("trace", 0, "1 = traced run printing per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	def, ok := findWorkload(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return errors.New("need --seconds > 0 and --trace 0 or 1")
	}
	res, err := run(def, *seed, *seconds, *trace == 1)
	if err != nil {
		return err
	}
	printTable(stderr, def.name, res)
	line, err := json.Marshal(res.output())
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(stdout, string(line))
	return err
}

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's outcome.
type result struct {
	correct   bool
	attempted int
	failed    int
	metrics   map[string]metric // printed in the JSON line
	extra     map[string]metric // printed to stderr only
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) output() output {
	return output{Correct: r.correct, Attempted: r.attempted, Failed: r.failed, Metrics: r.metrics}
}

func printTable(w io.Writer, name string, r *result) {
	fmt.Fprintf(w, "perfbench %s: attempted %d, failed %d, correct %v\n", name, r.attempted, r.failed, r.correct)
	for _, m := range []map[string]metric{r.metrics, r.extra} {
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(w, "  %-34s %14.6g %s\n", k, m[k].Value, m[k].Unit)
		}
	}
}
