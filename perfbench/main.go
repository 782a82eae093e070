// Command perfbench is the repository's benchmark: one process, four
// named workloads driven in-process through the layers' public
// functions, seven end-to-end metrics from an untraced timed run, and a
// separate traced run that replays the workload's ops one layer call at
// a time and reports per-layer numbers. See README.md for why each
// workload exists and which layer each metric watches.
//
//	perfbench --workload serve-cold --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. Progress and failure
// details go to standard error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is one run's outcome. Correct is false when any op failed its
// output check; a whole-run check (identity of outputs) that fails
// counts as a failed op.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workload is one named traffic mix: its untraced timed run and its
// traced replay. Both map --seconds to a fixed op count, not a
// duration, so two runs of the same seed do exactly the same work.
type workload struct {
	run   func(seed uint64, seconds int) (*report, error)
	trace func(seed uint64, seconds int) (*report, error)
}

var workloads = map[string]workload{
	"serve-cold":  {runCold, traceCold},
	"serve-hot":   {runHot, traceHot},
	"serve-churn": {runChurn, traceChurn},
	"eval":        {runEval, traceEval},
}

func main() {
	name := flag.String("workload", "", "workload: serve-cold, serve-hot, serve-churn or eval")
	seed := flag.Uint64("seed", 1, "workload seed: the same seed generates the same requests")
	seconds := flag.Int("seconds", 10, "nominal run length; sets the fixed op count")
	trace := flag.Int("trace", 0, "1 = traced per-layer replay, 0 = untraced end-to-end run")
	flag.Parse()

	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		var names []string
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfbench: need --workload %v, --seconds >= 1 and --trace 0|1\n", names)
		os.Exit(2)
	}
	if err := selfTest(*seed); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: generator self-test: %v\n", err)
		os.Exit(1)
	}
	run := w.run
	if *trace == 1 {
		run = w.trace
	}
	rep, err := run(*seed, *seconds)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	want := endToEnd
	if *trace == 1 {
		want = perLayer()
	}
	for _, m := range want {
		if got, ok := rep.Metrics[m.name]; !ok || got.Unit != m.unit {
			fmt.Fprintf(os.Stderr, "perfbench: %s: metric %s missing or mislabelled (%+v)\n", *name, m.name, got)
			os.Exit(1)
		}
	}
	if len(rep.Metrics) != len(want) {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d metrics reported, %d declared\n", *name, len(rep.Metrics), len(want))
		os.Exit(1)
	}
	out, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encode result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}
