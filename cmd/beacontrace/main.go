// Command beacontrace generates, inspects, and replays mini-batch
// target traces, letting the same workload drive different platforms or
// sessions reproducibly.
//
// Usage:
//
//	beacontrace -gen -dataset amazon -batches 16 -skew 1.2 -out q.json
//	beacontrace -inspect -in q.json
//	beacontrace -replay -in q.json -platform BG-2
//
// A replay runs on the trace's own dataset; -dataset, if given, must
// name the same one.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"beacongnn/internal/config"
	"beacongnn/internal/dataset"
	"beacongnn/internal/platform"
	"beacongnn/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

// run executes one beacontrace command and returns its exit code: 0 on
// success, 1 on a failure, 2 on bad usage.
func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("beacontrace", flag.ContinueOnError)
	var (
		gen     = fs.Bool("gen", false, "generate a trace")
		inspect = fs.Bool("inspect", false, "print a trace's statistics")
		replay  = fs.Bool("replay", false, "replay a trace on a platform")
		ds      = fs.String("dataset", "amazon", "dataset name (-replay: the trace's, which the flag must match)")
		plat    = fs.String("platform", "BG-2", "platform for -replay")
		nodes   = fs.Int("nodes", 10000, "node domain / materialized scale")
		batches = fs.Int("batches", 8, "batches to generate")
		batch   = fs.Int("batch", 64, "targets per batch")
		skew    = fs.Float64("skew", 0, "Zipf skew (0 = uniform)")
		seed    = fs.Uint64("seed", 0xBEAC0, "generation seed")
		in      = fs.String("in", "", "input trace file")
		out     = fs.String("out", "", "output trace file (default stdout)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	datasetSet := false
	fs.Visit(func(f *flag.Flag) { datasetSet = datasetSet || f.Name == "dataset" })

	var err error
	switch {
	case *gen:
		err = generate(stdout, *out, *ds, *nodes, *batch, *batches, *skew, *seed)
	case *inspect:
		var tr *trace.Trace
		if tr, err = load(*in); err == nil {
			total := len(tr.Batches) * tr.BatchSize
			fmt.Fprintf(stdout, "dataset    %s\n", tr.Dataset)
			fmt.Fprintf(stdout, "shape      %d batches × %d targets (%d total) over %d nodes\n",
				len(tr.Batches), tr.BatchSize, total, tr.Nodes)
			fmt.Fprintf(stdout, "skew       %.2f (hot set covering 80%% of draws: %d targets)\n",
				tr.Skew, tr.HotSet(0.8))
		}
	case *replay:
		var tr *trace.Trace
		if tr, err = load(*in); err == nil {
			if datasetSet && *ds != tr.Dataset {
				err = fmt.Errorf("-dataset %s disagrees with the trace's dataset %s", *ds, tr.Dataset)
			} else {
				err = replayTrace(stdout, tr, *plat)
			}
		}
	default:
		fs.Usage()
		return 2
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "beacontrace:", err)
		return 1
	}
	return 0
}

// generate writes a synthesized trace to path, or to stdout if path is
// empty.
func generate(stdout io.Writer, path, ds string, nodes, batch, batches int, skew float64, seed uint64) error {
	tr, err := trace.Generate(ds, nodes, batch, batches, skew, seed)
	if err != nil {
		return err
	}
	if path == "" {
		return tr.Save(stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.Save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// replayTrace runs tr's batches on platform plat over tr's dataset,
// materialized at the trace's node domain.
func replayTrace(stdout io.Writer, tr *trace.Trace, plat string) error {
	kind, err := platform.ByName(plat)
	if err != nil {
		return err
	}
	d, err := dataset.ByName(tr.Dataset)
	if err != nil {
		return err
	}
	cfg := config.Default()
	cfg.GNN.BatchSize = tr.BatchSize
	inst, err := dataset.Materialize(d, tr.Nodes, cfg.Flash.PageSize, cfg.Seed)
	if err != nil {
		return err
	}
	s, err := platform.NewSystem(kind, cfg, inst, 0)
	if err != nil {
		return err
	}
	s.SetTargetSource(tr.Targets)
	res, err := s.Run(len(tr.Batches))
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s replayed %d batches of %s: %.0f targets/s, %.1f dies, p99 command %v\n",
		res.Platform, res.Batches, tr.Dataset, res.Throughput, res.MeanDies, res.CmdP99)
	return nil
}

func load(path string) (*trace.Trace, error) {
	if path == "" {
		return nil, fmt.Errorf("-in required")
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return trace.Load(f)
}
