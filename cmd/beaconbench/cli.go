package main

import (
	"flag"
	"fmt"
	"io"
	"slices"
	"strings"

	"beacongnn/internal/config"
	"beacongnn/internal/core"
	"beacongnn/internal/loadgen"
	"beacongnn/internal/platform"
)

// cliConfig is the fully parsed and validated beaconbench command line.
type cliConfig struct {
	exp      string
	list     bool
	jsonOut  bool
	traceOut string
	tracePlt string
	traceDS  string
	drive    string
	driveN   int
	driveC   int
	driveCap bool
	driveQPS float64
	driveArr string
	driveSd  uint64
	opts     *core.Options
}

// parseCLI parses and validates the command line. All error reporting
// happens here (the flag package prints parse errors and usage to
// stderr itself; validation failures are printed once) so main can
// exit on any non-nil error without re-printing. flag.ErrHelp is
// returned as-is for a clean -h exit.
func parseCLI(args []string, stderr io.Writer) (*cliConfig, error) {
	fs := flag.NewFlagSet("beaconbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp      = fs.String("exp", "all", "experiment id (or 'all')")
		list     = fs.Bool("list", false, "list experiment ids and exit")
		quick    = fs.Bool("quick", false, "reduced scales and sweeps")
		nodes    = fs.Int("nodes", 0, "materialized nodes per dataset (0 = default)")
		batches  = fs.Int("batches", 0, "mini-batches per simulation (0 = default)")
		jsonOut  = fs.Bool("json", false, "emit the numeric series as JSON instead of text")
		parallel = fs.Int("parallel", 0, "concurrent simulations (0 = all CPU cores, 1 = sequential)")
		check    = fs.Bool("check", false, "verify run invariants on every simulation; fail with a named diagnostic")
		fullSim  = fs.Bool("full-resim", false, "disable result memoization; resimulate everything from scratch")
		traceOut = fs.String("trace", "", "write a Chrome trace_event JSON request trace to this file and exit")
		tracePlt = fs.String("trace-platform", "BG-2", "platform to trace with -trace")
		traceDS  = fs.String("trace-dataset", "amazon", "dataset to trace with -trace")
		sched    = fs.String("sched", "", "flash scheduling policy for every simulation: fifo, sjf, edf, totalfit (default fifo)")
		drive    = fs.String("drive", "", "drive a live beaconserved at this base URL and report availability")
		driveN   = fs.Int("drive-requests", 60, "requests to issue with -drive")
		driveC   = fs.Int("drive-concurrency", 4, "concurrent clients with -drive")
		driveCap = fs.Bool("drive-capacity", false, "with -drive: open-loop capacity sweep (coordinated-omission-safe) instead of the closed-loop drill")
		driveQPS = fs.Float64("drive-qps", 50, "peak offered rate for -drive-capacity; the sweep walks half rate then full rate")
		driveArr = fs.String("drive-arrival", "poisson", "arrival process for -drive-capacity: poisson, mmpp, diurnal, uniform")
		driveSd  = fs.Uint64("drive-seed", 1, "schedule seed for -drive-capacity")
	)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	fail := func(format string, a ...any) (*cliConfig, error) {
		err := fmt.Errorf(format, a...)
		fmt.Fprintln(stderr, "beaconbench:", err)
		return nil, err
	}
	if fs.NArg() > 0 {
		return fail("unexpected arguments %q (flags only)", fs.Args())
	}
	if *nodes < 0 {
		return fail("-nodes must be non-negative (0 = default), got %d", *nodes)
	}
	if *batches < 0 {
		return fail("-batches must be non-negative (0 = default), got %d", *batches)
	}
	if *parallel < 0 {
		return fail("-parallel must be non-negative (0 = all CPU cores), got %d", *parallel)
	}
	if *drive != "" && (*driveN <= 0 || *driveC <= 0) {
		return fail("-drive-requests and -drive-concurrency must be positive")
	}
	if *driveCap {
		if *drive == "" {
			return fail("-drive-capacity requires -drive <base URL>")
		}
		if *driveQPS <= 0 {
			return fail("-drive-qps must be positive, got %g", *driveQPS)
		}
		switch *driveArr {
		case loadgen.ArrivalPoisson, loadgen.ArrivalMMPP, loadgen.ArrivalDiurnal, loadgen.ArrivalUniform:
		default:
			return fail("-drive-arrival: unknown arrival process %q", *driveArr)
		}
	}
	if !*list && *drive == "" && *exp != "all" {
		if _, err := core.ByID(*exp); err != nil {
			return fail("%v", err)
		}
		if *jsonOut && *traceOut == "" && !hasJSONReport(*exp) {
			return fail("-json: -exp %s has no JSON report; use all, a paper experiment (%s), sched, capacity or cluster",
				*exp, strings.Join(paperIDs(), ", "))
		}
	}
	if *traceOut != "" {
		if _, err := platform.ByName(*tracePlt); err != nil {
			return fail("-trace-platform: %v", err)
		}
	}
	var cfg config.Config
	if *sched != "" {
		cfg = config.Default()
		cfg.Sched.Policy = strings.ToLower(strings.TrimSpace(*sched))
		if err := cfg.Sched.Validate(); err != nil {
			return fail("-sched: %v", err)
		}
	}
	return &cliConfig{
		exp:      *exp,
		list:     *list,
		jsonOut:  *jsonOut,
		traceOut: *traceOut,
		tracePlt: *tracePlt,
		traceDS:  *traceDS,
		drive:    *drive,
		driveN:   *driveN,
		driveC:   *driveC,
		driveCap: *driveCap,
		driveQPS: *driveQPS,
		driveArr: *driveArr,
		driveSd:  *driveSd,
		opts: &core.Options{
			Cfg:        cfg,
			Quick:      *quick,
			ScaleNodes: *nodes,
			Batches:    *batches,
			Workers:    *parallel,
			Check:      *check,
			FullResim:  *fullSim,
		},
	}, nil
}

// hasJSONReport reports whether -json has a report for the experiment:
// the paper experiments share the evaluation report, and sched,
// capacity and cluster have their own.
func hasJSONReport(id string) bool {
	switch id {
	case "sched", "capacity", "cluster":
		return true
	}
	return slices.Contains(paperIDs(), id)
}

// paperIDs lists the experiments of the paper's evaluation report.
func paperIDs() []string {
	var ids []string
	for _, e := range core.Experiments() {
		ids = append(ids, e.ID)
	}
	return ids
}
