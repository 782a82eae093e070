// Command beaconbench regenerates the paper's evaluation: every table
// and figure of Section VII, printed as formatted text reports.
//
// Usage:
//
//	beaconbench -exp all            # everything, paper order
//	beaconbench -exp fig14          # one experiment
//	beaconbench -exp fig18 -quick   # shrunken sweep for a fast look
//	beaconbench -exp all -parallel 8 # fan simulations over 8 workers
//	beaconbench -exp all -quick -check # verify run invariants everywhere
//	beaconbench -exp fig18 -full-resim # bypass the result memo; resimulate from scratch
//	beaconbench -list               # available experiment ids
//	beaconbench -trace out.json -trace-platform BG-2   # request trace
//	beaconbench -drive http://localhost:8080 -drive-requests 100   # live availability drill
//	beaconbench -drive http://localhost:8080 -drive-capacity -drive-qps 40   # live open-loop capacity sweep
//
// Simulations fan out across -parallel workers (default: all CPU
// cores); output is byte-identical for any worker count, including
// -parallel 1 (fully sequential).
//
// With -check, every simulation runs under the invariant checker
// (internal/invariant) and a broken conservation or sanity law fails
// the run with the violated invariant's name. Results are identical to
// an unchecked run — checking only observes.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"beacongnn/internal/core"
)

func main() {
	c, err := parseCLI(os.Args[1:], os.Stderr)
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(0)
		}
		os.Exit(2) // parseCLI already reported the error
	}

	if c.list {
		for _, e := range core.AllExperiments() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return
	}
	if c.drive != "" {
		if c.driveCap {
			err = runDriveCapacity(c.drive, driveCapacityConfig{
				qps:      c.driveQPS,
				arrival:  c.driveArr,
				seed:     c.driveSd,
				requests: c.driveN,
				inflight: c.driveC,
			}, os.Stdout)
		} else {
			err = runDrive(c.drive, c.driveN, c.driveC, os.Stdout)
		}
		if err != nil {
			fatal(err)
		}
		return
	}
	o := c.opts
	if c.traceOut != "" {
		f, err := os.Create(c.traceOut)
		if err == nil {
			_, err = core.RunTrace(o, c.tracePlt, c.traceDS, f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fatal(err)
		}
		fmt.Printf("request trace of %s on %s -> %s (open in https://ui.perfetto.dev)\n", c.tracePlt, c.traceDS, c.traceOut)
		return
	}
	if c.jsonOut {
		var rep any
		switch c.exp {
		case "sched":
			rep, err = core.BuildSchedReport(o)
		case "capacity":
			rep, _, err = core.BuildCapacityReport(o)
		case "cluster":
			rep, err = core.BuildClusterReport(o)
		default:
			rep, err = core.BuildReport(o)
		}
		if err == nil {
			err = core.WriteJSON(os.Stdout, rep)
		}
		if err != nil {
			fatal(err)
		}
		return
	}
	if c.exp == "all" {
		err = core.RunAll(o, os.Stdout)
	} else {
		var e core.Experiment
		e, err = core.ByID(c.exp)
		if err == nil {
			fmt.Printf("===== %s — %s =====\n", e.ID, e.Title)
			err = e.Run(o, os.Stdout)
		}
	}
	if err != nil {
		fatal(err)
	}
	if o.Check {
		fmt.Println("\ninvariants: all checks passed")
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "beaconbench:", err)
	os.Exit(1)
}
