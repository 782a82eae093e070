package core

import (
	"fmt"
	"io"
	"strings"

	"beacongnn/internal/exp"
	"beacongnn/internal/platform"
	"beacongnn/internal/sim"
	"beacongnn/internal/trace"
)

// The scheduler study compares the flash-backend queueing policies
// (DESIGN.md §11) on the amazon workload: mean/median/tail command
// latency and throughput per policy, then a per-resource wait/service
// quantile table from a traced run of the flagship platform under each
// policy. BG-DG covers the page data path and BG-2 the die-sampler
// path, matching the reliability study's platform pair.

// schedKinds returns the platforms the scheduler study runs on.
func schedKinds() []platform.Kind {
	return []platform.Kind{platform.BGDG, platform.BG2}
}

// schedPolicies returns the swept policy names. "fifo" is the explicit
// spelling of the default; its results are byte-identical to a run with
// the policy field left empty.
func schedPolicies() []string {
	return []string{"fifo", "sjf", "edf", "totalfit"}
}

// SchedCell is one simulated (platform, policy) result of the scheduler
// comparison, in the shape the JSON report emits.
type SchedCell struct {
	Platform    string   `json:"platform"`
	Policy      string   `json:"policy"`
	Throughput  float64  `json:"throughput"`
	CmdLifetime sim.Time `json:"cmd_lifetime_ns"`
	CmdP50      sim.Time `json:"cmd_p50_ns"`
	CmdP99      sim.Time `json:"cmd_p99_ns"`
	Commands    uint64   `json:"commands"`
}

// SchedReport is the machine-readable scheduler comparison
// (`beaconbench -exp sched -json`).
type SchedReport struct {
	Dataset string      `json:"dataset"`
	Cells   []SchedCell `json:"cells"`
}

// BuildSchedReport simulates every (platform, policy) cell concurrently
// and returns them in (platform-major, policy-minor) order.
func BuildSchedReport(o *Options) (*SchedReport, error) {
	o.fill()
	kinds := schedKinds()
	pols := schedPolicies()
	type cell struct{ k, p int }
	var cells []cell
	for ki := range kinds {
		for pi := range pols {
			cells = append(cells, cell{ki, pi})
		}
	}
	flat, err := exp.Map(cells, func(c cell) (SchedCell, error) {
		cfg := o.Cfg
		cfg.Sched.Policy = pols[c.p]
		r, err := o.simulateCfg(kinds[c.k], cfg, "amazon", simTimeline)
		if err != nil {
			return SchedCell{}, fmt.Errorf("%s sched=%s: %w", kinds[c.k], pols[c.p], err)
		}
		return SchedCell{
			Platform: kinds[c.k].String(), Policy: pols[c.p],
			Throughput: r.Throughput, CmdLifetime: r.CmdLifetime,
			CmdP50: r.CmdP50, CmdP99: r.CmdP99, Commands: r.Commands,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return &SchedReport{Dataset: "amazon", Cells: flat}, nil
}

// schedTraceTable runs one traced simulation of the platform under the
// policy and renders the wait/service quantiles of the scheduled flash
// resources (dies, per-die samplers, channel buses), aggregated across
// lanes. Traced runs attach the recorder to the system directly and so
// bypass the memoized engine, like RunTrace.
func schedTraceTable(o *Options, kind platform.Kind, policy string) (string, error) {
	inst, err := o.instance("amazon")
	if err != nil {
		return "", err
	}
	cfg := o.Cfg
	cfg.Sched.Policy = policy
	s, err := platform.NewSystem(kind, cfg, inst, 0)
	if err != nil {
		return "", err
	}
	s.BindContext(o.context())
	rec := trace.NewRecorder()
	s.SetTracer(rec)
	if _, err := s.Run(o.Batches); err != nil {
		return "", err
	}
	var b strings.Builder
	for _, line := range strings.Split(rec.BreakdownTable(), "\n") {
		if strings.HasPrefix(line, "resource") || strings.HasPrefix(line, "flash.") {
			fmt.Fprintf(&b, "   %s\n", line)
		}
	}
	return b.String(), nil
}

// RunSched executes the scheduler comparison: the (platform, policy)
// latency/throughput grid, then per-policy flash wait/service quantile
// tables from traced runs of the flagship platform.
func RunSched(o *Options, w io.Writer) error {
	o.fill()
	rep, err := BuildSchedReport(o)
	if err != nil {
		return err
	}
	kinds := schedKinds()
	pols := schedPolicies()
	fmt.Fprintf(w, "-- policy comparison (%s)\n", rep.Dataset)
	for ki, k := range kinds {
		fmt.Fprintf(w, "   %s\n", k)
		fmt.Fprintf(w, "   %-9s %12s %14s %14s %14s %10s\n",
			"policy", "targets/s", "cmd-life", "cmd-p50", "cmd-p99", "commands")
		for pi := range pols {
			c := rep.Cells[ki*len(pols)+pi]
			fmt.Fprintf(w, "   %-9s %12.0f %14v %14v %14v %10d\n",
				c.Policy, c.Throughput, c.CmdLifetime, c.CmdP50, c.CmdP99, c.Commands)
		}
	}
	flagship := platform.BG2
	fmt.Fprintf(w, "-- flash wait/service quantiles per policy (%s, traced)\n", flagship)
	for _, pol := range pols {
		tbl, err := schedTraceTable(o, flagship, pol)
		if err != nil {
			return fmt.Errorf("sched trace %s: %w", pol, err)
		}
		fmt.Fprintf(w, "   policy=%s\n", pol)
		fmt.Fprint(w, tbl)
	}
	fmt.Fprintln(w, "expect: fifo matches the default run exactly; sjf/totalfit trade tail latency for")
	fmt.Fprintln(w, "        mean latency on contended die queues; edf bounds queueing by command age")
	return nil
}
