// Package core orchestrates the paper's experiments: it binds datasets,
// platform simulations, and formatting into one runner per table/figure
// of the evaluation section (Section VII). The beaconbench binary and
// the repository's benchmark suite are thin wrappers over this package.
package core

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"sort"

	"beacongnn/internal/config"
	"beacongnn/internal/dataset"
	"beacongnn/internal/exp"
	"beacongnn/internal/platform"
)

// Options tunes experiment execution. The zero value is completed by
// (*Options).fill: paper-base config, 10 000-node instances, 6 batches,
// one simulation worker per CPU core.
type Options struct {
	Cfg        config.Config
	ScaleNodes int  // materialized node count per dataset
	Batches    int  // mini-batches per simulation
	Quick      bool // shrink sweeps for CI-speed runs
	Workers    int  // concurrent simulations (0 = GOMAXPROCS, 1 = sequential)
	Check      bool // verify run invariants on every simulation (-check)

	// FullResim disables the engine's result memo, forcing every
	// requested simulation to run from scratch (-full-resim). Memoized
	// and full runs are byte-identical by construction; this switch
	// exists to prove it.
	// Only applies to the private engine — a shared Engine is left as
	// its owner configured it.
	FullResim bool

	// Ctx, when set, bounds every simulation, materialization and
	// worker-slot wait the runners request: cancellation or deadline
	// expiry aborts in-flight event loops and fails the experiment with
	// the context's error. Nil means
	// context.Background() — the CLI batch behaviour. The serving layer
	// sets it to the HTTP request context.
	Ctx context.Context

	// Engine, when set, is used instead of a private engine — the
	// serving layer shares one pool, one memo and one instance cache
	// across all requests.
	Engine *exp.Engine

	filled bool
	eng    *exp.Engine
}

// context returns the Options' simulation context.
func (o *Options) context() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

func (o *Options) fill() {
	if o.filled {
		return
	}
	if o.Cfg.Flash.Channels == 0 {
		o.Cfg = config.Default()
	}
	if o.ScaleNodes == 0 {
		o.ScaleNodes = 10_000
	}
	if o.Batches == 0 {
		o.Batches = 6
	}
	if o.Quick {
		if o.ScaleNodes > 4000 {
			o.ScaleNodes = 4000
		}
		o.Batches = 3
	}
	if o.Engine != nil {
		o.eng = o.Engine
	} else {
		o.eng = exp.New(o.Workers)
		if o.Check {
			o.eng.EnableChecks()
		}
		if o.FullResim {
			o.eng.DisableMemo()
		}
	}
	o.filled = true
}

// engine returns the Options' parallel experiment engine, creating it on
// first use. Every simulation a runner requests goes through it, so a
// given (platform, dataset, config) triple is simulated at most once per
// Options value regardless of how many figures need it.
func (o *Options) engine() *exp.Engine {
	o.fill()
	return o.eng
}

// Experiment is one reproducible table or figure.
type Experiment struct {
	ID    string
	Title string
	Run   func(o *Options, w io.Writer) error
}

// Experiments returns every experiment in paper order.
func Experiments() []Experiment {
	return []Experiment{
		{"table2", "Table II: platform configuration", RunTable2},
		{"table3", "Table III: dataset statistics (reconstructed)", RunTable3},
		{"fig7", "Figure 7a: page-granular channel contention", RunFig7},
		{"fig14", "Figure 14: throughput across platforms and datasets", RunFig14},
		{"fig15", "Figure 15a-e: flash resource utilization", RunFig15},
		{"fig15f", "Figure 15f: overall latency breakdown (amazon)", RunFig15f},
		{"fig16", "Figure 16: hop timeline overlap (amazon)", RunFig16},
		{"fig17", "Figure 17: command latency breakdown (amazon)", RunFig17},
		{"fig18", "Figure 18: sensitivity sweeps (amazon)", RunFig18},
		{"fig19", "Figure 19: energy breakdown and efficiency (amazon)", RunFig19},
		{"trad", "Section VII-E: traditional (20 µs) SSD throughput", RunTraditional},
		{"table4", "Table IV: DirectGraph storage inflation", RunTable4},
		{"ext", "Extensions: ablations, construction, interference", RunExtensions},
	}
}

// AllExperiments returns every runnable experiment: the paper set plus
// the studies that are not part of the default `all` reproduction run
// (the reliability sweep perturbs the fault model, not the paper's
// evaluation axes).
func AllExperiments() []Experiment {
	return append(Experiments(),
		Experiment{"reliab", "Reliability: throughput and latency vs wear, RBER, and outages", RunReliability},
		Experiment{"sched", "Scheduling: flash queueing policies (fifo/sjf/edf/totalfit)", RunSched},
		Experiment{"chaos", "Chaos: availability, goodput, and MTTR under injected faults", RunChaos},
		Experiment{"capacity", "Capacity: open-loop SLO capacity curves and saturation knees", RunCapacity},
		Experiment{"cluster", "Cluster: sharded multi-device scaling, cross-shard traffic, failure rebalance", RunCluster},
	)
}

// ByID returns the experiment with the given id.
func ByID(id string) (Experiment, error) {
	for _, e := range AllExperiments() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("core: unknown experiment %q (use one of %v)", id, ids())
}

func ids() []string {
	var out []string
	for _, e := range AllExperiments() {
		out = append(out, e.ID)
	}
	return out
}

// RunAll executes every experiment. The experiments run concurrently —
// each into its own buffer, sharing the Options' simulation engine and
// caches — and the buffers are flushed to w in paper order, so the
// output is byte-identical to a sequential run.
func RunAll(o *Options, w io.Writer) error {
	o.fill()
	exps := Experiments()
	bufs, err := exp.Map(exps, func(e Experiment) (*bytes.Buffer, error) {
		var b bytes.Buffer
		fmt.Fprintf(&b, "\n===== %s — %s =====\n", e.ID, e.Title)
		if err := e.Run(o, &b); err != nil {
			return nil, fmt.Errorf("%s: %w", e.ID, err)
		}
		return &b, nil
	})
	if err != nil {
		return err
	}
	for _, b := range bufs {
		if _, err := w.Write(b.Bytes()); err != nil {
			return err
		}
	}
	return nil
}

// instanceAt fetches (materializing on first use) a dataset instance
// for an explicit page size and seed from the Options' engine, keyed by
// everything Materialize depends on — sweeps that mutate the page size
// or seed get their own entries, and a changed scale or seed can never
// return a stale instance. The cache stays on even under FullResim:
// materialization is deterministic in its key.
func (o *Options) instanceAt(name string, pageSize int, seed uint64) (*dataset.Instance, error) {
	o.fill()
	return o.eng.Instance(o.context(), name, o.ScaleNodes, pageSize, seed)
}

func (o *Options) instance(name string) (*dataset.Instance, error) {
	o.fill()
	return o.instanceAt(name, o.Cfg.Flash.PageSize, o.Cfg.Seed)
}

// simTimeline is the utilization-timeline resolution every runner
// requests. Timeline points only control how many utilization samples a
// run retains — they never alter event scheduling or any printed number
// (MeanDies/MeanChannels are exact integrals) — so a single shared
// resolution is output-invariant while letting every figure share one
// memo entry per (platform, dataset, config) instead of splitting the
// cache over timeline variants.
const simTimeline = 512

// simulate runs one platform on a named dataset under the Options'
// config, memoized and throttled by the engine.
func (o *Options) simulate(k platform.Kind, name string, timeline int) (*platform.Result, error) {
	o.fill()
	return o.simulateCfg(k, o.Cfg, name, timeline)
}

// simulateCfg is simulate with an explicit configuration, for runners
// that perturb the base config (sweeps, the traditional-SSD study).
func (o *Options) simulateCfg(k platform.Kind, cfg config.Config, name string, timeline int) (*platform.Result, error) {
	o.fill()
	inst, err := o.instanceAt(name, cfg.Flash.PageSize, cfg.Seed)
	if err != nil {
		return nil, err
	}
	return o.engine().SimulateCtx(o.context(), k, cfg, inst, o.Batches, timeline)
}

// simulateGrid fans every (dataset, platform) pair out across the
// engine and returns results indexed [dataset][platform] in input
// order, ready for deterministic formatting.
func (o *Options) simulateGrid(cfg config.Config, datasets []string, kinds []platform.Kind, timeline int) ([][]*platform.Result, error) {
	o.fill()
	type cell struct{ d, k int }
	var cells []cell
	for di := range datasets {
		for ki := range kinds {
			cells = append(cells, cell{di, ki})
		}
	}
	flat, err := exp.Map(cells, func(c cell) (*platform.Result, error) {
		return o.simulateCfg(kinds[c.k], cfg, datasets[c.d], timeline)
	})
	if err != nil {
		return nil, err
	}
	grid := make([][]*platform.Result, len(datasets))
	for i, c := range cells {
		if grid[c.d] == nil {
			grid[c.d] = make([]*platform.Result, len(kinds))
		}
		grid[c.d][c.k] = flat[i]
	}
	return grid, nil
}

// simulateOn fans every platform in kinds out on one dataset and
// returns results in kinds order.
func (o *Options) simulateOn(cfg config.Config, name string, kinds []platform.Kind, timeline int) ([]*platform.Result, error) {
	grid, err := o.simulateGrid(cfg, []string{name}, kinds, timeline)
	if err != nil {
		return nil, err
	}
	return grid[0], nil
}

// datasetNames returns every benchmark dataset name in paper order.
func datasetNames() []string {
	var out []string
	for _, d := range dataset.All() {
		out = append(out, d.Name)
	}
	return out
}

// normalizeTo divides every value by the base key's value.
func normalizeTo(m map[string]float64, base string) map[string]float64 {
	out := make(map[string]float64, len(m))
	b := m[base]
	for k, v := range m {
		if b > 0 {
			out[k] = v / b
		}
	}
	return out
}

// sortedKeys returns a map's keys in sorted order (deterministic output).
func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
