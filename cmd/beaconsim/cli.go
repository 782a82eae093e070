package main

import (
	"flag"
	"fmt"
	"io"
	"strconv"
	"strings"

	"beacongnn/internal/cluster"
	"beacongnn/internal/config"
	"beacongnn/internal/dataset"
	"beacongnn/internal/platform"
	"beacongnn/internal/sim"
)

// cliConfig is the fully parsed and validated beaconsim command line.
type cliConfig struct {
	kinds       []platform.Kind
	dataset     dataset.Desc
	nodes       int
	batches     int
	parallel    int
	traceOut    string
	check       bool
	shards      int
	partitioner string
	cfg         config.Config
}

// parseCLI parses and validates the command line. All error reporting
// happens here (the flag package prints parse errors and usage to
// stderr itself; validation failures are printed once) so main can
// exit on any non-nil error without re-printing. flag.ErrHelp is
// returned as-is for a clean -h exit.
func parseCLI(args []string, stderr io.Writer) (*cliConfig, error) {
	fs := flag.NewFlagSet("beaconsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		plat     = fs.String("platform", "BG-2", "platform(s): CC, SmartSage, GList, BG-1, BG-DG, BG-SP, BG-DGSP, BG-2 — comma-separated, or 'all'")
		ds       = fs.String("dataset", "amazon", "dataset: reddit, amazon, movielens, OGBN, PPI")
		nodes    = fs.Int("nodes", 10000, "materialized graph nodes")
		batches  = fs.Int("batches", 6, "mini-batches to simulate")
		batch    = fs.Int("batch", 0, "mini-batch size (0 = paper default 64)")
		readLat  = fs.Duration("read-latency", 0, "flash read latency override (e.g. 20us; 0 = ULL 3µs)")
		chans    = fs.Int("channels", 0, "flash channel count override")
		dies     = fs.Int("dies", 0, "dies per channel override")
		cores    = fs.Int("cores", 0, "firmware core count override")
		seed     = fs.Uint64("seed", 0, "experiment seed override")
		parallel = fs.Int("parallel", 0, "concurrent simulations for platform lists (0 = all CPU cores)")
		traceOut = fs.String("trace", "", "write a Chrome trace_event JSON request trace to this file")
		check    = fs.Bool("check", false, "verify run invariants (conservation, drain, energy ledger); fail with a named diagnostic")
		sched    = fs.String("sched", "", "flash scheduling policy: fifo, sjf, edf, totalfit (default fifo)")
		shards   = fs.Int("shards", 0, "shard the graph across N simulated BG-2 devices behind a scatter-gather coordinator (0 = single-device platform simulation)")
		partit   = fs.String("partitioner", "", "shard placement policy for -shards: hash, locality (default hash)")

		faults    = fs.Bool("faults", false, "enable the NAND reliability model (fault injection, read-retry, recovery)")
		faultRBER = fs.Float64("fault-rber", 0, "base raw bit error rate override (0 = default)")
		faultPE   = fs.Int("fault-pe", 0, "initial P/E cycle count on every block (wear)")
		deadDies  = fs.String("fault-dead-dies", "", "comma-separated global die indices to inject as failed")
		deadChans = fs.String("fault-dead-channels", "", "comma-separated channel indices to inject as failed")

		stormStart = fs.Duration("fault-storm-start", 0, "uncorrectable-storm window start (simulated time)")
		stormEnd   = fs.Duration("fault-storm-end", 0, "uncorrectable-storm window end (simulated time)")
		stormRBER  = fs.Float64("fault-storm-rber", 0, "additive RBER excursion inside the storm window (enables the fault model)")
	)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	fail := func(format string, a ...any) (*cliConfig, error) {
		err := fmt.Errorf(format, a...)
		fmt.Fprintln(stderr, "beaconsim:", err)
		return nil, err
	}
	if fs.NArg() > 0 {
		return fail("unexpected arguments %q (flags only)", fs.Args())
	}
	if *nodes <= 0 {
		return fail("-nodes must be positive, got %d", *nodes)
	}
	if *batches <= 0 {
		return fail("-batches must be positive, got %d", *batches)
	}
	if *batch < 0 {
		return fail("-batch must be non-negative, got %d", *batch)
	}
	if *parallel < 0 {
		return fail("-parallel must be non-negative (0 = all CPU cores), got %d", *parallel)
	}
	if *shards < 0 {
		return fail("-shards must be non-negative (0 = single-device), got %d", *shards)
	}
	part := strings.ToLower(strings.TrimSpace(*partit))
	if part != "" && *shards == 0 {
		return fail("-partitioner requires -shards")
	}
	if *shards > 0 {
		if part == "" {
			part = cluster.PartitionHash
		}
		valid := false
		for _, name := range cluster.PartitionerNames() {
			if part == name {
				valid = true
			}
		}
		if !valid {
			return fail("-partitioner must be one of %v, got %q", cluster.PartitionerNames(), part)
		}
		if *traceOut != "" {
			return fail("-trace is not supported with -shards (the coordinator is not traced)")
		}
	}
	if *readLat < 0 {
		return fail("-read-latency must be non-negative, got %v", *readLat)
	}
	for _, f := range []struct {
		name string
		v    int
	}{{"-channels", *chans}, {"-dies", *dies}, {"-cores", *cores}, {"-fault-pe", *faultPE}} {
		if f.v < 0 {
			return fail("%s must be non-negative, got %d", f.name, f.v)
		}
	}
	// !(v >= 0) also rejects NaN, which every comparison would let through.
	if !(*faultRBER >= 0) {
		return fail("-fault-rber must be non-negative, got %g", *faultRBER)
	}
	if !(*stormRBER >= 0) {
		return fail("-fault-storm-rber must be non-negative, got %g", *stormRBER)
	}
	if *stormStart < 0 || *stormEnd < 0 {
		return fail("-fault-storm-start/-end must be non-negative")
	}
	if *stormRBER > 0 && *stormEnd <= *stormStart {
		return fail("-fault-storm-end (%v) must exceed -fault-storm-start (%v)", *stormEnd, *stormStart)
	}

	cfg := config.Default()
	if *batch > 0 {
		cfg.GNN.BatchSize = *batch
	}
	if *readLat > 0 {
		cfg.Flash.ReadLatency = sim.Duration(*readLat)
	}
	if *chans > 0 {
		cfg.Flash.Channels = *chans
	}
	if *dies > 0 {
		cfg.Flash.DiesPerChannel = *dies
	}
	if *cores > 0 {
		cfg.Firmware.Cores = *cores
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	if *sched != "" {
		cfg.Sched.Policy = strings.ToLower(strings.TrimSpace(*sched))
	}
	if *faults || *faultRBER > 0 || *faultPE > 0 || *deadDies != "" || *deadChans != "" || *stormRBER > 0 {
		cfg.Fault.Enabled = true
		if *faultRBER > 0 {
			cfg.Fault.BaseRBER = *faultRBER
		}
		if *faultPE > 0 {
			cfg.Fault.InitialPECycles = *faultPE
		}
		dd, err := parseInts(*deadDies)
		if err != nil {
			return fail("-fault-dead-dies: %v", err)
		}
		cfg.Fault.DeadDies = dd
		dc, err := parseInts(*deadChans)
		if err != nil {
			return fail("-fault-dead-channels: %v", err)
		}
		cfg.Fault.DeadChannels = dc
		if *stormRBER > 0 {
			cfg.Fault.StormStart = sim.Duration(*stormStart)
			cfg.Fault.StormEnd = sim.Duration(*stormEnd)
			cfg.Fault.StormRBER = *stormRBER
		}
	}
	if err := cfg.Validate(); err != nil {
		return fail("%v", err)
	}

	kinds, err := parsePlatforms(*plat)
	if err != nil {
		return fail("%v", err)
	}
	d, err := dataset.ByName(*ds)
	if err != nil {
		return fail("%v", err)
	}
	return &cliConfig{
		kinds:       kinds,
		dataset:     d,
		nodes:       *nodes,
		batches:     *batches,
		parallel:    *parallel,
		traceOut:    *traceOut,
		check:       *check,
		shards:      *shards,
		partitioner: part,
		cfg:         cfg,
	}, nil
}

// parseInts parses a comma-separated integer list ("" → nil).
func parseInts(s string) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad index %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}

// parsePlatforms expands "all" or a comma-separated platform list.
func parsePlatforms(s string) ([]platform.Kind, error) {
	if strings.EqualFold(s, "all") {
		return platform.All(), nil
	}
	var kinds []platform.Kind
	for _, name := range strings.Split(s, ",") {
		k, err := platform.ByName(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		kinds = append(kinds, k)
	}
	if len(kinds) == 0 {
		return nil, fmt.Errorf("beaconsim: no platforms given")
	}
	return kinds, nil
}
