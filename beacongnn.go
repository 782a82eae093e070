// Package beacongnn reproduces "BeaconGNN: Large-Scale GNN Acceleration
// with Out-of-Order Streaming In-Storage Computing" (HPCA 2024) as a
// self-contained, stdlib-only Go library.
//
// The package is the public facade over the internal substrates:
//
//   - a discrete-event SSD simulator (flash dies/channels, FTL, firmware
//     cores, DRAM, NVMe/PCIe) with ULL and conventional timing;
//   - the DirectGraph storage format (Section IV) with its Algorithm-1
//     builder, decoder, and security verification;
//   - the multi-level near-data engines (die samplers, channel command
//     router, bus-attached spatial accelerator — Section V);
//   - the eight evaluated GNN platforms (CC, SmartSage, GList, BG-1,
//     BG-DG, BG-SP, BG-DGSP, BG-2) and every experiment of Section VII.
//
// Quickstart:
//
//	cfg := beacongnn.DefaultConfig()
//	inst, _ := beacongnn.BuildDataset("amazon", 10000, cfg)
//	res, _ := beacongnn.Run(beacongnn.BG2, cfg, inst, 6)
//	fmt.Printf("%.0f targets/s\n", res.Throughput)
package beacongnn

import (
	"fmt"
	"io"
	"math"

	"beacongnn/internal/config"
	"beacongnn/internal/core"
	"beacongnn/internal/dataset"
	"beacongnn/internal/gnn"
	"beacongnn/internal/graph"
	"beacongnn/internal/platform"
	"beacongnn/internal/xrand"
)

// Config is the full platform configuration (re-exported; see
// internal/config for field documentation).
type Config = config.Config

// Result carries every measurement of one simulation run.
type Result = platform.Result

// Platform identifies one of the eight evaluated systems.
type Platform = platform.Kind

// Dataset is a materialized benchmark instance: the synthetic graph plus
// its DirectGraph build.
type Dataset = dataset.Instance

// The evaluated platforms, in Figure 14 order.
const (
	CC        = platform.CC
	SmartSage = platform.SmartSage
	GList     = platform.GList
	BG1       = platform.BG1
	BGDG      = platform.BGDG
	BGSP      = platform.BGSP
	BGDGSP    = platform.BGDGSP
	BG2       = platform.BG2
)

// Platforms returns every platform in Figure 14 order.
func Platforms() []Platform { return platform.All() }

// PlatformByName parses a platform name such as "BG-2".
func PlatformByName(name string) (Platform, error) { return platform.ByName(name) }

// DefaultConfig returns the paper's base configuration (Table II).
func DefaultConfig() Config { return config.Default() }

// TraditionalConfig returns the base configuration with a conventional
// 20 µs-read SSD backend (Section VII-E).
func TraditionalConfig() Config { return config.Traditional() }

// DatasetNames returns the five benchmark datasets in paper order.
func DatasetNames() []string {
	var out []string
	for _, d := range dataset.All() {
		out = append(out, d.Name)
	}
	return out
}

// BuildDataset materializes a named benchmark dataset (reddit, amazon,
// movielens, OGBN, PPI) at the given node scale and converts it to
// DirectGraph. nodes == 0 uses the default simulation scale.
func BuildDataset(name string, nodes int, cfg Config) (*Dataset, error) {
	d, err := dataset.ByName(name)
	if err != nil {
		return nil, err
	}
	return dataset.Materialize(d, nodes, cfg.Flash.PageSize, cfg.Seed)
}

// BuildCustomDataset materializes a synthetic dataset with explicit
// statistics, for workloads beyond the paper's five.
func BuildCustomDataset(name string, nodes int, avgDegree float64, featureDim int, powerLaw float64, cfg Config) (*Dataset, error) {
	d := dataset.Desc{
		Name: name, FullNodes: nodes, AvgDegree: avgDegree,
		MaxDegree: nodes - 1, FeatureDim: featureDim, PowerLaw: powerLaw,
	}
	return dataset.Materialize(d, nodes, cfg.Flash.PageSize, cfg.Seed)
}

// Run simulates numBatches mini-batches of the GNN task on the platform
// and returns the measurements.
func Run(p Platform, cfg Config, inst *Dataset, numBatches int) (*Result, error) {
	return platform.Simulate(p, cfg, inst, numBatches, 1024)
}

// Embed runs the functional GNN pipeline for one target node: a k-hop
// subgraph is sampled with the same TRNG+modulo procedure the die-level
// samplers implement, and the reference GraphSage-style forward pass
// (vector_sum aggregation + perceptron updates, Section II-A) produces
// the target's final embedding from the features in the DirectGraph
// image. Deterministic for a given seed.
func Embed(inst *Dataset, target int, cfg Config, seed uint64) ([]float32, error) {
	model, err := modelOver(inst, cfg)
	if err != nil {
		return nil, err
	}
	if target < 0 || target >= inst.Graph.NumNodes() {
		return nil, fmt.Errorf("beacongnn: target %d out of range", target)
	}
	sg, err := graph.SampleSubgraph(inst.Graph, graph.NodeID(target),
		graph.SampleSpec{Hops: model.Hops, Fanout: model.Fanout}, xrand.New(seed))
	if err != nil {
		return nil, err
	}
	return gnn.Forward(inst.Build, sg, gnn.NewWeights(model, seed))
}

// modelOver returns cfg's GNN model over inst's features. It rejects an
// instance without its graph or its DirectGraph image, which holds the
// features.
func modelOver(inst *Dataset, cfg Config) (gnn.Model, error) {
	if inst == nil || inst.Graph == nil || inst.Build == nil {
		return gnn.Model{}, fmt.Errorf("beacongnn: need an instance with its graph and DirectGraph build")
	}
	return gnn.Model{
		Hops:      cfg.GNN.Hops,
		Fanout:    cfg.GNN.Fanout,
		InputDim:  inst.Desc.FeatureDim,
		HiddenDim: cfg.GNN.HiddenDim,
	}, nil
}

// Train runs a teacher–student functional training loop: a frozen
// "teacher" model (seeded with seed+1) labels each sampled target, and
// the student's weights follow SGD on the squared error. It returns the
// per-step losses, which decrease as the student approximates the
// teacher — an end-to-end correctness demonstration of the GNN compute
// the simulated accelerator executes (gradients are finite-difference
// verified in the test suite). A step whose loss is not finite ends the
// run with an error: the learning rate made the student diverge.
func Train(inst *Dataset, steps int, lr float32, cfg Config, seed uint64) ([]float32, error) {
	model, err := modelOver(inst, cfg)
	if err != nil {
		return nil, err
	}
	if steps <= 0 || !(lr > 0) || math.IsInf(float64(lr), 1) {
		return nil, fmt.Errorf("beacongnn: Train needs positive steps and a positive finite lr, got %d and %v", steps, lr)
	}
	teacher := gnn.NewWeights(model, seed+1)
	student := gnn.NewWeights(model, seed)
	rng := xrand.New(seed + 2)
	spec := graph.SampleSpec{Hops: model.Hops, Fanout: model.Fanout}
	losses := make([]float32, 0, steps)
	for i := 0; i < steps; i++ {
		target := graph.NodeID(rng.Intn(inst.Graph.NumNodes()))
		sg, err := graph.SampleSubgraph(inst.Graph, target, spec, rng)
		if err != nil {
			return nil, err
		}
		label, err := gnn.Forward(inst.Build, sg, teacher)
		if err != nil {
			return nil, err
		}
		loss, grads, err := gnn.LossAndGradients(inst.Build, sg, student, label)
		if err != nil {
			return nil, err
		}
		if math.IsNaN(float64(loss)) || math.IsInf(float64(loss), 0) {
			return nil, fmt.Errorf("beacongnn: Train diverged at step %d (loss %v); lower lr %v", i, loss, lr)
		}
		if err := gnn.SGDStep(student, grads, lr); err != nil {
			return nil, err
		}
		losses = append(losses, loss)
	}
	return losses, nil
}

// Experiment identifiers accepted by RunExperiment, in paper order.
func ExperimentIDs() []string {
	var out []string
	for _, e := range core.Experiments() {
		out = append(out, e.ID)
	}
	return out
}

// RunExperiment regenerates one of the paper's tables/figures ("fig14",
// "table4", ..., or "all"), writing a formatted report to w. Quick mode
// shrinks scales and sweeps for fast runs.
func RunExperiment(id string, quick bool, w io.Writer) error {
	o := &core.Options{Quick: quick}
	if id == "all" {
		return core.RunAll(o, w)
	}
	e, err := core.ByID(id)
	if err != nil {
		return err
	}
	return e.Run(o, w)
}
