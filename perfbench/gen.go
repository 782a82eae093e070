package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"

	"beacongnn/internal/platform"
	"beacongnn/internal/serve"
)

// Request generation. Every workload's inputs are a pure function of
// the --seed argument. The generator uses math/rand/v2 rather than the
// program's own RNG, so a change to the program never changes the
// benchmark's inputs. The platform/dataset mix is fixed: each block of
// ops holds every combination exactly once, so only the order and the
// keys vary with the seed, never the amount of work.

const (
	// mixNodes is the serve-cold/serve-hot instance scale (the daemon's
	// default); mixBatches is the mini-batch count of their simulations.
	mixNodes   = 10_000
	mixBatches = 4

	// churnNodes/churnBatches size serve-churn's requests: a new
	// instance at tens of thousands of nodes, with a 1-batch simulation
	// so graph generation and the DirectGraph build dominate.
	churnNodes   = 20_000
	churnBatches = 1

	// jitterNS bounds the read-latency offset that gives every
	// serve-cold/serve-hot key its own config digest: offsets are drawn
	// without repetition from [-jitterNS, jitterNS] \ {0} around
	// config.Default()'s 3 µs, so the mean simulated latency, and with it
	// the mean host work, stays that of the default config.
	jitterNS           = 1024
	defaultReadLatency = 3000
)

// mixDatasets are the datasets of the serving mix: the representative
// (amazon), the high-degree/long-feature (reddit) and the low-degree
// (OGBN) shapes.
var mixDatasets = []string{"amazon", "reddit", "OGBN"}

// simOp is one generated POST /v1/simulate request.
type simOp struct {
	Platform      string
	Dataset       string
	Nodes         int
	Batches       int
	Seed          uint64 // 0 = the daemon's default seed
	ReadLatencyNS int64  // 0 = the default sense latency
}

func (o simOp) String() string {
	return fmt.Sprintf("%s/%s/n%d/b%d/s%d/rl%d", o.Platform, o.Dataset, o.Nodes, o.Batches, o.Seed, o.ReadLatencyNS)
}

// body is the request's JSON, built from the daemon's own request type.
func (o simOp) body() []byte {
	b, err := json.Marshal(serve.SimRequest{
		Platform:      o.Platform,
		Dataset:       o.Dataset,
		Nodes:         o.Nodes,
		Batches:       o.Batches,
		Seed:          o.Seed,
		ReadLatencyNS: o.ReadLatencyNS,
	})
	if err != nil {
		panic(err) // a struct of strings and integers always encodes
	}
	return b
}

// combos is the fixed serving mix: every platform on every mix dataset.
func combos() []simOp {
	var out []simOp
	for _, k := range platform.All() {
		for _, d := range mixDatasets {
			out = append(out, simOp{Platform: k.String(), Dataset: d, Nodes: mixNodes, Batches: mixBatches})
		}
	}
	return out
}

func newRand(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15^stream))
}

// Generator streams: one per workload, so the workloads' keys are
// independent of each other for the same seed.
const (
	streamCold = iota + 1
	streamHot
	streamChurn
)

// jitters returns n distinct non-zero read-latency offsets.
func jitters(r *rand.Rand, n int) ([]int64, error) {
	if n > 2*jitterNS {
		return nil, fmt.Errorf("%d distinct keys requested, the jitter range holds %d", n, 2*jitterNS)
	}
	perm := r.Perm(2*jitterNS + 1)
	out := make([]int64, 0, n)
	for _, p := range perm {
		if d := int64(p - jitterNS); d != 0 {
			out = append(out, d)
			if len(out) == n {
				break
			}
		}
	}
	return out, nil
}

// shuffledBlocks returns blocks*size indices: each block a seeded
// permutation of [0, size).
func shuffledBlocks(r *rand.Rand, blocks, size int) []int {
	out := make([]int, 0, blocks*size)
	for b := 0; b < blocks; b++ {
		out = append(out, r.Perm(size)...)
	}
	return out
}

// coldOps returns blocks×24 serve-cold requests: the mix in seeded
// order, each with its own read-latency offset, so no two share a
// config digest and every one misses the result memo while hitting one
// of the three instances warmed during setup.
func coldOps(seed uint64, blocks int) ([]simOp, error) {
	r := newRand(seed, streamCold)
	mix := combos()
	order := shuffledBlocks(r, blocks, len(mix))
	js, err := jitters(r, len(order))
	if err != nil {
		return nil, err
	}
	out := make([]simOp, len(order))
	for i, c := range order {
		out[i] = mix[c]
		out[i].ReadLatencyNS = defaultReadLatency + js[i]
	}
	return out, nil
}

// hotKeys returns serve-hot's resident key set, one key per mix
// combination, and the op sequence: blocks×24 indices into the keys.
func hotKeys(seed uint64, blocks int) (keys []simOp, seq []int, err error) {
	r := newRand(seed, streamHot)
	keys = combos()
	js, err := jitters(r, len(keys))
	if err != nil {
		return nil, nil, err
	}
	for i := range keys {
		keys[i].ReadLatencyNS = defaultReadLatency + js[i]
	}
	return keys, shuffledBlocks(r, blocks, len(keys)), nil
}

// churnFillDatasets is the fixed dataset sequence of serve-churn's
// cache fill, so set-up work does not depend on the seed. It has as
// many entries as the daemon's instance cache (8 by default), so every
// timed request evicts.
var churnFillDatasets = []string{"amazon", "reddit", "OGBN", "amazon", "reddit", "OGBN", "amazon", "reddit"}

// churnOps returns serve-churn's cache-fill requests and
// blocks×3 timed requests (each block every mix dataset once, in seeded
// order). Every request names a (dataset, seed) pair never named
// before in the run, so each misses the instance cache.
func churnOps(seed uint64, blocks int) (fill, ops []simOp) {
	r := newRand(seed, streamChurn)
	seen := map[uint64]bool{0: true}
	next := func(d string) simOp {
		s := r.Uint64()
		for seen[s] {
			s = r.Uint64()
		}
		seen[s] = true
		return simOp{Platform: platform.BG2.String(), Dataset: d, Nodes: churnNodes, Batches: churnBatches, Seed: s}
	}
	for _, d := range churnFillDatasets {
		fill = append(fill, next(d))
	}
	for _, i := range shuffledBlocks(r, blocks, len(mixDatasets)) {
		ops = append(ops, next(mixDatasets[i]))
	}
	return fill, ops
}
