package cluster

import (
	"fmt"

	"beacongnn/internal/dataset"
	"beacongnn/internal/directgraph"
	"beacongnn/internal/flash"
	"beacongnn/internal/graph"
	"beacongnn/internal/platform"
	"beacongnn/internal/sim"
	"beacongnn/internal/xrand"
)

// Wire-format sizes for coordinator↔device messages. Scatter entries
// carry (node id, hop spec, completion tag); gather entries carry the
// sampled neighbor ids or the feature payload.
const (
	scatterEntryBytes = 16
	childEntryBytes   = 4
	// replChunkBytes is the re-replication stream's chunk size: small
	// enough that foreground gathers interleave between chunks on the
	// backup's egress port, large enough to amortize the wire latency.
	replChunkBytes = 256 << 10
)

// run is the live state of one cluster simulation: a single-threaded
// kernel driving N flash backends and a fabric, advanced entirely by
// continuations so one k.Run() covers every batch. The sampled workload
// (targets and neighbor draws) is a pure function of the seed, so the
// event machinery only decides *when* things happen, never *what*.
type run struct {
	cfg  Config
	inst *dataset.Instance
	part *directgraph.Partitioned

	k       *sim.Kernel
	fab     *sim.Fabric
	devices []*flash.Backend
	coord   int // fabric endpoint index of the coordinator

	owners []int32 // live ownership table (changes on failure handover)
	dead   []bool

	sampleExtra  sim.Time
	featureExtra sim.Time

	res *Result

	// failure drill
	backup   int
	degraded bool // inside the failure→re-replication window
	failAt   sim.Time

	finishAt sim.Time
}

func newRun(c Config, inst *dataset.Instance, pt Partitioner) (*run, error) {
	g := inst.Graph
	degrees := make([]int, g.NumNodes())
	for v := range degrees {
		degrees[v] = g.Degree(graph.NodeID(v))
	}
	layout := directgraph.Layout{PageSize: c.Cfg.Flash.PageSize, FeatureDim: g.FeatureDim()}
	part, err := directgraph.BuildPartitioned(layout, degrees, c.Shards, pt.Owner)
	if err != nil {
		return nil, err
	}
	k := sim.New()
	r := &run{
		cfg:          c,
		inst:         inst,
		part:         part,
		k:            k,
		fab:          sim.NewFabric(k, c.Shards+1, c.FabricBandwidth, c.FabricLatency),
		devices:      make([]*flash.Backend, c.Shards),
		coord:        c.Shards,
		owners:       append([]int32(nil), part.Owner...),
		dead:         make([]bool, c.Shards),
		sampleExtra:  platform.DeviceSampleExtra(c.Cfg, c.Cfg.GNN.Fanout),
		featureExtra: platform.DeviceFeatureExtra(c.Cfg),
		backup:       -1,
	}
	for s := range r.devices {
		b, err := flash.New(k, c.Cfg.Flash, 0)
		if err != nil {
			return nil, fmt.Errorf("cluster: shard %d backend: %w", s, err)
		}
		if s > 0 {
			b.ShareFreeLists(r.devices[0])
		}
		r.devices[s] = b
	}
	r.res = &Result{
		Shards:      c.Shards,
		Partitioner: pt.Name(),
		Dataset:     inst.Desc.Name,
		Nodes:       g.NumNodes(),
		Batches:     c.Batches,
		Targets:     c.Cfg.GNN.BatchSize,
	}
	return r, nil
}

// draw derives a deterministic pseudo-random 64-bit value for one
// sampling decision. Keys are position-based — (batch, round, entry,
// draw) — so the workload is identical no matter how many shards serve
// it or how events interleave.
func (r *run) draw(batch, round, entry, j int) uint64 {
	key := uint64(batch)<<48 ^ uint64(round)<<40 ^ uint64(entry)<<8 ^ uint64(j)
	return xrand.SplitMix64(r.cfg.Seed ^ xrand.SplitMix64(key))
}

// targets returns batch b's seed nodes.
func (r *run) targets(b int) []graph.NodeID {
	n := uint64(r.inst.Graph.NumNodes())
	out := make([]graph.NodeID, r.cfg.Cfg.GNN.BatchSize)
	for j := range out {
		out[j] = graph.NodeID(r.draw(b, -1, 0, j) % n)
	}
	return out
}

func (r *run) run() (*Result, error) {
	r.k.At(0, func() { r.startBatch(0) })
	r.k.Run()
	r.devices[0].Release() // the shards share one free list
	res, err := r.finalize()
	r.k.ReleaseServers()
	return res, err
}

func (r *run) startBatch(b int) {
	if r.cfg.Fail && b == r.cfg.FailAfterBatch && !r.res.Failed {
		r.failShard(r.cfg.FailShard)
	}
	r.startRound(b, 0, r.targets(b))
}

// fetch is one frontier entry as a device sees it: the node plus the
// shard-local pages its round touches (primary + any secondary sections
// the sampled indices land in).
type fetch struct {
	node  graph.NodeID
	pages []uint32
}

// startRound scatters the frontier to its owning shards, lets each
// device stream the reads, and gathers per-shard results. Children for
// the next round are computed synchronously here, in frontier order, so
// the merge is deterministic by construction — the event machinery only
// decides when the round's clock barrier falls.
func (r *run) startRound(b, round int, frontier []graph.NodeID) {
	g := r.inst.Graph
	hops := r.cfg.Cfg.GNN.Hops
	fanout := r.cfg.Cfg.GNN.Fanout
	sampling := round < hops

	// Group the frontier by serving shard, preserving frontier order,
	// draw each entry's children (sampling rounds only), and resolve the
	// shard-local pages each entry's draws touch.
	perShard := make([][]fetch, r.cfg.Shards)
	var next []graph.NodeID
	if sampling {
		next = make([]graph.NodeID, 0, len(frontier)*fanout)
	}
	for i, v := range frontier {
		s := int(r.owners[v])
		home := int(r.part.Owner[v]) // plans live with the original owner
		build := r.part.Shards[home].Build
		plan := &build.Plans[r.part.LocalIndex[v]]
		f := fetch{node: v, pages: []uint32{build.Layout.Page(plan.Primary)}}
		if sampling {
			deg := g.Degree(v)
			if deg > 0 {
				nbrs := g.Neighbors(v)
				for j := 0; j < fanout; j++ {
					idx := int(r.draw(b, round, i, j) % uint64(deg))
					u := nbrs[idx]
					r.res.Samples++
					if r.owners[u] != r.owners[v] {
						r.res.CrossChildren++
					}
					next = append(next, u)
					if idx >= plan.InlineCount {
						sec := plan.SecondaryIndexFor(idx)
						pg := build.Layout.Page(plan.Secondaries[sec])
						if !containsPage(f.pages, pg) {
							f.pages = append(f.pages, pg)
						}
					}
				}
			}
		}
		perShard[s] = append(perShard[s], f)
	}

	pending := 0
	for s := range perShard {
		if len(perShard[s]) > 0 {
			pending++
		}
	}
	roundDone := func() {
		r.k.After(r.cfg.Cfg.Host.HopRoundTrip, func() {
			if sampling {
				r.startRound(b, round+1, next)
			} else {
				r.finishBatch(b)
			}
		})
	}
	if pending == 0 {
		roundDone()
		return
	}
	for s := range perShard {
		entries := perShard[s]
		if len(entries) == 0 {
			continue
		}
		shard := s
		gatherBytes := len(entries) * r.gatherEntryBytes(sampling)
		r.fab.Send(r.coord, shard, len(entries)*scatterEntryBytes, func() {
			r.execute(shard, entries, sampling, func() {
				r.fab.Send(shard, r.coord, gatherBytes, func() {
					pending--
					if pending == 0 {
						roundDone()
					}
				})
			})
		})
	}
}

func (r *run) gatherEntryBytes(sampling bool) int {
	if sampling {
		return r.cfg.Cfg.GNN.Fanout * childEntryBytes
	}
	return directgraph.Layout{PageSize: r.cfg.Cfg.Flash.PageSize, FeatureDim: r.inst.Graph.FeatureDim()}.FeatureBytes()
}

func containsPage(pages []uint32, pg uint32) bool {
	for _, p := range pages {
		if p == pg {
			return true
		}
	}
	return false
}

// execute streams one shard's slice of the round onto its device: every
// entry's pages are issued at once so the device's die queues reorder
// freely (the out-of-order streaming the BG-2 model is built on). done
// fires when the last page read completes.
func (r *run) execute(s int, entries []fetch, sampling bool, done func()) {
	dev := r.devices[s]
	extra := r.featureExtra
	if sampling {
		extra = r.sampleExtra
	}

	pendingReads := 0
	for _, f := range entries {
		if int(r.owners[f.node]) != s {
			r.res.OwnershipViolations++
		}
		r.res.Fetches++
		// A relocated node (original owner dead) is served from the
		// backup's replica; while the re-replication stream is still
		// moving, that serve is degraded.
		if r.degraded && r.dead[r.part.Owner[f.node]] {
			r.res.DegradedFetches++
		}
		for _, pg := range f.pages {
			pendingReads++
			dev.ReadPage(pg, extra, nil, func() {
				pendingReads--
				if pendingReads == 0 {
					done()
				}
			})
		}
	}
	if pendingReads == 0 {
		done()
	}
}

func (r *run) finishBatch(b int) {
	if b+1 < r.cfg.Batches {
		r.startBatch(b + 1)
		return
	}
	r.finishAt = r.k.Now()
}

// failShard marks shard f dead, hands its ownership to the backup, and
// starts the chunked re-replication stream that rebuilds redundancy on
// the next survivor. Serving continues immediately — relocated nodes are
// served from the backup's replica, counted degraded until the move
// completes.
func (r *run) failShard(f int) {
	r.res.Failed = true
	r.res.FailShard = f
	r.dead[f] = true
	r.backup = (f + 1) % r.cfg.Shards
	r.res.BackupShard = r.backup
	r.degraded = true
	r.failAt = r.k.Now()

	// Atomic ownership handover: the backup owns everything the failed
	// shard owned. Local plan indices are unchanged — the replica is a
	// byte-identical copy of the failed shard's layout.
	for v := range r.owners {
		if int(r.owners[v]) == f {
			r.owners[v] = int32(r.backup)
		}
	}

	// Re-replicate the lost shard's footprint from the backup onto the
	// next survivor, chunked so foreground gathers interleave.
	target := (r.backup + 1) % r.cfg.Shards
	for r.dead[target] {
		target = (target + 1) % r.cfg.Shards
	}
	total := r.part.ShardBytes(f)
	r.res.MovedBytes = total
	var sendChunk func(remaining int64)
	sendChunk = func(remaining int64) {
		n := int64(replChunkBytes)
		if n > remaining {
			n = remaining
		}
		r.fab.Send(r.backup, target, int(n), func() {
			if remaining > n {
				sendChunk(remaining - n)
				return
			}
			r.degraded = false
			r.res.RebalanceNs = int64(r.k.Now() - r.failAt)
		})
	}
	if total > 0 {
		sendChunk(total)
	} else {
		r.degraded = false
	}
}

func (r *run) finalize() (*Result, error) {
	res := r.res
	res.ElapsedNs = int64(r.finishAt)
	if res.ElapsedNs > 0 {
		res.Throughput = float64(res.Targets*res.Batches) / (float64(res.ElapsedNs) / 1e9)
	}
	if res.Samples > 0 {
		res.CrossFrac = float64(res.CrossChildren) / float64(res.Samples)
	}
	res.FabricBytes = r.fab.BytesTotal()
	res.FabricMsgs = r.fab.Messages()
	res.ShardReads = make([]uint64, r.cfg.Shards)
	var sum, max uint64
	served := 0
	for s, d := range r.devices {
		res.ShardReads[s] = d.Reads()
		if res.ShardReads[s] > 0 {
			served++
			sum += res.ShardReads[s]
			if res.ShardReads[s] > max {
				max = res.ShardReads[s]
			}
		}
	}
	if served > 0 {
		res.ReadImbalance = float64(max) / (float64(sum) / float64(served))
	}
	// part.Owner is the partitioner's assignment, untouched by a
	// failure handover (which rewrites r.owners).
	res.IntraEdgeFrac = intraEdgeFraction(r.inst.Graph, r.part.Owner)
	if res.Fetches > 0 {
		res.Availability = 1 - float64(res.DegradedFetches)/float64(res.Fetches)
	} else {
		res.Availability = 1
	}
	return res, nil
}
