// Package cluster scales the single-device BeaconGNN model out: the
// DirectGraph is partitioned across N simulated BG-2 devices, a
// coordinator scatter-gathers multi-hop GraphSage sampling across them
// over a modelled PCIe/NVMe fabric, and a simulated device failure
// triggers shard re-replication onto survivors with degraded-mode
// serving during the move. One run is one single-threaded sim.Kernel,
// so results are deterministic at any host parallelism.
package cluster

import (
	"fmt"
	"sort"

	"beacongnn/internal/graph"
	"beacongnn/internal/xrand"
)

// Partitioner assigns every node to exactly one owning shard. Owner
// must be a pure function of the node id (and the partitioner's own
// construction inputs), so ownership is stable under re-evaluation with
// the same shard count.
type Partitioner interface {
	Name() string
	Shards() int
	Owner(v graph.NodeID) int
}

// Partitioner names accepted by NewPartitioner.
const (
	PartitionHash     = "hash"
	PartitionLocality = "locality"
)

// PartitionerNames lists the pluggable partitioning policies.
func PartitionerNames() []string { return []string{PartitionHash, PartitionLocality} }

// HashPartitioner places node v on shard xrand.SplitMix64(v) mod N: uniform
// in expectation, oblivious to topology, and trivially stable — the
// same (node, N) always lands on the same shard.
type HashPartitioner struct {
	shards int
}

// NewHashPartitioner returns a hash partitioner over n shards.
func NewHashPartitioner(n int) *HashPartitioner { return &HashPartitioner{shards: n} }

// Name implements Partitioner.
func (p *HashPartitioner) Name() string { return PartitionHash }

// Shards implements Partitioner.
func (p *HashPartitioner) Shards() int { return p.shards }

// Owner implements Partitioner.
func (p *HashPartitioner) Owner(v graph.NodeID) int {
	return int(xrand.SplitMix64(uint64(uint32(v))) % uint64(p.shards))
}

// LocalityPartitioner keeps high-degree neighborhoods co-resident: it
// walks nodes in descending degree order and pulls each hub's
// still-unassigned neighbors onto the hub's shard, bounded by a
// per-shard balance cap, with everything left over falling back to the
// least-loaded shard. Built once from the topology; Owner is then a
// table lookup, deterministic in (graph, N).
type LocalityPartitioner struct {
	shards int
	owner  []int32
}

// localitySlackPct is how far past perfect balance a shard may grow
// (percent) while absorbing a hub's neighborhood. Small enough that
// read load stays near-uniform, large enough that hot 1-hop
// neighborhoods stay intra-shard.
const localitySlackPct = 15

// NewLocalityPartitioner builds the assignment table for g over n
// shards.
func NewLocalityPartitioner(g *graph.Graph, n int) *LocalityPartitioner {
	nodes := g.NumNodes()
	owner := make([]int32, nodes)
	for i := range owner {
		owner[i] = -1
	}
	load := make([]int, n)
	cap := (nodes*(100+localitySlackPct))/(100*n) + 1

	order := make([]graph.NodeID, nodes)
	for i := range order {
		order[i] = graph.NodeID(i)
	}
	sort.Slice(order, func(i, j int) bool {
		di, dj := g.Degree(order[i]), g.Degree(order[j])
		if di != dj {
			return di > dj
		}
		return order[i] < order[j]
	})

	leastLoaded := func() int {
		best := 0
		for s := 1; s < n; s++ {
			if load[s] < load[best] {
				best = s
			}
		}
		return best
	}
	for _, v := range order {
		if owner[v] < 0 {
			s := leastLoaded()
			owner[v] = int32(s)
			load[s]++
		}
		s := int(owner[v])
		if load[s] >= cap {
			continue
		}
		for _, u := range g.Neighbors(v) {
			if owner[u] >= 0 {
				continue
			}
			owner[u] = int32(s)
			load[s]++
			if load[s] >= cap {
				break
			}
		}
	}
	return &LocalityPartitioner{shards: n, owner: owner}
}

// Name implements Partitioner.
func (p *LocalityPartitioner) Name() string { return PartitionLocality }

// Shards implements Partitioner.
func (p *LocalityPartitioner) Shards() int { return p.shards }

// Owner implements Partitioner.
func (p *LocalityPartitioner) Owner(v graph.NodeID) int { return int(p.owner[v]) }

// NewPartitioner constructs the named policy over n shards. The graph
// is only consulted by topology-aware policies.
func NewPartitioner(name string, n int, g *graph.Graph) (Partitioner, error) {
	if n <= 0 {
		return nil, fmt.Errorf("cluster: shard count %d must be positive", n)
	}
	switch name {
	case "", PartitionHash:
		return NewHashPartitioner(n), nil
	case PartitionLocality:
		return NewLocalityPartitioner(g, n), nil
	}
	return nil, fmt.Errorf("cluster: unknown partitioner %q (use one of %v)", name, PartitionerNames())
}

// IntraEdgeFraction returns the fraction of g's edges whose endpoints
// share a shard under p — the partition-quality metric the locality
// policy optimizes and the hash policy pins near 1/N.
func IntraEdgeFraction(g *graph.Graph, p Partitioner) float64 {
	owner := make([]int32, g.NumNodes())
	for v := range owner {
		owner[v] = int32(p.Owner(graph.NodeID(v)))
	}
	return intraEdgeFraction(g, owner)
}

// intraEdgeFraction is IntraEdgeFraction over a per-node owner table,
// which asks the partitioner once per node instead of twice per edge.
func intraEdgeFraction(g *graph.Graph, owner []int32) float64 {
	var intra, total int64
	for v := range owner {
		o := owner[v]
		for _, u := range g.Neighbors(graph.NodeID(v)) {
			total++
			if owner[u] == o {
				intra++
			}
		}
	}
	if total == 0 {
		return 1
	}
	return float64(intra) / float64(total)
}
