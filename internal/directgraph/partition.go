package directgraph

import (
	"fmt"

	"beacongnn/internal/graph"
)

// Shard is one device's slice of a partitioned DirectGraph: a
// layout-only Build over the nodes the shard owns, plus the mapping
// from global node id to the shard-local plan index. Page numbers are
// shard-local — each device allocates its own flash address space.
type Shard struct {
	Build *Build
	Nodes []graph.NodeID // owned nodes, ascending global id
}

// Partitioned is a DirectGraph split across N shards by an ownership
// function. LocalIndex[v] is node v's plan index inside its owner's
// Build; Owner[v] names the shard.
type Partitioned struct {
	Shards     []Shard
	Owner      []int32
	LocalIndex []int32
}

// ShardBytes returns shard s's on-flash footprint (pages × page size) —
// the volume a failure has to re-replicate onto survivors.
func (p *Partitioned) ShardBytes(s int) int64 { return p.Shards[s].Build.Stats.TotalBytes }

// BuildPartitioned splits a degree sequence across shards by the owner
// function and runs the layout-only builder once per shard, preserving
// ascending node order inside each shard so builds are deterministic in
// (degrees, owner, shards). Owner must return a value in [0, shards)
// for every node; each node lands on exactly one shard by construction.
func BuildPartitioned(l Layout, degrees []int, shards int, owner func(graph.NodeID) int) (*Partitioned, error) {
	if shards <= 0 {
		return nil, fmt.Errorf("directgraph: shard count %d must be positive", shards)
	}
	p := &Partitioned{
		Shards:     make([]Shard, shards),
		Owner:      make([]int32, len(degrees)),
		LocalIndex: make([]int32, len(degrees)),
	}
	perShard := make([][]int, shards)
	for v, deg := range degrees {
		s := owner(graph.NodeID(v))
		if s < 0 || s >= shards {
			return nil, fmt.Errorf("directgraph: owner(%d) = %d outside [0, %d)", v, s, shards)
		}
		p.Owner[v] = int32(s)
		p.LocalIndex[v] = int32(len(perShard[s]))
		perShard[s] = append(perShard[s], deg)
		p.Shards[s].Nodes = append(p.Shards[s].Nodes, graph.NodeID(v))
	}
	for s := range p.Shards {
		b, err := BuildLayout(l, perShard[s], &SeqAllocator{})
		if err != nil {
			return nil, fmt.Errorf("directgraph: shard %d: %w", s, err)
		}
		p.Shards[s].Build = b
	}
	return p, nil
}
