package directgraph

import (
	"testing"

	"beacongnn/internal/graph"
)

func partLayout() Layout { return Layout{PageSize: 4096, FeatureDim: 64} }

func TestBuildPartitionedCoversEveryNodeOnce(t *testing.T) {
	degrees := []int{3, 0, 250, 12, 7, 1, 90, 4, 4, 33}
	const shards = 3
	p, err := BuildPartitioned(partLayout(), degrees, shards, func(v graph.NodeID) int {
		return int(v) % shards
	})
	if err != nil {
		t.Fatal(err)
	}
	seen := make([]int, len(degrees))
	for s := range p.Shards {
		for i, v := range p.Shards[s].Nodes {
			seen[v]++
			if p.Owner[v] != int32(s) {
				t.Fatalf("node %d listed on shard %d but Owner says %d", v, s, p.Owner[v])
			}
			if p.LocalIndex[v] != int32(i) {
				t.Fatalf("node %d local index %d, want %d", v, p.LocalIndex[v], i)
			}
		}
	}
	for v, n := range seen {
		if n != 1 {
			t.Fatalf("node %d appears on %d shards", v, n)
		}
	}
	for v, deg := range degrees {
		if got := p.Shards[p.Owner[v]].Build.Plans[p.LocalIndex[v]].Degree; got != deg {
			t.Fatalf("node %d local plan degree %d, want %d", v, got, deg)
		}
	}
}

// A shard that owns nothing must still build (empty layout), not error —
// hash placement on tiny graphs leaves shards empty.
func TestBuildPartitionedEmptyShard(t *testing.T) {
	degrees := []int{5, 5}
	p, err := BuildPartitioned(partLayout(), degrees, 4, func(v graph.NodeID) int { return int(v) })
	if err != nil {
		t.Fatal(err)
	}
	for s := 2; s < 4; s++ {
		if n := len(p.Shards[s].Nodes); n != 0 {
			t.Fatalf("shard %d should be empty, owns %d nodes", s, n)
		}
		if p.ShardBytes(s) != 0 {
			t.Fatalf("empty shard %d reports %d bytes", s, p.ShardBytes(s))
		}
	}
}

func TestBuildPartitionedRejectsBadOwner(t *testing.T) {
	degrees := []int{1, 2, 3}
	if _, err := BuildPartitioned(partLayout(), degrees, 2, func(graph.NodeID) int { return 2 }); err == nil {
		t.Fatal("out-of-range owner accepted")
	}
	if _, err := BuildPartitioned(partLayout(), degrees, 0, func(graph.NodeID) int { return 0 }); err == nil {
		t.Fatal("zero shards accepted")
	}
}

// The per-shard layouts must account for exactly the same nodes and
// edges as one monolithic layout over the same degree sequence.
func TestBuildPartitionedConservesStats(t *testing.T) {
	degrees := make([]int, 300)
	for i := range degrees {
		degrees[i] = (i * 7) % 97
	}
	whole, err := BuildLayout(partLayout(), degrees, &SeqAllocator{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := BuildPartitioned(partLayout(), degrees, 5, func(v graph.NodeID) int { return int(v) % 5 })
	if err != nil {
		t.Fatal(err)
	}
	var nodes int
	var edges int64
	for s := range p.Shards {
		nodes += p.Shards[s].Build.Stats.Nodes
		edges += p.Shards[s].Build.Stats.Edges
	}
	if nodes != whole.Stats.Nodes || edges != whole.Stats.Edges {
		t.Fatalf("partitioned stats %d nodes/%d edges, monolithic %d/%d",
			nodes, edges, whole.Stats.Nodes, whole.Stats.Edges)
	}
}
