package sampler

import (
	"slices"
	"testing"

	"beacongnn/internal/directgraph"
	"beacongnn/internal/graph"
	"beacongnn/internal/xrand"
)

func buildFixture(t *testing.T, nodes int, avgDeg float64, dim, pageSize int, seed uint64) (*graph.Graph, *directgraph.Build) {
	t.Helper()
	g, err := graph.Generate(graph.GenSpec{
		Nodes: nodes, AvgDegree: avgDeg, MaxDegree: nodes - 1, FeatureDim: dim, PowerLaw: 2.0, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := directgraph.BuildGraph(directgraph.Layout{PageSize: pageSize, FeatureDim: dim}, g, &directgraph.SeqAllocator{})
	if err != nil {
		t.Fatal(err)
	}
	return g, b
}

// drawFeatures returns node v's feature vector as the graph draws it.
func drawFeatures(g *graph.Graph, v graph.NodeID) []uint16 {
	c := g.Features(v)
	b := make([]byte, 2*g.FeatureDim())
	c.Draw(b)
	return directgraph.AppendFP16(nil, b)
}

func pageOf(b *directgraph.Build, a directgraph.Addr) []byte {
	return b.Pages[b.Layout.Page(a)]
}

func TestExecutePrimarySamples(t *testing.T) {
	g, b := buildFixture(t, 500, 20, 8, 4096, 1)
	cfg := Config{Hops: 3, Fanout: 3, FeatureDim: 8}
	trng := xrand.New(7)
	addr := b.NodeAddr(5)
	res, err := Execute(b.Layout, pageOf(b, addr), Command{Addr: addr, Hop: 0, Target: 5}, cfg, trng)
	if err != nil {
		t.Fatal(err)
	}
	if res.Node != 5 {
		t.Fatalf("node = %d", res.Node)
	}
	if len(res.Features) != 2*8 {
		t.Fatalf("feature len = %d bytes", len(res.Features))
	}
	// Feature must match the graph's draws bit-exactly.
	want := drawFeatures(g, 5)
	got := res.FeatureBits()
	for i := range want {
		if got[i] != want[i] {
			t.Fatal("feature bits differ from graph")
		}
	}
	if len(res.Commands) != 3 {
		t.Fatalf("commands = %d, want fanout 3 (all inline for this degree)", len(res.Commands))
	}
	// Every sampled child must be a true neighbor of node 5.
	nbrs := g.Neighbors(5)
	for _, c := range res.Commands {
		if c.Hop != 1 {
			t.Fatalf("child hop = %d", c.Hop)
		}
		sec, err := b.ReadSection(c.Addr)
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, nb := range nbrs {
			if uint32(nb) == sec.NodeID {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("sampled node %d is not a neighbor of 5", sec.NodeID)
		}
	}
}

func TestExecuteFinalHopFeatureOnly(t *testing.T) {
	_, b := buildFixture(t, 200, 10, 4, 4096, 2)
	cfg := Config{Hops: 3, Fanout: 3, FeatureDim: 4}
	addr := b.NodeAddr(3)
	res, err := Execute(b.Layout, pageOf(b, addr), Command{Addr: addr, Hop: 3}, cfg, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Commands) != 0 {
		t.Fatalf("final hop emitted %d commands", len(res.Commands))
	}
	if len(res.Features) != 2*4 {
		t.Fatal("final hop missing feature")
	}
}

func TestExecuteCoalescesSecondaryDraws(t *testing.T) {
	// Small pages force secondaries; high fanout forces multiple draws
	// into the same secondary, which must coalesce.
	g, b := buildFixture(t, 300, 150, 0, 512, 3)
	var spilled graph.NodeID = -1
	for v := 0; v < g.NumNodes(); v++ {
		if b.Plans[v].SecCount > 0 && b.Plans[v].InlineCount == 0 {
			spilled = graph.NodeID(v)
			break
		}
	}
	if spilled < 0 {
		for v := 0; v < g.NumNodes(); v++ {
			if b.Plans[v].SecCount > 0 {
				spilled = graph.NodeID(v)
				break
			}
		}
	}
	if spilled < 0 {
		t.Fatal("fixture produced no spilled nodes; tighten parameters")
	}
	cfg := Config{Hops: 2, Fanout: 16, FeatureDim: 0}
	addr := b.NodeAddr(spilled)
	res, err := Execute(b.Layout, pageOf(b, addr), Command{Addr: addr, Hop: 0, SampleCount: 16}, cfg, xrand.New(9))
	if err != nil {
		t.Fatal(err)
	}
	secCmds := 0
	coalesced := 0
	for _, c := range res.Commands {
		if c.Secondary {
			secCmds++
			coalesced += c.SampleCount
			if c.Hop != 0 {
				t.Fatalf("secondary command hop = %d, want parent hop 0", c.Hop)
			}
		}
	}
	inline := len(res.Commands) - secCmds
	if inline+coalesced != 16 {
		t.Fatalf("draws accounted: inline %d + coalesced %d != 16", inline, coalesced)
	}
	plan := b.Plans[spilled]
	if secCmds > plan.SecCount {
		t.Fatalf("%d secondary commands for %d sections — coalescing failed", secCmds, plan.SecCount)
	}
	if secCmds == 0 {
		t.Fatal("no secondary draws; fixture too easy")
	}
}

func TestExecuteSecondarySection(t *testing.T) {
	g, b := buildFixture(t, 300, 150, 0, 512, 4)
	var node graph.NodeID = -1
	for v := 0; v < g.NumNodes(); v++ {
		if b.Plans[v].SecCount > 0 {
			node = graph.NodeID(v)
			break
		}
	}
	if node < 0 {
		t.Fatal("no spilled node")
	}
	secAddr := b.Plans[node].Secondaries[0]
	cfg := Config{Hops: 3, Fanout: 3, FeatureDim: 0}
	res, err := Execute(b.Layout, pageOf(b, secAddr),
		Command{Addr: secAddr, Hop: 1, SampleCount: 2, Secondary: true, ParentNode: uint32(node)}, cfg, xrand.New(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Commands) != 2 {
		t.Fatalf("commands = %d, want 2", len(res.Commands))
	}
	nbrs := g.Neighbors(node)
	for _, c := range res.Commands {
		if c.Hop != 2 {
			t.Fatalf("child hop = %d, want 2", c.Hop)
		}
		sec, err := b.ReadSection(c.Addr)
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, nb := range nbrs {
			if uint32(nb) == sec.NodeID {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("secondary sampled non-neighbor %d", sec.NodeID)
		}
	}
}

func TestExecuteTypeConfusionErrors(t *testing.T) {
	_, b := buildFixture(t, 100, 10, 4, 4096, 5)
	addr := b.NodeAddr(0)
	cfg := Config{Hops: 2, Fanout: 2, FeatureDim: 4}
	// Primary addressed as secondary must abort (Section VI-E).
	if _, err := Execute(b.Layout, pageOf(b, addr), Command{Addr: addr, Secondary: true, SampleCount: 1}, cfg, xrand.New(1)); err == nil {
		t.Fatal("type confusion accepted")
	}
}

func TestExecuteMissingSectionErrors(t *testing.T) {
	_, b := buildFixture(t, 100, 10, 4, 4096, 6)
	l := b.Layout
	cfg := Config{Hops: 2, Fanout: 2, FeatureDim: 4}
	// An empty (never-written) page has no sections at all.
	empty := make([]byte, l.PageSize)
	if _, err := Execute(l, empty, Command{Addr: l.MakeAddr(0, 0)}, cfg, xrand.New(1)); err == nil {
		t.Fatal("missing section accepted")
	}
}

func TestExecuteZeroDegreeNode(t *testing.T) {
	g := graph.NewBuilder(2, 2).Build()
	b, err := directgraph.BuildGraph(directgraph.Layout{PageSize: 4096, FeatureDim: 2}, g, &directgraph.SeqAllocator{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Hops: 2, Fanout: 3, FeatureDim: 2}
	addr := b.NodeAddr(0)
	res, err := Execute(b.Layout, pageOf(b, addr), Command{Addr: addr, Hop: 0}, cfg, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Commands) != 0 || len(res.Features) != 2*2 {
		t.Fatalf("zero-degree result: %d cmds, %d feature bytes", len(res.Commands), len(res.Features))
	}
}

func TestSamplingUniformity(t *testing.T) {
	// Sampling a high-degree node many times must cover its neighbor
	// range roughly uniformly (TRNG + modulo).
	g, b := buildFixture(t, 50, 30, 0, 4096, 8)
	var v graph.NodeID
	best := 0
	for i := 0; i < g.NumNodes(); i++ {
		if d := g.Degree(graph.NodeID(i)); d > best {
			best, v = d, graph.NodeID(i)
		}
	}
	cfg := Config{Hops: 2, Fanout: 1, FeatureDim: 0}
	trng := xrand.New(3)
	counts := make(map[int]int)
	const draws = 20000
	addr := b.NodeAddr(v)
	for i := 0; i < draws; i++ {
		res, err := Execute(b.Layout, pageOf(b, addr), Command{Addr: addr, Hop: 0}, cfg, trng)
		if err != nil {
			t.Fatal(err)
		}
		for _, idx := range res.SampledIdx {
			counts[idx]++
		}
	}
	deg := g.Degree(v)
	if len(counts) != deg {
		t.Fatalf("covered %d of %d indices", len(counts), deg)
	}
	expected := float64(draws) / float64(deg)
	for idx, c := range counts {
		if float64(c) < expected*0.6 || float64(c) > expected*1.4 {
			t.Fatalf("index %d drawn %d times, expected ≈%.0f", idx, c, expected)
		}
	}
}

func TestBusBytes(t *testing.T) {
	r := Result{Commands: make([]Command, 3), Features: make([]byte, 2*100)}
	if got := r.BusBytes(); got != 16+3*16+200 {
		t.Fatalf("bus bytes = %d", got)
	}
}

func TestNoCoalesceAblation(t *testing.T) {
	// With coalescing disabled, every out-of-page draw becomes its own
	// secondary command (SampleCount 1 each).
	g, b := buildFixture(t, 300, 150, 0, 512, 3)
	var spilled graph.NodeID = -1
	for v := 0; v < g.NumNodes(); v++ {
		if b.Plans[v].SecCount > 0 {
			spilled = graph.NodeID(v)
			break
		}
	}
	if spilled < 0 {
		t.Fatal("no spilled node in fixture")
	}
	addr := b.NodeAddr(spilled)
	run := func(noCoalesce bool) (secCmds, draws int) {
		cfg := Config{Hops: 2, Fanout: 16, FeatureDim: 0, NoCoalesce: noCoalesce}
		res, err := Execute(b.Layout, pageOf(b, addr), Command{Addr: addr, Hop: 0, SampleCount: 16}, cfg, xrand.New(9))
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range res.Commands {
			if c.Secondary {
				secCmds++
				draws += c.SampleCount
			}
		}
		return
	}
	cSec, cDraws := run(false)
	nSec, nDraws := run(true)
	if cDraws != nDraws {
		t.Fatalf("draw counts differ: %d vs %d", cDraws, nDraws)
	}
	if nSec != nDraws {
		t.Fatalf("uncoalesced: %d commands for %d draws", nSec, nDraws)
	}
	if cSec >= nSec && nDraws > b.Plans[spilled].SecCount {
		t.Fatalf("coalescing did not reduce commands: %d vs %d", cSec, nSec)
	}
}

// TestExecuteIntoRecycledResult drives one recycled Result through a
// mixed stream of primary, secondary and final-hop commands — the
// platform's pooled-Result pattern — and requires every execution to
// equal a fresh Execute on an identical TRNG stream: no commands,
// indices, feature bits or coalescing counts may leak between uses.
func TestExecuteIntoRecycledResult(t *testing.T) {
	_, b := buildFixture(t, 300, 150, 5, 512, 9)
	cfg := Config{Hops: 2, Fanout: 6, FeatureDim: 5}
	fresh, reused := xrand.New(11), xrand.New(11)
	var res Result
	queue := []Command{{Addr: b.NodeAddr(0)}, {Addr: b.NodeAddr(1)}, {Addr: b.NodeAddr(2), Hop: 2}}
	secondaries := 0
	for n := 0; n < 200 && len(queue) > 0; n++ {
		cmd := queue[0]
		queue = queue[1:]
		want, err := Execute(b.Layout, pageOf(b, cmd.Addr), cmd, cfg, fresh)
		if err != nil {
			t.Fatal(err)
		}
		if err := ExecuteInto(&res, b.Layout, pageOf(b, cmd.Addr), cmd, cfg, reused); err != nil {
			t.Fatal(err)
		}
		if res.Node != want.Node || res.Addr != want.Addr || res.Hop != want.Hop ||
			!slices.Equal(res.Commands, want.Commands) || !slices.Equal(res.SampledIdx, want.SampledIdx) ||
			!slices.Equal(res.Features, want.Features) || !slices.Equal(res.FeatureBits(), want.FeatureBits()) {
			t.Fatalf("command %d (%+v): recycled result %+v, fresh %+v", n, cmd, res, *want)
		}
		if cmd.Secondary {
			secondaries++
		}
		queue = append(queue, want.Commands...)
	}
	if secondaries == 0 {
		t.Fatal("fixture produced no secondary commands; recycling across section types is untested")
	}
}
