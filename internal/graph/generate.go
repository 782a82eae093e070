package graph

import (
	"fmt"
	"math"
	"sort"

	"beacongnn/internal/fanout"
	"beacongnn/internal/xrand"
)

// GenSpec describes a synthetic graph to generate. The generators target
// the statistics the simulator is sensitive to — node count, degree
// distribution, and feature dimension — matching how the paper scales
// real datasets up following SmartSage's methodology.
type GenSpec struct {
	Nodes      int     // number of nodes
	AvgDegree  float64 // target mean out-degree
	MaxDegree  int     // degree cap (0 = Nodes-1)
	FeatureDim int     // FP16 feature vector length
	PowerLaw   float64 // Pareto shape; 0 = uniform degrees
	// Locality is the fraction of edges wired inside a node's community
	// block (LocalityBlock contiguous ids) instead of uniformly across
	// the graph. 0 keeps the historical uniform wiring bit-for-bit.
	Locality      float64
	LocalityBlock int // community size; 0 = 64
	Seed          uint64
}

// Validate reports whether the spec is usable.
func (s GenSpec) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{{"AvgDegree", s.AvgDegree}, {"PowerLaw", s.PowerLaw}, {"Locality", s.Locality}} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("graph: %s must be finite, got %v", f.name, f.v)
		}
	}
	switch {
	case s.Nodes <= 0:
		return fmt.Errorf("graph: Nodes must be positive, got %d", s.Nodes)
	case s.AvgDegree < 0:
		return fmt.Errorf("graph: AvgDegree must be non-negative, got %v", s.AvgDegree)
	case s.FeatureDim < 0:
		return fmt.Errorf("graph: FeatureDim must be non-negative, got %d", s.FeatureDim)
	case s.AvgDegree >= float64(s.Nodes):
		return fmt.Errorf("graph: AvgDegree %v >= Nodes %d", s.AvgDegree, s.Nodes)
	case s.Locality < 0 || s.Locality > 1:
		return fmt.Errorf("graph: Locality %v outside [0,1]", s.Locality)
	case s.LocalityBlock < 0:
		return fmt.Errorf("graph: LocalityBlock must be non-negative, got %d", s.LocalityBlock)
	}
	return nil
}

// DegreeSequence draws a degree sequence matching the spec without
// materializing edges. The same routine backs both graph generation and
// the full-scale DirectGraph layout accounting for Table IV, so the two
// always agree on the degree distribution.
func DegreeSequence(spec GenSpec) ([]int, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	rng := xrand.New(spec.Seed)
	maxDeg := spec.MaxDegree
	if maxDeg <= 0 || maxDeg > spec.Nodes-1 {
		maxDeg = spec.Nodes - 1
	}
	degs := make([]int, spec.Nodes)
	if spec.AvgDegree == 0 {
		return degs, nil
	}
	if spec.PowerLaw <= 0 {
		// Uniform in [1, 2*avg-1]: mean = avg.
		hi := int(2*spec.AvgDegree) - 1
		if hi < 1 {
			hi = 1
		}
		for i := range degs {
			d := 1 + rng.Intn(hi)
			if d > maxDeg {
				d = maxDeg
			}
			degs[i] = d
		}
		return degs, nil
	}
	// Pareto(shape=alpha, scale=xm) truncated at maxDeg, then rescaled so
	// the empirical mean matches AvgDegree. Real GNN graphs (reddit,
	// amazon, ...) are heavy-tailed; densification means high average
	// degree with a few very large hubs, which is what stresses secondary
	// sections in DirectGraph.
	alpha := spec.PowerLaw
	xm := spec.AvgDegree * (alpha - 1) / alpha // Pareto mean = xm*a/(a-1)
	if alpha <= 1 {
		xm = spec.AvgDegree / 4
	}
	if xm < 1 {
		xm = 1
	}
	var sum float64
	raw := make([]float64, spec.Nodes)
	for i := range raw {
		u := rng.Float64()
		if u >= 1 {
			u = math.Nextafter(1, 0)
		}
		d := xm / math.Pow(1-u, 1/alpha)
		if d > float64(maxDeg) {
			d = float64(maxDeg)
		}
		raw[i] = d
		sum += d
	}
	scale := spec.AvgDegree * float64(spec.Nodes) / sum
	for i, d := range raw {
		v := int(d*scale + 0.5)
		if v < 1 {
			v = 1
		}
		if v > maxDeg {
			v = maxDeg
		}
		degs[i] = v
	}
	return degs, nil
}

// minChunk is the fewest RNG draws worth a chunk of their own: about a
// millisecond of wiring at ~6 ns per edge draw, against the ~30 µs of
// the jump that positions a chunk's stream.
const minChunk = 1 << 17

// Generate materializes a synthetic graph from the spec: a degree
// sequence is drawn, then each node's neighbors are chosen uniformly at
// random (a configuration-model-style wiring, adequate because the
// simulator cares about address distribution, not community structure).
// A non-zero Locality mixes in community structure — that fraction of
// edges stays inside the node's LocalityBlock-sized id block — which is
// what topology-aware placement policies exist to exploit.
//
// The CSR arrays are written directly: offsets are the prefix sum of the
// degree sequence, so adjacency takes one exact-size allocation however
// many nodes the graph has.
//
// Edges and features are drawn from one Seed+1 stream, edges in node
// order and then features in node order. Every edge costs exactly one
// draw when Locality is 0 and exactly two otherwise, so the draw offset
// of any edge or feature is closed-form. Generate draws only the edges:
// features are small deterministic pseudo-random values that Features
// draws on demand from their offset. Generate splits the edges into
// chunks (fanout.Count of the draws) of about equal edge count and runs
// them concurrently, each on the stream jumped to its own offset. The
// result is byte-identical to drawing everything in one pass, which is
// what one chunk does.
func Generate(spec GenSpec) (*Graph, error) { return generate(spec, 0) }

// generate is Generate with the chunk count forced; 0 picks it from the
// work.
func generate(spec GenSpec, chunks int) (*Graph, error) {
	degs, err := DegreeSequence(spec)
	if err != nil {
		return nil, err
	}
	g := &Graph{offsets: make([]int64, spec.Nodes+1), dim: spec.FeatureDim, stream: spec.Seed + 1}
	for v, d := range degs {
		g.offsets[v+1] = g.offsets[v] + int64(d)
	}
	edges := g.offsets[spec.Nodes]
	g.adj = make([]NodeID, edges)
	perEdge := int64(1)
	if spec.Locality > 0 {
		perEdge = 2
	}
	g.featStart = uint64(edges * perEdge)
	if chunks == 0 {
		chunks = fanout.Count(int(g.featStart), minChunk)
	}
	fanout.Run(chunks, func(c int) {
		n := int64(chunks)
		lo, hi := g.nodeAtEdge(edges*int64(c)/n), g.nodeAtEdge(edges*int64(c+1)/n)
		rng := xrand.New(g.stream)
		rng.Jump(uint64(g.offsets[lo] * perEdge))
		g.wire(spec, lo, hi, rng)
	})
	return g, nil
}

// nodeAtEdge returns the first node whose edges start at or after edge
// index e. Nodes from there on to the end own no edge before e.
func (g *Graph) nodeAtEdge(e int64) int {
	return sort.Search(g.NumNodes(), func(v int) bool { return g.offsets[v] >= e })
}

// wire draws the neighbor lists of nodes [lo, hi) from rng, which must
// stand at the draw offset of node lo's first edge.
func (g *Graph) wire(spec GenSpec, lo, hi int, rng *xrand.Source) {
	block := spec.LocalityBlock
	if block <= 0 {
		block = 64
	}
	if block > spec.Nodes {
		block = spec.Nodes
	}
	for v := lo; v < hi; v++ {
		nbrs := g.adj[g.offsets[v]:g.offsets[v+1]]
		for j := range nbrs {
			var u int
			if spec.Locality > 0 && rng.Float64() < spec.Locality {
				// Community edge: target within this node's id block.
				start := (v / block) * block
				span := block
				if start+span > spec.Nodes {
					span = spec.Nodes - start
				}
				u = start + rng.Intn(span)
			} else {
				// Uniform target, avoiding trivial self loops where possible.
				u = rng.Intn(spec.Nodes)
			}
			if u == v {
				u = (u + 1) % spec.Nodes
			}
			nbrs[j] = NodeID(u)
		}
	}
}
