package graph

import (
	"fmt"
	"math"

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

// Generate materializes a synthetic graph from the spec: a degree
// sequence is drawn, then each node's neighbors are chosen uniformly at
// random (a configuration-model-style wiring, adequate because the
// simulator cares about address distribution, not community structure).
// A non-zero Locality mixes in community structure — that fraction of
// edges stays inside the node's LocalityBlock-sized id block — which is
// what topology-aware placement policies exist to exploit. Features are
// filled with small deterministic pseudo-random values.
//
// The CSR arrays are written directly: offsets are the prefix sum of the
// degree sequence, so adjacency and features each take one exact-size
// allocation however many nodes the graph has.
func Generate(spec GenSpec) (*Graph, error) {
	degs, err := DegreeSequence(spec)
	if err != nil {
		return nil, err
	}
	rng := xrand.New(spec.Seed + 1)
	block := spec.LocalityBlock
	if block <= 0 {
		block = 64
	}
	if block > spec.Nodes {
		block = spec.Nodes
	}
	g := &Graph{
		offsets:  make([]int64, spec.Nodes+1),
		features: make([]uint16, spec.Nodes*spec.FeatureDim),
		dim:      spec.FeatureDim,
	}
	for v, d := range degs {
		g.offsets[v+1] = g.offsets[v] + int64(d)
	}
	g.adj = make([]NodeID, g.offsets[spec.Nodes])
	for v := range degs {
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
	for i := range g.features {
		g.features[i] = Float32ToFp16(float32(rng.Float64()*2 - 1))
	}
	return g, nil
}
