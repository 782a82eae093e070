package gnn

import (
	"encoding/binary"
	"testing"

	"beacongnn/internal/directgraph"
	"beacongnn/internal/graph"
	"beacongnn/internal/xrand"
)

// image builds g's DirectGraph image, the copy Forward reads features
// from.
func image(t *testing.T, g *graph.Graph) *directgraph.Build {
	t.Helper()
	b, err := directgraph.BuildGraph(directgraph.Layout{PageSize: 4096, FeatureDim: g.FeatureDim()}, g, &directgraph.SeqAllocator{})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func paperModel(inputDim int) Model {
	return Model{Hops: 3, Fanout: 3, InputDim: inputDim, HiddenDim: 128}
}

func TestModelValidate(t *testing.T) {
	if err := paperModel(64).Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Model{Hops: 0, Fanout: 3, InputDim: 4, HiddenDim: 4}).Validate(); err == nil {
		t.Fatal("zero hops accepted")
	}
}

func TestSubgraphNodesMatchesPaper(t *testing.T) {
	if n := paperModel(64).SubgraphNodes(); n != 40 {
		t.Fatalf("subgraph nodes = %d, want 40 (§VII-A)", n)
	}
}

func TestBatchWorkloadShape(t *testing.T) {
	m := paperModel(100)
	w := m.BatchWorkload(64)
	if len(w.GEMMs) != 3 {
		t.Fatalf("layers = %d", len(w.GEMMs))
	}
	// Layer 1 updates depths 0..2 → 13 nodes; K = input dim.
	if w.GEMMs[0].M != 64*13 || w.GEMMs[0].K != 100 || w.GEMMs[0].N != 128 {
		t.Fatalf("layer 1 GEMM = %+v", w.GEMMs[0])
	}
	// Layer 2 updates depths 0..1 → 4 nodes; K = hidden.
	if w.GEMMs[1].M != 64*4 || w.GEMMs[1].K != 128 {
		t.Fatalf("layer 2 GEMM = %+v", w.GEMMs[1])
	}
	// Layer 3 updates only the target.
	if w.GEMMs[2].M != 64 {
		t.Fatalf("layer 3 GEMM = %+v", w.GEMMs[2])
	}
	// Aggregation elements: 64·(13·4·100 + 4·4·128 + 1·4·128).
	want := int64(64) * (13*4*100 + 4*4*128 + 1*4*128)
	if w.VectorElem != want {
		t.Fatalf("vector elems = %d, want %d", w.VectorElem, want)
	}
}

func TestFeatureBytes(t *testing.T) {
	if got := paperModel(100).FeatureBytes(); got != 40*100*2 {
		t.Fatalf("feature bytes = %d", got)
	}
}

func TestForwardDeterministic(t *testing.T) {
	g, err := graph.Generate(graph.GenSpec{Nodes: 500, AvgDegree: 10, FeatureDim: 16, PowerLaw: 2.0, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	m := Model{Hops: 2, Fanout: 3, InputDim: 16, HiddenDim: 8}
	w := NewWeights(m, 42)
	sg, err := graph.SampleSubgraph(g, 7, graph.SampleSpec{Hops: 2, Fanout: 3}, xrand.New(5))
	if err != nil {
		t.Fatal(err)
	}
	img := image(t, g)
	a, err := Forward(img, sg, w)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Forward(img, sg, w)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 8 {
		t.Fatalf("embedding dim = %d", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("forward not deterministic")
		}
	}
	// ReLU output must be non-negative and not all zero.
	nonzero := false
	for _, v := range a {
		if v < 0 {
			t.Fatalf("negative post-ReLU value %v", v)
		}
		if v != 0 {
			nonzero = true
		}
	}
	if !nonzero {
		t.Fatal("embedding all zeros")
	}
}

func TestForwardAggregatesNeighbors(t *testing.T) {
	// A 2-node path: target 0 with neighbor 1. One layer with identity
	// weights: the output is the ReLU of both features' sum.
	gb := graph.NewBuilder(2, 2)
	gb.AddEdge(0, 1)
	gb.AddEdge(1, 0)
	g := gb.Build()
	img := image(t, g)
	m := Model{Hops: 1, Fanout: 1, InputDim: 2, HiddenDim: 2}
	w := &Weights{model: m, Layers: [][]float32{{1, 0, 0, 1}}} // identity
	sg, err := graph.SampleSubgraph(g, 0, graph.SampleSpec{Hops: 1, Fanout: 1}, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	out, err := Forward(img, sg, w)
	if err != nil {
		t.Fatal(err)
	}
	f0, err := Feature(img, 0)
	if err != nil {
		t.Fatal(err)
	}
	f1, err := Feature(img, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range out {
		want := max(f0[i]+f1[i], 0)
		if out[i] != want {
			t.Fatalf("out = %v, want ReLU(%v + %v)", out, f0, f1)
		}
	}
}

// TestFeatureReadsImage: Feature decodes node v's FP16 draws from its
// primary section, and fails on a node outside the image or a primary
// section that no longer decodes.
func TestFeatureReadsImage(t *testing.T) {
	g, err := graph.Generate(graph.GenSpec{Nodes: 50, AvgDegree: 4, FeatureDim: 6, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	img := image(t, g)
	for v := 0; v < g.NumNodes(); v++ {
		f, err := Feature(img, graph.NodeID(v))
		if err != nil {
			t.Fatal(err)
		}
		drawn := make([]byte, 2*g.FeatureDim())
		c := g.Features(graph.NodeID(v))
		c.Draw(drawn)
		for i, x := range f {
			if want := graph.Fp16ToFloat32(binary.LittleEndian.Uint16(drawn[2*i:])); x != want {
				t.Fatalf("node %d feature %d = %v, drawn %v", v, i, x, want)
			}
		}
	}
	if _, err := Feature(img, 50); err == nil {
		t.Fatal("node outside the image read")
	}
	a := img.NodeAddr(3)
	img.Pages[img.Layout.Page(a)][0] = 0x7F // smash the page's first section header
	if _, err := Feature(img, 3); err == nil {
		t.Fatal("feature read through a smashed section header")
	}
}

func TestForwardDimMismatch(t *testing.T) {
	g, _ := graph.Generate(graph.GenSpec{Nodes: 10, AvgDegree: 2, FeatureDim: 4, Seed: 1})
	m := Model{Hops: 1, Fanout: 1, InputDim: 8, HiddenDim: 4}
	sg, _ := graph.SampleSubgraph(g, 0, graph.SampleSpec{Hops: 1, Fanout: 1}, xrand.New(1))
	if _, err := Forward(image(t, g), sg, NewWeights(m, 1)); err == nil {
		t.Fatal("dim mismatch accepted")
	}
}

func TestForwardZeroDegreeTarget(t *testing.T) {
	// Target with no neighbors: forward should still produce h(target).
	g := graph.NewBuilder(1, 3).Build()
	m := Model{Hops: 2, Fanout: 2, InputDim: 3, HiddenDim: 4}
	sg, err := graph.SampleSubgraph(g, 0, graph.SampleSpec{Hops: 2, Fanout: 2}, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	out, err := Forward(image(t, g), sg, NewWeights(m, 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 4 {
		t.Fatalf("dim = %d", len(out))
	}
}

func TestWeightsShapes(t *testing.T) {
	m := paperModel(50)
	w := NewWeights(m, 3)
	if len(w.Layers) != 3 {
		t.Fatalf("layers = %d", len(w.Layers))
	}
	if len(w.Layers[0]) != 50*128 || len(w.Layers[1]) != 128*128 {
		t.Fatal("layer shapes wrong")
	}
}
