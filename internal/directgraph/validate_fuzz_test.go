package directgraph_test

import (
	"testing"

	"beacongnn/internal/directgraph"
	"beacongnn/internal/gnn"
	"beacongnn/internal/graph"
)

// FuzzValidate overwrites the start of one page of a small build with
// arbitrary bytes and walks the whole image. The walker must never
// panic, and an image it reports clean must serve every node's features
// to the in-storage feature read: the walker is the gate in front of
// every read of the image.
func FuzzValidate(f *testing.F) {
	l := directgraph.Layout{PageSize: 512, FeatureDim: 3}
	g, err := graph.Generate(graph.GenSpec{Nodes: 80, AvgDegree: 10, MaxDegree: 79, FeatureDim: 3, PowerLaw: 2, Seed: 1})
	if err != nil {
		f.Fatal(err)
	}
	base, err := directgraph.BuildGraph(l, g, &directgraph.SeqAllocator{})
	if err != nil {
		f.Fatal(err)
	}
	for i, page := range base.Pages[:min(4, len(base.Pages))] {
		f.Add(uint8(i), page)
		f.Add(uint8(i), page[:16])
		f.Add(uint8(i), append([]byte{directgraph.SectionTypeSecondary}, page[1:]...))
	}
	f.Add(uint8(0), []byte{})
	f.Add(uint8(1), make([]byte, 512))
	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		b := base.Clone()
		copy(b.Pages[int(which)%len(b.Pages)], data)
		if rep := directgraph.Validate(b); !rep.OK() {
			return
		}
		for v := range b.Plans {
			if _, err := gnn.Feature(b, graph.NodeID(v)); err != nil {
				t.Fatalf("image validated clean, but node %d's features do not read: %v", v, err)
			}
		}
	})
}
