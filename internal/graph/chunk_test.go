package graph

import (
	"slices"
	"testing"
)

// TestGenerateChunkInvariance: however the draws are split into
// chunks, the generated arrays and feature offsets equal the one-chunk
// (serial) result.
func TestGenerateChunkInvariance(t *testing.T) {
	specs := []GenSpec{
		{Nodes: 3000, AvgDegree: 20, MaxDegree: 2000, FeatureDim: 16, PowerLaw: 2, Seed: 1},
		{Nodes: 3000, AvgDegree: 20, FeatureDim: 16, PowerLaw: 2, Locality: 0.6, LocalityBlock: 50, Seed: 2},
		{Nodes: 2000, AvgDegree: 8, FeatureDim: 0, Seed: 3},
		{Nodes: 2000, AvgDegree: 0, FeatureDim: 8, Seed: 4},
		{Nodes: 5, AvgDegree: 2, FeatureDim: 3, Locality: 0.6, Seed: 5},
		{Nodes: 1, FeatureDim: 2, Seed: 6},
	}
	for _, spec := range specs {
		ref, err := generate(spec, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, chunks := range []int{0, 2, 3, 7, 64} {
			got, err := generate(spec, chunks)
			if err != nil {
				t.Fatal(err)
			}
			switch {
			case !slices.Equal(got.offsets, ref.offsets):
				t.Errorf("%+v, %d chunks: offsets differ from one chunk", spec, chunks)
			case !slices.Equal(got.adj, ref.adj):
				t.Errorf("%+v, %d chunks: adjacency differs from one chunk", spec, chunks)
			case got.stream != ref.stream || got.featStart != ref.featStart:
				t.Errorf("%+v, %d chunks: feature stream differs from one chunk", spec, chunks)
			}
		}
	}
}

// TestFeatureCursorJumps: a cursor opened at any node draws what one
// cursor opened at node 0 draws when it reaches that node, so chunked
// readers see the features of a single serial pass.
func TestFeatureCursorJumps(t *testing.T) {
	for _, spec := range []GenSpec{
		{Nodes: 300, AvgDegree: 6, FeatureDim: 5, PowerLaw: 2, Seed: 1},
		{Nodes: 300, AvgDegree: 6, FeatureDim: 3, Locality: 0.5, Seed: 2},
	} {
		g, err := Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]byte, 2*g.NumNodes()*g.FeatureDim())
		serial := g.Features(0)
		serial.Draw(want)
		got := make([]byte, 2*g.FeatureDim())
		for v := 0; v < g.NumNodes(); v++ {
			at := g.Features(NodeID(v))
			at.Draw(got)
			if !slices.Equal(got, want[v*len(got):][:len(got)]) {
				t.Fatalf("%+v: node %d: cursor at node draws %x, serial cursor %x", spec, v, got, want[v*len(got):][:len(got)])
			}
		}
	}
}
