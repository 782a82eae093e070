package directgraph

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"beacongnn/internal/graph"
)

// TestBuildChunkInvariance: every page, byte for byte, and every plan
// equal the one-chunk (serial) build at any chunk count, including
// counts whose node ranges meet inside shared pages.
func TestBuildChunkInvariance(t *testing.T) {
	specs := []graph.GenSpec{
		// Many small sections per shared page, a few hubs with secondaries.
		{Nodes: 1500, AvgDegree: 12, MaxDegree: 1400, FeatureDim: 8, PowerLaw: 2, Seed: 3},
		// Dedicated primary pages, full and shared secondaries.
		{Nodes: 400, AvgDegree: 300, FeatureDim: 64, PowerLaw: 1.5, Seed: 4},
		{Nodes: 1000, AvgDegree: 9, FeatureDim: 0, Locality: 0.6, Seed: 5},
		{Nodes: 50, AvgDegree: 0, FeatureDim: 4, Seed: 6},
		{Nodes: 5, AvgDegree: 2, FeatureDim: 4, Seed: 7}, // fewer nodes than chunks
	}
	straddles := 0
	for _, spec := range specs {
		g, err := graph.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		l := layout4k(spec.FeatureDim)
		ref, err := buildGraph(l, g, &SeqAllocator{}, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, chunks := range []int{0, 2, 3, 7, 64} {
			got, err := buildGraph(l, g, &SeqAllocator{}, chunks)
			if err != nil {
				t.Fatal(err)
			}
			if got.Stats != ref.Stats || !reflect.DeepEqual(got.Plans, ref.Plans) {
				t.Fatalf("%+v, %d chunks: plans or stats differ from one chunk", spec, chunks)
			}
			if len(got.Pages) != len(ref.Pages) {
				t.Fatalf("%+v, %d chunks: %d pages, one chunk %d", spec, chunks, len(got.Pages), len(ref.Pages))
			}
			for pn, want := range ref.Pages {
				if !bytes.Equal(got.Pages[pn], want) {
					t.Fatalf("%+v, %d chunks: page %d differs from one chunk", spec, chunks, pn)
				}
			}
			if chunks == 0 {
				continue
			}
			bounds := splitNodes(ref.Plans, chunks)
			for _, v := range bounds[1:chunks] {
				if v > 0 && v < len(ref.Plans) && l.Page(ref.Plans[v-1].Primary) == l.Page(ref.Plans[v].Primary) {
					straddles++
				}
			}
		}
	}
	if straddles == 0 {
		t.Fatal("no chunk boundary fell inside a shared page; the test does not cover the shared-page case")
	}
}

// TestBuildChunkBoundsCoverEveryNode: splitNodes partitions the nodes
// into contiguous ranges in order, and the bytes it splits are the
// build's section bytes.
func TestBuildChunkBoundsCoverEveryNode(t *testing.T) {
	g, b := buildSmall(t, 700, 40, 16, 9)
	var total int64
	for v := range b.Plans {
		total += int64(b.Plans[v].sectionBytes())
	}
	if total != b.Stats.UsedBytes {
		t.Fatalf("section bytes %d, stats %d", total, b.Stats.UsedBytes)
	}
	for _, chunks := range []int{1, 2, 3, 7, 64, 1000} {
		bounds := splitNodes(b.Plans, chunks)
		if len(bounds) != chunks+1 || bounds[0] != 0 || bounds[chunks] != g.NumNodes() {
			t.Fatalf("%d chunks: bounds %v do not span [0, %d]", chunks, bounds, g.NumNodes())
		}
		for c := 1; c <= chunks; c++ {
			if bounds[c] < bounds[c-1] {
				t.Fatalf("%d chunks: bounds decrease at %d", chunks, c)
			}
		}
	}
}

// TestBuildChunkOverflowSameError: a layout with overflowing sections
// fails with the first overflow in node order at every chunk count.
func TestBuildChunkOverflowSameError(t *testing.T) {
	g, err := graph.Generate(graph.GenSpec{Nodes: 600, AvgDegree: 10, FeatureDim: 8, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	l := layout4k(8)
	var want string
	for _, chunks := range []int{1, 2, 3, 7, 64} {
		degs := make([]int, g.NumNodes())
		for v := range degs {
			degs[v] = g.Degree(graph.NodeID(v))
		}
		b, err := BuildLayout(l, degs, &SeqAllocator{})
		if err != nil {
			t.Fatal(err)
		}
		b.Plans[400].PrimaryOffset = l.PageSize - 8
		b.Plans[500].PrimaryOffset = l.PageSize - 4
		err = serialize(b, g, chunks)
		if err == nil {
			t.Fatalf("%d chunks: overflowing layout serialized", chunks)
		}
		if chunks == 1 {
			want = err.Error()
			if !strings.Contains(want, "offset 4088") {
				t.Fatalf("error %q does not name node 400's section, the first overflow", want)
			}
		} else if err.Error() != want {
			t.Fatalf("%d chunks: error %q, one chunk %q", chunks, err, want)
		}
	}
}
