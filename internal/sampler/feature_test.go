package sampler

import (
	"bytes"
	"slices"
	"testing"
	"unsafe"

	"beacongnn/internal/config"
	"beacongnn/internal/dataset"
	"beacongnn/internal/graph"
	"beacongnn/internal/xrand"
)

// TestFeatureViewOnDataset samples every hop from a range of targets on
// a materialized dataset, recycling one Result the way the platform
// does. Every primary result's in-place feature bytes must alias the
// page and decode to the node's feature vector drawn by the graph, and every
// result must survive the wire format byte for byte.
func TestFeatureViewOnDataset(t *testing.T) {
	d, err := dataset.ByName("reddit")
	if err != nil {
		t.Fatal(err)
	}
	inst, err := dataset.Materialize(d, 2000, config.Default().Flash.PageSize, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, g := inst.Build, inst.Graph
	cfg := Config{Hops: 3, Fanout: 4, FeatureDim: g.FeatureDim()}
	trng := xrand.New(17)
	var res Result
	primaries, secondaries := 0, 0
	for tgt := 0; tgt < 40; tgt++ {
		queue := []Command{{Addr: b.NodeAddr(graph.NodeID(tgt)), Target: int32(tgt)}}
		for len(queue) > 0 {
			cmd := queue[0]
			queue = queue[1:]
			page := pageOf(b, cmd.Addr)
			if err := ExecuteInto(&res, b.Layout, page, cmd, cfg, trng); err != nil {
				t.Fatal(err)
			}
			if cmd.Secondary {
				secondaries++
				if res.Features != nil {
					t.Fatalf("secondary result carries %d feature bytes", len(res.Features))
				}
			} else {
				primaries++
				if !slices.Equal(res.FeatureBits(), drawFeatures(g, graph.NodeID(res.Node))) {
					t.Fatalf("node %d: result features differ from the graph's draws", res.Node)
				}
				start := uintptr(unsafe.Pointer(unsafe.SliceData(page)))
				at := uintptr(unsafe.Pointer(unsafe.SliceData(res.Features)))
				if at < start || at+uintptr(len(res.Features)) > start+uintptr(len(page)) {
					t.Fatalf("node %d: feature bytes do not alias the page", res.Node)
				}
			}
			frame, err := MarshalResult(&res)
			if err != nil {
				t.Fatal(err)
			}
			back, err := UnmarshalResult(frame)
			if err != nil {
				t.Fatal(err)
			}
			again, err := MarshalResult(back)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(frame, again) || !bytes.Equal(back.Features, res.Features) {
				t.Fatalf("node %d: result frame does not round-trip byte for byte", res.Node)
			}
			queue = append(queue, res.Commands...)
		}
	}
	if primaries == 0 || secondaries == 0 {
		t.Fatalf("sampled %d primaries and %d secondaries; want both", primaries, secondaries)
	}
}
