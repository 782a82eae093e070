package dataset

import (
	"math"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"beacongnn/internal/graph"
)

func TestAllHasFivePaperDatasets(t *testing.T) {
	all := All()
	if len(all) != 5 {
		t.Fatalf("got %d datasets, want 5", len(all))
	}
	want := []string{"reddit", "amazon", "movielens", "OGBN", "PPI"}
	for i, n := range want {
		if all[i].Name != n {
			t.Errorf("dataset %d = %s, want %s", i, all[i].Name, n)
		}
	}
}

func TestByName(t *testing.T) {
	d, err := ByName("amazon")
	if err != nil || d.Name != "amazon" {
		t.Fatalf("ByName(amazon) = %+v, %v", d, err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestRawSizesMatchTableIV(t *testing.T) {
	// The reconstructed node counts must reproduce Table IV's raw GB
	// within 5 %.
	for _, d := range All() {
		gotGB := float64(d.FullNodes) * d.RawBytesPerNode() / 1e9
		ratio := gotGB / d.RawGB
		if ratio < 0.95 || ratio > 1.05 {
			t.Errorf("%s: reconstructed raw %.1f GB vs Table IV %.1f GB", d.Name, gotGB, d.RawGB)
		}
	}
}

func TestOGBNDegreeMatchesPaper(t *testing.T) {
	d, _ := ByName("OGBN")
	if d.AvgDegree != 28 {
		t.Fatalf("OGBN avg degree = %v; §VII-F states 28", d.AvgDegree)
	}
}

func TestMaterializeStatistics(t *testing.T) {
	d, _ := ByName("amazon")
	inst, err := Materialize(d, 5000, 4096, 1)
	if err != nil {
		t.Fatal(err)
	}
	if inst.Graph.NumNodes() != 5000 {
		t.Fatalf("nodes = %d", inst.Graph.NumNodes())
	}
	if inst.Graph.FeatureDim() != d.FeatureDim {
		t.Fatalf("dim = %d", inst.Graph.FeatureDim())
	}
	avg := inst.Graph.AvgDegree()
	if avg < d.AvgDegree*0.7 || avg > d.AvgDegree*1.3 {
		t.Fatalf("avg degree %v, want ≈%v", avg, d.AvgDegree)
	}
	if inst.Build == nil || len(inst.Build.Pages) == 0 {
		t.Fatal("no DirectGraph build")
	}
}

func TestMaterializeDefaultScale(t *testing.T) {
	d, _ := ByName("OGBN")
	inst, err := Materialize(d, 0, 4096, 2)
	if err != nil {
		t.Fatal(err)
	}
	if inst.Graph.NumNodes() != 20000 {
		t.Fatalf("default scale = %d", inst.Graph.NumNodes())
	}
}

func TestMaterializeAllDatasetsSmall(t *testing.T) {
	for _, d := range All() {
		inst, err := Materialize(d, 2000, 4096, 3)
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		// Primary addresses must decode for a few nodes.
		for v := 0; v < 10; v++ {
			if _, err := inst.Build.ReadSection(inst.Build.NodeAddr(graph.NodeID(v))); err != nil {
				t.Fatalf("%s node %d: %v", d.Name, v, err)
			}
		}
	}
}

func TestFullScaleInflationOrdering(t *testing.T) {
	// Table IV: OGBN inflates far more than every other dataset; the
	// others stay modest. This is the shape check; exact values are in
	// EXPERIMENTS.md.
	ratios := map[string]float64{}
	for _, d := range All() {
		s, err := FullScaleInflation(d, 4096, 50_000, 7)
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		ratios[d.Name] = s.InflationRatio()
	}
	for name, r := range ratios {
		if name == "OGBN" {
			continue
		}
		if r >= ratios["OGBN"] {
			t.Errorf("%s inflation %.3f ≥ OGBN %.3f; Table IV shape broken", name, r, ratios["OGBN"])
		}
		// Paper reports ≤ 4.1 % for these; our packer lands ≤ ~21 %
		// (see EXPERIMENTS.md for the per-dataset gap discussion).
		if r > 0.25 {
			t.Errorf("%s inflation %.3f, want well below OGBN's ~32%%", name, r)
		}
	}
	if ratios["OGBN"] < 0.25 || ratios["OGBN"] > 0.60 {
		t.Errorf("OGBN inflation %.3f, paper reports 32.3%%", ratios["OGBN"])
	}
}

func TestFullScaleInflationDeterministic(t *testing.T) {
	d, _ := ByName("PPI")
	a, err := FullScaleInflation(d, 4096, 20_000, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := FullScaleInflation(d, 4096, 20_000, 5)
	if a != b {
		t.Fatal("inflation accounting not deterministic")
	}
}

// TestMaterializeAllocs pins the one-pass build: a fixed handful of
// exact-size allocations per call, whatever the node or page count.
// The page table is one slice, so no term grows with the pages. The
// collector is off while it counts: a cycle that starts mid-run adds
// runtime allocations of its own to the count, about one run in five.
func TestMaterializeAllocs(t *testing.T) {
	const limit = 21
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, d := range All() {
		allocs := testing.AllocsPerRun(1, func() {
			if _, err := Materialize(d, 2000, 4096, 1); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > limit {
			t.Errorf("%s: %v allocs per Materialize, want ≤ %d", d.Name, allocs, limit)
		}
	}
}

// TestMaterializeFanoutAllocs accounts for what TestMaterializeAllocs
// cannot see: testing.AllocsPerRun pins GOMAXPROCS to 1, so every build
// there is one chunk. With two or more cores the chunked generation and
// serialization add a fixed count of allocations (each fan-out's shared
// state), the same at 5k as at 20k nodes.
func TestMaterializeFanoutAllocs(t *testing.T) {
	d, err := ByName("amazon")
	if err != nil {
		t.Fatal(err)
	}
	// The runtime recycles goroutines and their wait records through
	// per-P and central free lists; a collection empties the central
	// ones, and refilling an empty list counts as mallocs. So after each
	// collection, refill them all: park a few hundred goroutines, then
	// let them all exit.
	refill := func() {
		release := make(chan struct{})
		var wg sync.WaitGroup
		for range 256 {
			wg.Add(1)
			go func() {
				<-release
				wg.Done()
			}()
		}
		close(release)
		wg.Wait()
	}
	// mallocs is the fewest heap allocations of three builds, each
	// measured right after a collection so that none starts inside it.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	mallocs := func(nodes int) uint64 {
		best := uint64(math.MaxUint64)
		for range 3 {
			runtime.GC()
			refill()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := Materialize(d, nodes, 4096, 1); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			best = min(best, after.Mallocs-before.Mallocs)
		}
		return best
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	sizes := []int{5000, 20_000}
	var many []uint64
	for _, n := range sizes {
		many = append(many, mallocs(n))
	}
	procs := runtime.GOMAXPROCS(1)
	for i, n := range sizes {
		one := mallocs(n)
		t.Logf("%d nodes: %d mallocs at GOMAXPROCS 1, %d at %d", n, one, many[i], procs)
		many[i] -= one
	}
	if many[0] != many[1] {
		t.Fatalf("fan-out adds %d mallocs at 5k nodes but %d at 20k: it grows with the graph", many[0], many[1])
	}
	if many[0] == 0 || many[0] > 12 {
		t.Fatalf("fan-out adds %d mallocs, want 1..12", many[0])
	}
}
