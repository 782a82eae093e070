package beacongnn

import (
	"math"
	"strings"
	"testing"
)

func TestQuickstartFlow(t *testing.T) {
	cfg := DefaultConfig()
	inst, err := BuildDataset("amazon", 3000, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.GNN.BatchSize = 32
	res, err := Run(BG2, cfg, inst, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Throughput <= 0 || res.Platform != "BG-2" {
		t.Fatalf("result = %+v", res)
	}
}

func TestCustomDataset(t *testing.T) {
	cfg := DefaultConfig()
	cfg.GNN.BatchSize = 16
	inst, err := BuildCustomDataset("mygraph", 2000, 12, 64, 2.0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(BG1, cfg, inst, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Dataset != "mygraph" {
		t.Fatalf("dataset = %s", res.Dataset)
	}
}

func TestPlatformsAndNames(t *testing.T) {
	if len(Platforms()) != 8 {
		t.Fatalf("platforms = %d", len(Platforms()))
	}
	p, err := PlatformByName("BG-DGSP")
	if err != nil || p != BGDGSP {
		t.Fatalf("ByName: %v %v", p, err)
	}
}

func TestDatasetNames(t *testing.T) {
	names := DatasetNames()
	if len(names) != 5 || names[0] != "reddit" {
		t.Fatalf("names = %v", names)
	}
	if _, err := BuildDataset("nope", 100, DefaultConfig()); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestExperimentRegistry(t *testing.T) {
	ids := ExperimentIDs()
	if len(ids) < 10 {
		t.Fatalf("only %d experiments registered", len(ids))
	}
	var sb strings.Builder
	if err := RunExperiment("table2", true, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "16 channels") {
		t.Fatalf("table2 output: %q", sb.String())
	}
	if err := RunExperiment("bogus", true, &sb); err == nil {
		t.Fatal("bogus experiment accepted")
	}
}

func TestTraditionalConfig(t *testing.T) {
	if TraditionalConfig().Flash.ReadLatency <= DefaultConfig().Flash.ReadLatency {
		t.Fatal("traditional config not slower")
	}
}

func TestTrainLossDecreases(t *testing.T) {
	cfg := DefaultConfig()
	inst, err := BuildCustomDataset("t", 2000, 10, 16, 2.0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	losses, err := Train(inst, 300, 0.05, cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(losses) != 300 {
		t.Fatalf("steps = %d", len(losses))
	}
	mean := func(xs []float32) float64 {
		var s float64
		for _, v := range xs {
			s += float64(v)
		}
		return s / float64(len(xs))
	}
	first, last := mean(losses[:50]), mean(losses[250:])
	if last >= first {
		t.Fatalf("training did not learn: %.5f → %.5f", first, last)
	}
}

func TestTrainValidation(t *testing.T) {
	cfg := DefaultConfig()
	if _, err := Train(nil, 10, 0.1, cfg, 1); err == nil {
		t.Fatal("nil instance accepted")
	}
	if _, err := Train(&Dataset{}, 10, 0.1, cfg, 1); err == nil {
		t.Fatal("Train accepted an instance without graph or build")
	}
	if _, err := Embed(&Dataset{}, 0, cfg, 1); err == nil {
		t.Fatal("Embed accepted an instance without graph or build")
	}
	inst, err := BuildDataset("OGBN", 500, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, lr := range []float32{float32(math.NaN()), float32(math.Inf(1)), 0, -0.1} {
		if losses, err := Train(inst, 10, lr, cfg, 1); err == nil {
			t.Errorf("lr %v accepted, losses %v", lr, losses)
		}
	}
	// A finite lr this large diverges within a few steps: Train must
	// stop with an error instead of reporting the losses.
	if losses, err := Train(inst, 10, 1e6, cfg, 1); err == nil {
		t.Errorf("lr 1e6 diverged silently, losses %v", losses)
	}
}
