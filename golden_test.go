package beacongnn

import (
	"math"
	"strconv"
	"testing"
)

// functionalGolden pins the functional GNN outputs as float32 bit
// patterns: Embed on three targets of two datasets (1500 nodes, hidden
// width 8, seed 11) and the per-step losses of one OGBN Train run
// (1500 nodes, 16 steps, lr 0.05, seed 5). Values compare with ==, so
// +0 and -0 count as equal.
var functionalGolden = map[string][]uint32{
	"amazon/0":    {0x370b0ade, 0, 0, 0, 0x39f4e9c7, 0, 0, 0x3a3083ad},
	"amazon/7":    {0x3a0195a5, 0, 0x39b7942a, 0, 0x3a950c27, 0, 0, 0x398d9e75},
	"amazon/1499": {0x39dc9f4d, 0, 0x393605c6, 0, 0x3a7f1bd6, 0, 0, 0x39a93c71},
	"OGBN/0":      {0x3bebd939, 0x3b057df4, 0x3ad3cf43, 0, 0x3a8f2009, 0, 0x3ba03695, 0},
	"OGBN/7":      {0x3c02087b, 0x3aefbb66, 0x38596fc0, 0, 0x3b9271e3, 0, 0x3b22e04e, 0},
	"OGBN/1499":   {0x3bc4469e, 0x3ab0124a, 0, 0, 0x3af62934, 0, 0x3af3d405, 0},
	"train": {
		0x359338b8, 0x35c81af1, 0x359b49bd, 0x35a924f5, 0x359812a2, 0x35bcb9f9, 0x35c00cb0, 0x3599f919,
		0x36087112, 0x358ff7f0, 0x35aba22b, 0x3587c308, 0x35c4bf35, 0x35cf9fba, 0x35b58fb4, 0x35997c87,
	},
}

func TestFunctionalGolden(t *testing.T) {
	check := func(key string, got []float32) {
		t.Helper()
		want := functionalGolden[key]
		if len(got) != len(want) {
			t.Fatalf("%s: %d values, golden %d", key, len(got), len(want))
		}
		for i, w := range want {
			if got[i] != math.Float32frombits(w) {
				t.Errorf("%s[%d] = %#08x, golden %#08x", key, i, math.Float32bits(got[i]), w)
			}
		}
	}
	cfg := DefaultConfig()
	cfg.GNN.HiddenDim = 8
	for _, name := range []string{"amazon", "OGBN"} {
		inst, err := BuildDataset(name, 1500, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, target := range []int{0, 7, 1499} {
			emb, err := Embed(inst, target, cfg, 11)
			if err != nil {
				t.Fatal(err)
			}
			check(name+"/"+strconv.Itoa(target), emb)
		}
	}
	cfg = DefaultConfig()
	inst, err := BuildDataset("OGBN", 1500, cfg)
	if err != nil {
		t.Fatal(err)
	}
	losses, err := Train(inst, 16, 0.05, cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	check("train", losses)
}
