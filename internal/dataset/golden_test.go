package dataset

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"

	"beacongnn/internal/graph"
)

// materializeGolden pins the exact bytes Materialize produces at 5000
// nodes and 4 KB pages: graph adjacency, the feature bits in each node's
// primary section, every DirectGraph page in page order, every node plan
// and the build stats. Any change to
// the generator's RNG draw order or to the section encoding shows here.
var materializeGolden = map[string]string{
	"reddit/1":    "bb78bce3b22e234391459dd0133b0ab1bdab06fa11b9a3ffc26f6f9fb910387d",
	"reddit/2":    "5062c35a98a7c0895757226f4c06b59e366d64bd51fcd2daaaa68dbcf0a590d6",
	"amazon/1":    "83f4f1219459665c07739b4f5a7df9be28e4baf990b167ad261a73dbaf80f516",
	"amazon/2":    "ad6db003e84b1f6c630ac8491242a6efc82ac956ac804be2cd1de47ab3f4d5e7",
	"movielens/1": "a33e51513de86c4c40da07b3cec8548561143415b4c9cb1acdd45f1c6abad2ed",
	"movielens/2": "8474fb134d586ce78aebe3e4347af96e14c22c2c1ac79fde26624e0675b200db",
	"OGBN/1":      "b94cf22422d10db3c3f8a695209bc5c45f96c9b33b710c06a3b41f844e253788",
	"OGBN/2":      "d0b803b421ea50ae629097653376cd8d4b587e618c26a612d584693b6aa429fb",
	"PPI/1":       "ce4326aa2cf9b26d5d775b77b73c163ac5edb4897f116c52958bf0657f446f87",
	"PPI/2":       "eed2c9c04058b078e9c63c1ebc87632dfaf0bc634ed8f46962073fce1112c8fd",
}

func TestMaterializeGolden(t *testing.T) {
	for _, d := range All() {
		for _, seed := range []uint64{1, 2} {
			key := fmt.Sprintf("%s/%d", d.Name, seed)
			inst, err := Materialize(d, 5000, 4096, seed)
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			got, err := instanceDigest(inst)
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			if want := materializeGolden[key]; got != want {
				t.Errorf("%s: digest %s, golden %s", key, got, want)
			}
		}
	}
}

// instanceDigest hashes everything Materialize determines. It fails
// only if a node's primary section does not decode.
func instanceDigest(inst *Instance) (string, error) {
	h := sha256.New()
	var buf []byte
	w := func(vs ...int64) {
		for _, v := range vs {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
		}
		if len(buf) >= 1<<16 {
			h.Write(buf)
			buf = buf[:0]
		}
	}
	g := inst.Graph
	w(int64(g.NumNodes()), int64(g.FeatureDim()), g.NumEdges())
	for v := 0; v < g.NumNodes(); v++ {
		nbrs := g.Neighbors(graph.NodeID(v))
		w(int64(len(nbrs)))
		for _, u := range nbrs {
			w(int64(u))
		}
		sec, err := inst.Build.Primary(v)
		if err != nil {
			return "", err
		}
		for _, f := range sec.AppendFeatureBits(nil) {
			w(int64(f))
		}
	}
	b := inst.Build
	s := b.Stats
	w(int64(b.Layout.PageSize), int64(b.Layout.FeatureDim))
	w(int64(s.Nodes), s.Edges, int64(s.PrimaryPages), int64(s.SecondaryPages), s.UsedBytes, s.TotalBytes, s.RawBytes)
	for i := range b.Plans {
		p := &b.Plans[i]
		dedicated := int64(0)
		if p.DedicatedPage {
			dedicated = 1
		}
		w(int64(p.Degree), int64(p.InlineCount), int64(p.SecCount), int64(p.Primary), int64(p.PrimaryOffset),
			int64(p.PrimarySize), int64(p.LastSecCount), int64(p.FullSecCount), dedicated)
		w(int64(len(p.Secondaries)), int64(len(p.SecOffsets)))
		for j := range p.Secondaries {
			w(int64(p.Secondaries[j]))
		}
		for _, o := range p.SecOffsets {
			w(int64(o))
		}
	}
	w(int64(len(b.Pages)))
	for i, page := range b.Pages {
		w(int64(b.First)+int64(i), int64(len(page)))
		buf = append(buf, page...)
	}
	h.Write(buf)
	return hex.EncodeToString(h.Sum(nil)), nil
}
