package graph

import (
	"encoding/binary"
	"math"
	"testing"
	"testing/quick"

	"beacongnn/internal/xrand"
)

func TestBuilderRoundTrip(t *testing.T) {
	b := NewBuilder(3, 2)
	b.AddEdge(0, 1)
	b.AddEdge(0, 2)
	b.AddEdge(1, 0)
	g := b.Build()

	if g.NumNodes() != 3 || g.NumEdges() != 3 {
		t.Fatalf("nodes=%d edges=%d", g.NumNodes(), g.NumEdges())
	}
	if g.Degree(0) != 2 || g.Degree(1) != 1 || g.Degree(2) != 0 {
		t.Fatalf("degrees wrong: %d %d %d", g.Degree(0), g.Degree(1), g.Degree(2))
	}
	if nb := g.Neighbors(0); nb[0] != 1 || nb[1] != 2 {
		t.Fatalf("neighbors(0) = %v", nb)
	}
	// Features follow Generate's rule for Seed 0: the draws after the
	// edges' in the Seed+1 stream, scaled to [-1, 1).
	rng := xrand.New(1)
	rng.Jump(uint64(g.NumEdges()) + 2)
	c := g.Features(1)
	f := make([]byte, 2)
	c.Draw(f)
	if got, want := binary.LittleEndian.Uint16(f), Float32ToFp16(float32(rng.Float64()*2-1)); got != want {
		t.Fatalf("node 1 feature 0 = %#04x, want %#04x", got, want)
	}
	if g.AvgDegree() != 1 {
		t.Fatalf("avg degree = %v", g.AvgDegree())
	}
	if g.MaxDegree() != 2 {
		t.Fatalf("max degree = %v", g.MaxDegree())
	}
}

func TestFp16RoundTripExact(t *testing.T) {
	// Values exactly representable in FP16 must round-trip.
	for _, v := range []float32{0, 1, -1, 0.5, 2, 1024, -0.25, 65504} {
		if got := Fp16ToFloat32(Float32ToFp16(v)); got != v {
			t.Errorf("round trip %v -> %v", v, got)
		}
	}
}

func TestFp16SpecialValues(t *testing.T) {
	inf := float32(math.Inf(1))
	if Fp16ToFloat32(Float32ToFp16(inf)) != inf {
		t.Error("+inf did not round-trip")
	}
	if Fp16ToFloat32(Float32ToFp16(float32(math.Inf(-1)))) != float32(math.Inf(-1)) {
		t.Error("-inf did not round-trip")
	}
	if !math.IsNaN(float64(Fp16ToFloat32(Float32ToFp16(float32(math.NaN()))))) {
		t.Error("NaN did not survive")
	}
	// Overflow saturates to infinity.
	if Fp16ToFloat32(Float32ToFp16(1e10)) != inf {
		t.Error("overflow did not produce inf")
	}
	// Tiny values underflow to zero.
	if Fp16ToFloat32(Float32ToFp16(1e-20)) != 0 {
		t.Error("underflow did not produce 0")
	}
}

func TestFp16RelativeErrorProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		for i := 0; i < 100; i++ {
			v := float32(r.Float64()*200 - 100)
			got := Fp16ToFloat32(Float32ToFp16(v))
			if v == 0 {
				continue
			}
			rel := math.Abs(float64(got-v) / float64(v))
			if rel > 1.0/1024 { // fp16 has 10 fraction bits → rel err ≤ 2^-11, allow 2×
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestFp16SubnormalRoundTrip(t *testing.T) {
	// Smallest positive fp16 subnormal ≈ 5.96e-8.
	const tiny = 5.9604645e-08
	bits := Float32ToFp16(tiny)
	if bits != 1 {
		t.Fatalf("subnormal encoding = %#x, want 0x1", bits)
	}
	if got := Fp16ToFloat32(bits); math.Abs(float64(got-tiny)) > 1e-12 {
		t.Fatalf("subnormal round trip = %v", got)
	}
}

func TestGenerateMatchesSpec(t *testing.T) {
	spec := GenSpec{Nodes: 2000, AvgDegree: 20, FeatureDim: 8, PowerLaw: 2.1, Seed: 7}
	g, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 2000 {
		t.Fatalf("nodes = %d", g.NumNodes())
	}
	if g.FeatureDim() != 8 {
		t.Fatalf("dim = %d", g.FeatureDim())
	}
	avg := g.AvgDegree()
	if avg < 15 || avg > 25 {
		t.Fatalf("avg degree = %v, want ≈20", avg)
	}
	// Power-law: max degree should be well above the mean.
	if g.MaxDegree() < 3*int(avg) {
		t.Fatalf("max degree %d not heavy-tailed vs avg %v", g.MaxDegree(), avg)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	spec := GenSpec{Nodes: 500, AvgDegree: 10, FeatureDim: 4, PowerLaw: 2.0, Seed: 3}
	a, _ := Generate(spec)
	b, _ := Generate(spec)
	if a.NumEdges() != b.NumEdges() {
		t.Fatal("same seed produced different edge counts")
	}
	for v := 0; v < a.NumNodes(); v++ {
		na, nb := a.Neighbors(NodeID(v)), b.Neighbors(NodeID(v))
		for i := range na {
			if na[i] != nb[i] {
				t.Fatalf("node %d neighbors differ", v)
			}
		}
	}
}

func TestGenerateUniformDegrees(t *testing.T) {
	g, err := Generate(GenSpec{Nodes: 3000, AvgDegree: 10, FeatureDim: 0, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if avg := g.AvgDegree(); avg < 8 || avg > 12 {
		t.Fatalf("avg degree = %v, want ≈10", avg)
	}
	if g.MaxDegree() > 19 {
		t.Fatalf("uniform max degree = %d, want ≤ 19", g.MaxDegree())
	}
}

func TestGenerateValidation(t *testing.T) {
	cases := []GenSpec{
		{Nodes: 0},
		{Nodes: 10, AvgDegree: -1},
		{Nodes: 10, AvgDegree: 10},
		{Nodes: 10, FeatureDim: -1},
		{Nodes: 10, AvgDegree: math.NaN()},
		{Nodes: 10, AvgDegree: 3, PowerLaw: math.NaN()},
		{Nodes: 10, AvgDegree: 3, PowerLaw: math.Inf(1)},
		{Nodes: 10, AvgDegree: 3, PowerLaw: math.Inf(-1)},
		{Nodes: 10, AvgDegree: 3, Locality: math.NaN()},
	}
	for _, c := range cases {
		if _, err := Generate(c); err == nil {
			t.Errorf("spec %+v did not error", c)
		}
	}
}

func TestDegreeSequenceRespectsCap(t *testing.T) {
	degs, err := DegreeSequence(GenSpec{Nodes: 1000, AvgDegree: 50, MaxDegree: 80, PowerLaw: 1.8, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range degs {
		if d < 1 || d > 80 {
			t.Fatalf("degree %d outside [1,80]", d)
		}
	}
}

func TestSampleSubgraphShape(t *testing.T) {
	g, _ := Generate(GenSpec{Nodes: 1000, AvgDegree: 20, FeatureDim: 4, PowerLaw: 2.0, Seed: 5})
	spec := SampleSpec{Hops: 3, Fanout: 3}
	if spec.SubgraphSize() != 40 {
		t.Fatalf("SubgraphSize = %d, want 40 (paper Section VII-A)", spec.SubgraphSize())
	}
	sg, err := SampleSubgraph(g, 17, spec, xrand.New(9))
	if err != nil {
		t.Fatal(err)
	}
	if sg.NumNodes() != 40 {
		t.Fatalf("sampled %d nodes, want 40", sg.NumNodes())
	}
	if err := sg.Validate(g); err != nil {
		t.Fatal(err)
	}
}

func TestSampleSubgraphZeroDegreeTarget(t *testing.T) {
	g := NewBuilder(2, 1).Build() // no edges at all
	sg, err := SampleSubgraph(g, 0, SampleSpec{Hops: 2, Fanout: 3}, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if sg.NumNodes() != 1 {
		t.Fatalf("zero-degree target sampled %d nodes, want 1", sg.NumNodes())
	}
	if err := sg.Validate(g); err != nil {
		t.Fatal(err)
	}
}

func TestSampleSubgraphErrors(t *testing.T) {
	g, _ := Generate(GenSpec{Nodes: 10, AvgDegree: 2, FeatureDim: 1, Seed: 1})
	if _, err := SampleSubgraph(g, 100, SampleSpec{Hops: 1, Fanout: 1}, xrand.New(1)); err == nil {
		t.Error("out-of-range target did not error")
	}
	if _, err := SampleSubgraph(g, 0, SampleSpec{Hops: 0, Fanout: 1}, xrand.New(1)); err == nil {
		t.Error("zero hops did not error")
	}
}

func TestSampleSubgraphValidProperty(t *testing.T) {
	g, _ := Generate(GenSpec{Nodes: 300, AvgDegree: 8, FeatureDim: 2, PowerLaw: 2.2, Seed: 4})
	f := func(seed uint64, targetRaw uint16) bool {
		target := NodeID(int(targetRaw) % g.NumNodes())
		sg, err := SampleSubgraph(g, target, SampleSpec{Hops: 2, Fanout: 4}, xrand.New(seed))
		if err != nil {
			return false
		}
		return sg.Validate(g) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
