package gnn

import (
	"math"
	"testing"

	"beacongnn/internal/directgraph"
	"beacongnn/internal/graph"
	"beacongnn/internal/xrand"
)

func trainFixture(t *testing.T) (*directgraph.Build, *graph.Subgraph, *Weights, []float32, Model) {
	t.Helper()
	g, err := graph.Generate(graph.GenSpec{Nodes: 120, AvgDegree: 6, FeatureDim: 5, PowerLaw: 2.0, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	m := Model{Hops: 2, Fanout: 2, InputDim: 5, HiddenDim: 4}
	w := NewWeights(m, 11)
	sg, err := graph.SampleSubgraph(g, 9, graph.SampleSpec{Hops: 2, Fanout: 2}, xrand.New(5))
	if err != nil {
		t.Fatal(err)
	}
	// Labels derived from the model's own initial output keep every
	// output unit gradient-connected (a ReLU head cannot reach negative
	// or far-off targets, which would freeze coordinates at ∂L=0).
	img := image(t, g)
	out, err := Forward(img, sg, w)
	if err != nil {
		t.Fatal(err)
	}
	y := make([]float32, m.HiddenDim)
	for o := range y {
		y[o] = 2*out[o] + 0.02
	}
	return img, sg, w, y, m
}

func TestLossMatchesForward(t *testing.T) {
	img, sg, w, y, _ := trainFixture(t)
	out, err := Forward(img, sg, w)
	if err != nil {
		t.Fatal(err)
	}
	loss, _, err := LossAndGradients(img, sg, w, y)
	if err != nil {
		t.Fatal(err)
	}
	var want float32
	for o := range y {
		d := out[o] - y[o]
		want += 0.5 * d * d
	}
	if math.Abs(float64(loss-want)) > 1e-5 {
		t.Fatalf("loss = %v, forward recomputation says %v", loss, want)
	}
}

func TestGradientsMatchFiniteDifferences(t *testing.T) {
	// The decisive correctness test: analytic gradients must agree with
	// central finite differences at sampled weight coordinates.
	img, sg, w, y, m := trainFixture(t)
	_, grads, err := LossAndGradients(img, sg, w, y)
	if err != nil {
		t.Fatal(err)
	}
	const eps = 1e-3
	rng := xrand.New(99)
	checked := 0
	for k := range w.Layers {
		for trial := 0; trial < 8; trial++ {
			i := rng.Intn(len(w.Layers[k]))
			orig := w.Layers[k][i]
			w.Layers[k][i] = orig + eps
			lp, _, err := LossAndGradients(img, sg, w, y)
			if err != nil {
				t.Fatal(err)
			}
			w.Layers[k][i] = orig - eps
			lm, _, err := LossAndGradients(img, sg, w, y)
			if err != nil {
				t.Fatal(err)
			}
			w.Layers[k][i] = orig
			numeric := float64(lp-lm) / (2 * eps)
			analytic := float64(grads.Layers[k][i])
			// Absolute-plus-relative tolerance; ReLU kinks can make a
			// coordinate non-smooth, so allow a small floor.
			diff := math.Abs(numeric - analytic)
			tol := 1e-3 + 0.02*math.Max(math.Abs(numeric), math.Abs(analytic))
			if diff > tol {
				t.Fatalf("layer %d weight %d: analytic %v vs numeric %v", k, i, analytic, numeric)
			}
			checked++
		}
	}
	if checked < 16 {
		t.Fatal("too few coordinates checked")
	}
	_ = m
}

func TestSGDStepReducesLoss(t *testing.T) {
	img, sg, w, y, _ := trainFixture(t)
	loss0, grads, err := LossAndGradients(img, sg, w, y)
	if err != nil {
		t.Fatal(err)
	}
	if err := SGDStep(w, grads, 0.01); err != nil {
		t.Fatal(err)
	}
	loss1, _, err := LossAndGradients(img, sg, w, y)
	if err != nil {
		t.Fatal(err)
	}
	if loss1 >= loss0 {
		t.Fatalf("SGD did not reduce loss: %v → %v", loss0, loss1)
	}
}

func TestTrainingConvergesOnFixedSubgraph(t *testing.T) {
	img, sg, w, y, _ := trainFixture(t)
	var first, last float32
	for step := 0; step < 600; step++ {
		loss, grads, err := LossAndGradients(img, sg, w, y)
		if err != nil {
			t.Fatal(err)
		}
		if step == 0 {
			first = loss
		}
		last = loss
		if err := SGDStep(w, grads, 0.1); err != nil {
			t.Fatal(err)
		}
	}
	if last > first/5 {
		t.Fatalf("training stalled: loss %v → %v", first, last)
	}
}

func TestTrainingWorkloadShape(t *testing.T) {
	m := Model{Hops: 3, Fanout: 3, InputDim: 100, HiddenDim: 128}
	fwd := m.BatchWorkload(64)
	trn := m.TrainingWorkload(64)
	if len(trn.GEMMs) != 3*len(fwd.GEMMs) {
		t.Fatalf("training GEMMs = %d, want 3× forward (%d)", len(trn.GEMMs), len(fwd.GEMMs))
	}
	if trn.VectorElem != 2*fwd.VectorElem {
		t.Fatalf("training vector elems = %d, want 2× forward", trn.VectorElem)
	}
	// MAC count roughly triples (dagg + dW have the same MACs as forward).
	if trn.MACs() != 3*fwd.MACs() {
		t.Fatalf("training MACs = %d, want %d", trn.MACs(), 3*fwd.MACs())
	}
}

func TestLossValidation(t *testing.T) {
	img, sg, w, _, _ := trainFixture(t)
	if _, _, err := LossAndGradients(img, sg, w, []float32{1}); err == nil {
		t.Fatal("bad label dim accepted")
	}
}
