package gnn

import (
	"fmt"

	"beacongnn/internal/accel"
	"beacongnn/internal/directgraph"
	"beacongnn/internal/graph"
)

// Training support. The paper's experiments run GNN training
// (Section VII-A "we only focus on GNN training" in the query
// discussion), so the compute stage includes the backward pass: for
// each mini-batch the accelerator executes forward aggregation +
// update, then output-gradient propagation and weight-gradient GEMMs.
// This file provides both the timing workload (for the accelerator
// model) and a reference implementation with exact gradients, verified
// by finite differences in the tests.

// TrainingWorkload returns the accelerator workload of one training
// step on a mini-batch: the forward pass plus, per layer, the input-
// gradient GEMM (dagg = dz · Wᵀ, same MACs as forward) and the
// weight-gradient GEMM (dW = aggᵀ · dz), plus the backward aggregation
// scatter on the vector array.
func (m Model) TrainingWorkload(batchSize int) accel.Workload {
	w := m.BatchWorkload(batchSize)
	fwdGEMMs := len(w.GEMMs)
	for i := 0; i < fwdGEMMs; i++ {
		g := w.GEMMs[i]
		// dagg: (M×N)·(N×K) — identical MAC count, transposed flow.
		w.GEMMs = append(w.GEMMs, accel.GEMM{M: g.M, K: g.N, N: g.K})
		// dW: (K×M)·(M×N).
		w.GEMMs = append(w.GEMMs, accel.GEMM{M: g.K, K: g.M, N: g.N})
	}
	// Gradient scatter mirrors the forward aggregation traffic.
	w.VectorElem *= 2
	return w
}

// Gradients holds per-layer weight gradients, shaped like Weights.
type Gradients struct {
	Layers [][]float32
}

// scale multiplies every gradient entry (used by SGD).
func (g *Gradients) scale(f float32) {
	for _, l := range g.Layers {
		for i := range l {
			l[i] *= f
		}
	}
}

// LossAndGradients runs the forward pass, computes the squared-error
// loss ½‖h_target − y‖² against the target label vector y (length
// HiddenDim), and back-propagates exact gradients through the ReLU
// perceptron layers and the vector_sum aggregation tree.
func LossAndGradients(b *directgraph.Build, sg *graph.Subgraph, w *Weights, y []float32) (float32, *Gradients, error) {
	m := w.model
	if len(y) != m.HiddenDim {
		return 0, nil, fmt.Errorf("gnn: label dim %d != hidden %d", len(y), m.HiddenDim)
	}
	p, err := forward(b, sg, w, true)
	if err != nil {
		return 0, nil, err
	}
	n := sg.NumNodes()

	// Loss and its gradient at the target.
	var loss float32
	dh := make([][]float32, n)
	dh[0] = make([]float32, m.HiddenDim)
	for o := range y {
		d := p.out[o] - y[o]
		loss += 0.5 * d * d
		dh[0][o] = d
	}

	// Backward through the layers.
	grads := &Gradients{Layers: make([][]float32, m.Hops)}
	for k := m.Hops - 1; k >= 0; k-- {
		dimIn := m.HiddenDim
		if k == 0 {
			dimIn = m.InputDim
		}
		grads.Layers[k] = make([]float32, dimIn*m.HiddenDim)
		aggs, zs := p.agg[k], p.z[k]
		wk := w.Layers[k]
		prevDh := make([][]float32, n)
		for i := 0; i < n; i++ {
			if dh[i] == nil || zs[i] == nil {
				continue
			}
			// ReLU gate.
			dz := make([]float32, m.HiddenDim)
			for o := range dz {
				if zs[i][o] > 0 {
					dz[o] = dh[i][o]
				}
			}
			agg := aggs[i]
			// Weight gradient: dW[j,o] += agg[j]·dz[o].
			for j := 0; j < dimIn; j++ {
				base := j * m.HiddenDim
				aj := agg[j]
				for o := 0; o < m.HiddenDim; o++ {
					grads.Layers[k][base+o] += aj * dz[o]
				}
			}
			// Input gradient: dagg[j] = Σ_o W[j,o]·dz[o].
			dagg := make([]float32, dimIn)
			for j := 0; j < dimIn; j++ {
				base := j * m.HiddenDim
				var s float32
				for o := 0; o < m.HiddenDim; o++ {
					s += wk[base+o] * dz[o]
				}
				dagg[j] = s
			}
			// Scatter through the sum aggregation: self + children.
			addInto := func(idx int32) {
				if prevDh[idx] == nil {
					prevDh[idx] = make([]float32, dimIn)
				}
				for j := range dagg {
					prevDh[idx][j] += dagg[j]
				}
			}
			addInto(int32(i))
			for _, c := range p.children[i] {
				addInto(c)
			}
		}
		dh = prevDh
	}
	return loss, grads, nil
}

// SGDStep applies one stochastic-gradient step: W ← W − lr·∇W.
func SGDStep(w *Weights, grads *Gradients, lr float32) error {
	if len(grads.Layers) != len(w.Layers) {
		return fmt.Errorf("gnn: gradient layer count %d != %d", len(grads.Layers), len(w.Layers))
	}
	for k, gl := range grads.Layers {
		if len(gl) != len(w.Layers[k]) {
			return fmt.Errorf("gnn: layer %d gradient size %d != %d", k, len(gl), len(w.Layers[k]))
		}
		for i, gv := range gl {
			w.Layers[k][i] -= lr * gv
		}
	}
	return nil
}
