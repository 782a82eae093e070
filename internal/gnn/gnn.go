// Package gnn defines the GNN task of Section VII-A — GraphSage-style
// k-hop sampled subgraphs, vector_sum aggregation, and perceptron
// embedding updates — as both (a) a compute-workload description for
// the accelerator timing model and (b) a reference float32 forward pass
// used to validate end-to-end functional behaviour.
package gnn

import (
	"encoding/binary"
	"fmt"
	"slices"

	"beacongnn/internal/accel"
	"beacongnn/internal/directgraph"
	"beacongnn/internal/graph"
	"beacongnn/internal/xrand"
)

// Model is the GNN configuration: K message-passing layers over k-hop
// subgraphs with the given fanout. InputDim is the dataset feature
// dimension; HiddenDim the intermediate embedding width (paper: 128).
type Model struct {
	Hops      int
	Fanout    int
	InputDim  int
	HiddenDim int
}

// Validate reports whether the model is usable.
func (m Model) Validate() error {
	if m.Hops <= 0 || m.Fanout <= 0 || m.InputDim <= 0 || m.HiddenDim <= 0 {
		return fmt.Errorf("gnn: all model dims must be positive: %+v", m)
	}
	return nil
}

// nodesAtDepth returns the node count at each depth of a full sample
// tree: 1, f, f², ...
func (m Model) nodesAtDepth() []int {
	out := make([]int, m.Hops+1)
	out[0] = 1
	for d := 1; d <= m.Hops; d++ {
		out[d] = out[d-1] * m.Fanout
	}
	return out
}

// SubgraphNodes returns total nodes per target (paper: 40).
func (m Model) SubgraphNodes() int {
	n := 0
	for _, c := range m.nodesAtDepth() {
		n += c
	}
	return n
}

// BatchWorkload returns the accelerator workload of one mini-batch of
// batchSize targets. Layer k (1-based) aggregates embeddings into nodes
// at depths 0..Hops−k and applies the perceptron update; per-layer node
// activations across the batch are batched into a single GEMM, which is
// how a spatial accelerator would tile them.
func (m Model) BatchWorkload(batchSize int) accel.Workload {
	depths := m.nodesAtDepth()
	var w accel.Workload
	dimIn := m.InputDim
	for k := 1; k <= m.Hops; k++ {
		active := 0 // nodes updated by this layer
		for d := 0; d <= m.Hops-k; d++ {
			active += depths[d]
		}
		// Aggregation: each active node sums Fanout+1 embeddings of dimIn.
		w.VectorElem += int64(batchSize) * int64(active) * int64(m.Fanout+1) * int64(dimIn)
		// Update: GEMM (batch·active × dimIn) · (dimIn × HiddenDim).
		w.GEMMs = append(w.GEMMs, accel.GEMM{
			M: batchSize * active,
			K: dimIn,
			N: m.HiddenDim,
		})
		dimIn = m.HiddenDim
	}
	return w
}

// FeatureBytes returns the FP16 bytes of raw features consumed per
// target subgraph (what data preparation must deliver).
func (m Model) FeatureBytes() int {
	return m.SubgraphNodes() * m.InputDim * 2
}

// Weights holds per-layer perceptron weights for the reference forward.
type Weights struct {
	Layers [][]float32 // layer k: dimIn×HiddenDim row-major
	model  Model
}

// NewWeights generates deterministic pseudo-random weights.
func NewWeights(m Model, seed uint64) *Weights {
	rng := xrand.New(seed)
	w := &Weights{model: m}
	dimIn := m.InputDim
	for k := 0; k < m.Hops; k++ {
		layer := make([]float32, dimIn*m.HiddenDim)
		scale := 1.0 / float32(dimIn)
		for i := range layer {
			layer[i] = (float32(rng.Float64()) - 0.5) * scale
		}
		w.Layers = append(w.Layers, layer)
		dimIn = m.HiddenDim
	}
	return w
}

// Feature reads node v's h⁰ from its primary section in the DirectGraph
// image, as the in-storage vector retriever does: the image is the only
// copy of the features.
func Feature(b *directgraph.Build, v graph.NodeID) ([]float32, error) {
	sec, err := b.Primary(int(v))
	if err != nil {
		return nil, err
	}
	fb := sec.FeatureBytes()
	out := make([]float32, len(fb)/2)
	for i := range out {
		out[i] = graph.Fp16ToFloat32(binary.LittleEndian.Uint16(fb[2*i:]))
	}
	return out, nil
}

// Forward runs the reference message passing over a sampled subgraph:
// h⁰ = features read from the image; hᵏ⁺¹(u) = ReLU(Wᵏ · Σ_{v∈children(u)∪{u}} hᵏ(v)).
// It returns the target's final embedding. The subgraph must have been
// sampled with the model's hops/fanout (ragged trees from zero-degree
// nodes are fine).
func Forward(b *directgraph.Build, sg *graph.Subgraph, w *Weights) ([]float32, error) {
	p, err := forward(b, sg, w, false)
	if err != nil {
		return nil, err
	}
	return p.out, nil
}

// pass is one forward pass: the target's output and, when recorded
// for the backward pass, each layer's aggregated inputs and
// pre-activations, indexed [layer][subgraph node] (nil where the layer
// skips the node).
type pass struct {
	out      []float32
	children [][]int32 // children[i] lists subgraph indices whose parent is i
	agg, z   [][][]float32
}

// forward runs the message passing shared by Forward and
// LossAndGradients; record keeps the activations the backward pass
// needs. The one ReLU keeps NaN, so a diverged model shows in its
// output.
func forward(b *directgraph.Build, sg *graph.Subgraph, w *Weights, record bool) (*pass, error) {
	m := w.model
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if b.Layout.FeatureDim != m.InputDim {
		return nil, fmt.Errorf("gnn: image dim %d != model input dim %d", b.Layout.FeatureDim, m.InputDim)
	}
	n := sg.NumNodes()
	p := &pass{children: make([][]int32, n)}
	for i := 1; i < n; i++ {
		p.children[sg.Parents[i]] = append(p.children[sg.Parents[i]], int32(i))
	}
	if record {
		p.agg, p.z = make([][][]float32, m.Hops), make([][][]float32, m.Hops)
	}
	// h holds the current embedding of every subgraph node.
	h := make([][]float32, n)
	for i := range h {
		var err error
		if h[i], err = Feature(b, sg.Nodes[i]); err != nil {
			return nil, err
		}
	}
	dimIn := m.InputDim
	for k := 0; k < m.Hops; k++ {
		next := make([][]float32, n)
		if record {
			p.agg[k], p.z[k] = make([][]float32, n), make([][]float32, n)
		}
		for i := 0; i < n; i++ {
			if int(sg.Hop[i]) > m.Hops-k-1 {
				continue // this node is no longer needed at deeper layers
			}
			// vector_sum aggregation over self + children.
			agg := make([]float32, dimIn)
			copy(agg, h[i])
			for _, c := range p.children[i] {
				hc := h[c]
				for j := range agg {
					agg[j] += hc[j]
				}
			}
			// Perceptron update with ReLU.
			out := make([]float32, m.HiddenDim)
			wk := w.Layers[k]
			for o := range out {
				var s float32
				for j := 0; j < dimIn; j++ {
					s += agg[j] * wk[j*m.HiddenDim+o]
				}
				out[o] = s
			}
			if record {
				p.agg[k][i], p.z[k][i] = agg, out
				out = slices.Clone(out)
			}
			for o, s := range out {
				if s < 0 {
					out[o] = 0
				}
			}
			next[i] = out
		}
		h = next
		dimIn = m.HiddenDim
	}
	if h[0] == nil {
		return nil, fmt.Errorf("gnn: forward produced no target embedding")
	}
	p.out = h[0]
	return p, nil
}
