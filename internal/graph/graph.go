// Package graph provides the in-memory graph representation and the
// synthetic generators used to reproduce the paper's workloads.
//
// Graphs are stored in compressed sparse row (CSR) form: one offsets
// array and one flat adjacency array, matching the neighbor-list layout
// that DirectGraph serializes into flash pages. Node features are FP16
// vectors as in the paper; this package stores none of them, only the
// rule that draws them (Features), so the DirectGraph image is their
// one copy.
package graph

import (
	"encoding/binary"
	"math"

	"beacongnn/internal/xrand"
)

// NodeID identifies a graph node. The paper represents nodes as INT-32
// scalars; we use int32 for the stored form and int for API convenience.
type NodeID = int32

// Graph is an immutable directed graph in CSR form whose per-node FP16
// feature vectors are drawn on demand (Features), not stored.
// Undirected graphs are stored with both arc directions.
type Graph struct {
	offsets []int64  // len = NumNodes()+1
	adj     []NodeID // flat neighbor lists
	dim     int
	// Node v's features are draws featStart + v×dim onward of the
	// xrand stream seeded with stream.
	stream    uint64
	featStart uint64
}

// NumNodes returns the node count.
func (g *Graph) NumNodes() int { return len(g.offsets) - 1 }

// NumEdges returns the number of stored arcs.
func (g *Graph) NumEdges() int64 { return int64(len(g.adj)) }

// FeatureDim returns the per-node feature vector length.
func (g *Graph) FeatureDim() int { return g.dim }

// Degree returns the out-degree of node v.
func (g *Graph) Degree(v NodeID) int {
	return int(g.offsets[v+1] - g.offsets[v])
}

// Neighbors returns the neighbor list of v. The returned slice aliases
// the graph's storage and must not be modified.
func (g *Graph) Neighbors(v NodeID) []NodeID {
	return g.adj[g.offsets[v]:g.offsets[v+1]]
}

// Neighbor returns the i-th neighbor of v.
func (g *Graph) Neighbor(v NodeID, i int) NodeID {
	return g.adj[g.offsets[v]+int64(i)]
}

// FeatureCursor draws node features in node order: opened at node v,
// it yields v's FeatureDim values, then v+1's, and so on.
type FeatureCursor struct{ rng xrand.Source }

// Features returns a cursor standing at node v's first feature. It
// costs one stream jump, so callers drawing a run of nodes open one.
func (g *Graph) Features(v NodeID) FeatureCursor {
	c := FeatureCursor{rng: *xrand.New(g.stream)}
	c.rng.Jump(g.featStart + uint64(v)*uint64(g.dim))
	return c
}

// Draw fills dst with the next len(dst)/2 features, each an FP16 bit
// pattern stored little-endian as in a DirectGraph primary section.
func (c *FeatureCursor) Draw(dst []byte) {
	for i := 0; i+1 < len(dst); i += 2 {
		binary.LittleEndian.PutUint16(dst[i:], Float32ToFp16(float32(c.rng.Float64()*2-1)))
	}
}

// AvgDegree returns the mean out-degree.
func (g *Graph) AvgDegree() float64 {
	if g.NumNodes() == 0 {
		return 0
	}
	return float64(g.NumEdges()) / float64(g.NumNodes())
}

// MaxDegree returns the largest out-degree.
func (g *Graph) MaxDegree() int {
	max := 0
	for v := 0; v < g.NumNodes(); v++ {
		if d := g.Degree(NodeID(v)); d > max {
			max = d
		}
	}
	return max
}

// Builder incrementally assembles a Graph. The built graph's features
// follow Generate's rule for Seed 0 and Locality 0.
type Builder struct {
	adjLists [][]NodeID
	dim      int
}

// NewBuilder returns a builder for n nodes with the given feature dim.
func NewBuilder(n, dim int) *Builder {
	return &Builder{adjLists: make([][]NodeID, n), dim: dim}
}

// AddEdge appends dst to src's neighbor list.
func (b *Builder) AddEdge(src, dst NodeID) {
	b.adjLists[src] = append(b.adjLists[src], dst)
}

// Build finalizes the CSR arrays. The builder must not be reused.
func (b *Builder) Build() *Graph {
	n := len(b.adjLists)
	g := &Graph{offsets: make([]int64, n+1), dim: b.dim, stream: 1}
	var total int64
	for i, l := range b.adjLists {
		g.offsets[i] = total
		total += int64(len(l))
	}
	g.offsets[n] = total
	g.featStart = uint64(total)
	g.adj = make([]NodeID, 0, total)
	for _, l := range b.adjLists {
		g.adj = append(g.adj, l...)
	}
	return g
}

// Fp16ToFloat32 converts an IEEE 754 half-precision bit pattern to float32.
func Fp16ToFloat32(h uint16) float32 {
	sign := uint32(h>>15) & 1
	exp := uint32(h>>10) & 0x1f
	frac := uint32(h) & 0x3ff
	var bits uint32
	switch exp {
	case 0:
		if frac == 0 {
			bits = sign << 31 // signed zero
		} else {
			// subnormal: normalize
			e := uint32(127 - 15 + 1)
			for frac&0x400 == 0 {
				frac <<= 1
				e--
			}
			frac &= 0x3ff
			bits = sign<<31 | e<<23 | frac<<13
		}
	case 0x1f:
		bits = sign<<31 | 0xff<<23 | frac<<13 // inf/NaN
	default:
		bits = sign<<31 | (exp-15+127)<<23 | frac<<13
	}
	return math.Float32frombits(bits)
}

// Float32ToFp16 converts a float32 to the nearest IEEE 754 half-precision
// bit pattern (round-to-nearest-even, overflow to infinity).
func Float32ToFp16(f float32) uint16 {
	bits := math.Float32bits(f)
	// Fast path: |f| in [2^-14, 2^15) is a normal half. Rebias the
	// exponent, then round to nearest even by adding just under half an
	// ulp plus the kept LSB; a carry out of the mantissa correctly bumps
	// the exponent. TestFloat32ToFp16FastPath checks it against the
	// general conversion below; -fp16-exhaustive covers all 2^32 inputs.
	if abs := bits & 0x7fffffff; abs-0x38800000 < 0x47000000-0x38800000 {
		a := abs - 0x38000000
		a += 0xfff + (a>>13)&1
		return uint16(bits>>16)&0x8000 | uint16(a>>13)
	}
	return float32ToFp16Slow(bits)
}

// float32ToFp16Slow is the general conversion covering every input:
// subnormal, overflow, inf and NaN included.
func float32ToFp16Slow(bits uint32) uint16 {
	sign := uint16(bits>>16) & 0x8000
	exp := int32(bits>>23)&0xff - 127 + 15
	frac := bits & 0x7fffff
	switch {
	case int32(bits>>23)&0xff == 0xff: // inf/NaN
		if frac != 0 {
			return sign | 0x7e00 // NaN
		}
		return sign | 0x7c00
	case exp >= 0x1f:
		return sign | 0x7c00 // overflow → inf
	case exp <= 0:
		if exp < -10 {
			return sign // underflow → zero
		}
		// subnormal
		frac |= 0x800000
		shift := uint32(14 - exp)
		half := frac >> shift
		rem := frac & ((1 << shift) - 1)
		mid := uint32(1) << (shift - 1)
		if rem > mid || (rem == mid && half&1 == 1) {
			half++
		}
		return sign | uint16(half)
	default:
		half := uint16(exp)<<10 | uint16(frac>>13)
		rem := frac & 0x1fff
		if rem > 0x1000 || (rem == 0x1000 && half&1 == 1) {
			half++ // may carry into exponent; that is correct rounding
		}
		return sign | half
	}
}
