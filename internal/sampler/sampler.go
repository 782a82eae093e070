// Package sampler implements the die-level sampler microarchitecture of
// Section V-A (Figure 11): a section iterator, vector retriever, node
// sampler and command generator that execute inside each flash die's
// control logic, operating on the raw bytes of a DirectGraph page held
// in the die's cache register.
//
// The sampler is functional, not just a timing stub: it decodes real
// page bytes, draws TRNG randomness, and emits the follow-up sampling
// commands that stream through the backend. Commands aimed at the same
// secondary section coalesce into one read (Section V-A), and malformed
// sections abort with an error, which the firmware maps to the security
// behaviour of Section VI-E.
package sampler

import (
	"fmt"
	"slices"

	"beacongnn/internal/directgraph"
	"beacongnn/internal/sim"
	"beacongnn/internal/xrand"
)

// Config mirrors the global GNN configuration command (Fig. 13): the
// per-die registers programmed once before a task starts.
type Config struct {
	Hops       int  // total sampling hops
	Fanout     int  // samples per node per hop
	FeatureDim int  // FP16 feature length
	NoCoalesce bool // ablation: one command per secondary draw
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Hops <= 0 || c.Fanout <= 0 || c.FeatureDim < 0 {
		return fmt.Errorf("sampler: bad config %+v", c)
	}
	return nil
}

// Command is one sampling command (Fig. 13's runtime parameters): which
// section to read, the hop of the node it belongs to, and how many
// neighbors to sample there. Batch/target identifiers ride along so the
// frontend can reconstruct subgraphs.
type Command struct {
	Addr        directgraph.Addr
	Hop         int  // depth of the node being read (target = 0)
	SampleCount int  // coalesced sample draws (secondary sections); 0 = default fanout
	Secondary   bool // true when Addr names a secondary section
	Target      int32
	Batch       int32
	ParentNode  uint32 // graph node id of the sampled node's parent (bookkeeping)

	// Created is simulation instrumentation, not protocol state: the
	// simulated time the command's address became available at the
	// frontend, the start of its Figure-17 lifetime.
	Created sim.Time
}

// EncodedBytes is the on-bus size of one sampling command: 4 B address,
// 2 B hop/flags, 2 B count, 4 B target/batch metadata, 4 B parent.
const EncodedBytes = 16

// ResultHeaderBytes is the fixed framing of a sampling result on the
// channel bus (node id, counts, status).
const ResultHeaderBytes = 16

// Result is what leaves the die after executing one command.
type Result struct {
	Node       uint32           // graph node the section belongs to
	Commands   []Command        // follow-up sampling commands (coalesced)
	SampledIdx []int            // raw sampled neighbor indices (diagnostics)
	Addr       directgraph.Addr // echo of the executed command's address
	Hop        int

	// Features is the retrieved feature vector (primary sections) as
	// it crosses the bus: little-endian FP16, two bytes per element.
	// The vector retriever ships the bytes without looking at them, so
	// an executed Result reads them in place: Features aliases the page
	// the section came from, like directgraph.SectionView, and sees it
	// as it is when read. FeatureBits decodes a copy.
	Features []byte

	// draws is the command generator's scratch: the secondary index of
	// each draw that left the page, kept with the Result so a recycled
	// one coalesces without allocating.
	draws []int
}

// BusBytes returns the result's channel-bus footprint — the quantity
// that replaces full-page transfer in BG-SP and later designs.
func (r *Result) BusBytes() int {
	return ResultHeaderBytes + len(r.Commands)*EncodedBytes + len(r.Features)
}

// FeatureBits decodes the feature vector into FP16 bit patterns.
func (r *Result) FeatureBits() []uint16 {
	return directgraph.AppendFP16(make([]uint16, 0, len(r.Features)/2), r.Features)
}

// Execute runs one sampling command against a page image, drawing
// randomness from the die's TRNG, and returns a fresh Result. The
// layout must match the DirectGraph the page came from.
func Execute(l directgraph.Layout, page []byte, cmd Command, cfg Config, trng *xrand.Source) (*Result, error) {
	res := &Result{}
	if err := ExecuteInto(res, l, page, cmd, cfg, trng); err != nil {
		return nil, err
	}
	return res, nil
}

// ExecuteInto is Execute writing into a caller-owned Result: it
// overwrites every field and reuses the backing arrays of Commands and
// SampledIdx, so a recycled Result makes the die data path
// allocation-free. Each array is sized for the command's whole draw
// count at once (no command makes more follow-ups or draws than that),
// so a Result grows at most once, whatever commands it carries. The
// section is read in place from the page bytes, and Features aliases
// them; on error res holds partial output and must not be used.
func ExecuteInto(res *Result, l directgraph.Layout, page []byte, cmd Command, cfg Config, trng *xrand.Source) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	// Section iterator: walk the page to the addressed section.
	sec, err := directgraph.ViewSection(l, page, l.Section(cmd.Addr))
	if err != nil {
		return fmt.Errorf("sampler: %w", err)
	}
	res.Node, res.Addr, res.Hop = sec.NodeID, cmd.Addr, cmd.Hop
	n := max(cfg.Fanout, cmd.SampleCount)
	res.Commands = slices.Grow(res.Commands[:0], n)
	res.SampledIdx = slices.Grow(res.SampledIdx[:0], n)
	res.draws = slices.Grow(res.draws[:0], n)
	res.Features = nil
	if cmd.Secondary {
		return sampleSecondary(res, &sec, cmd, trng)
	}
	return samplePrimary(res, l, &sec, cmd, cfg, trng)
}

// sampleSecondary is the node sampler in secondary mode: draw only
// within this section.
func sampleSecondary(res *Result, sec *directgraph.SectionView, cmd Command, trng *xrand.Source) error {
	if sec.Type != directgraph.SectionTypeSecondary {
		return fmt.Errorf("sampler: %w: expected secondary at %#x", directgraph.ErrBadSectionType, uint32(cmd.Addr))
	}
	if cmd.SampleCount <= 0 {
		return fmt.Errorf("sampler: secondary command with count %d", cmd.SampleCount)
	}
	for i := 0; i < cmd.SampleCount; i++ {
		if sec.Count == 0 {
			break
		}
		idx := trng.Intn(sec.Count)
		res.SampledIdx = append(res.SampledIdx, sec.BaseIndex+idx)
		res.Commands = append(res.Commands, Command{
			Addr:       sec.Entry(idx),
			Hop:        cmd.Hop + 1,
			Target:     cmd.Target,
			Batch:      cmd.Batch,
			ParentNode: sec.NodeID,
		})
	}
	return nil
}

// samplePrimary runs the vector retriever and the node sampler in
// primary mode over a primary section.
func samplePrimary(res *Result, l directgraph.Layout, sec *directgraph.SectionView, cmd Command, cfg Config, trng *xrand.Source) error {
	if sec.Type != directgraph.SectionTypePrimary {
		return fmt.Errorf("sampler: %w: expected primary at %#x", directgraph.ErrBadSectionType, uint32(cmd.Addr))
	}
	// Vector retriever: primary sections carry the node's feature.
	res.Features = sec.FeatureBytes()
	if cmd.Hop >= cfg.Hops {
		return nil // final hop: feature retrieval only
	}
	count := cmd.SampleCount
	if count <= 0 {
		count = cfg.Fanout
	}
	if sec.NeighborCount == 0 {
		return nil
	}
	// Node sampler, primary mode: draw over the whole neighbor range;
	// out-of-page indices turn into coalesced secondary commands.
	plan := directgraph.NodePlan{
		InlineCount:  sec.InlineCount,
		FullSecCount: l.SecondaryCapacity(),
	}
	draws := res.draws[:0]
	for i := 0; i < count; i++ {
		idx := trng.Intn(sec.NeighborCount)
		res.SampledIdx = append(res.SampledIdx, idx)
		if idx < sec.InlineCount {
			res.Commands = append(res.Commands, Command{
				Addr:       sec.Inline(idx),
				Hop:        cmd.Hop + 1,
				Target:     cmd.Target,
				Batch:      cmd.Batch,
				ParentNode: sec.NodeID,
			})
			continue
		}
		s := plan.SecondaryIndexFor(idx)
		if s < 0 || s >= sec.SecondaryCount {
			return fmt.Errorf("sampler: sampled index %d maps to secondary %d of %d", idx, s, sec.SecondaryCount)
		}
		if cfg.NoCoalesce {
			// Ablation path: every draw becomes its own secondary read,
			// exposing the redundant-read cost coalescing avoids.
			res.Commands = append(res.Commands, Command{
				Addr:        sec.Secondary(s),
				Hop:         cmd.Hop,
				SampleCount: 1,
				Secondary:   true,
				Target:      cmd.Target,
				Batch:       cmd.Batch,
				ParentNode:  sec.NodeID,
			})
			continue
		}
		draws = append(draws, s)
	}
	res.draws = draws
	// Command generator: one coalesced command per touched secondary,
	// carrying its draw count, in section order for determinism.
	slices.Sort(draws)
	for i := 0; i < len(draws); {
		s, j := draws[i], i+1
		for j < len(draws) && draws[j] == s {
			j++
		}
		res.Commands = append(res.Commands, Command{
			Addr:        sec.Secondary(s),
			Hop:         cmd.Hop, // same node's sampling continues
			SampleCount: j - i,
			Secondary:   true,
			Target:      cmd.Target,
			Batch:       cmd.Batch,
			ParentNode:  sec.NodeID,
		})
		i = j
	}
	return nil
}
