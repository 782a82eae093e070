// Package directgraph implements the DirectGraph GNN storage format of
// Section IV-A: graph structure and feature table serialized into flash
// pages and indexed directly by flash physical addresses, so neighbor
// sampling needs no host-side or FTL address translation.
//
// Layout (documented here because the paper gives fields, not byte
// offsets):
//
//	Section address (4 bytes): high bits = physical page number, low
//	bits = in-page section index. For a 1 TB SSD with 4 KB pages that is
//	28 + 4 bits, exactly as Section IV-A describes; the split scales
//	with page size (log2(pageSize) − 8 section bits).
//
//	Every section starts with an 8-byte common header:
//	    [0]   type (1 = primary, 2 = secondary, 0 = end of page)
//	    [1]   reserved
//	    [2:4] section length in bytes, little endian, incl. header
//	    [4:8] node id (uint32)
//
//	Primary section body:
//	    [8:12]  total neighbor count of the node
//	    [12:14] inline neighbor count (stored in this section)
//	    [14:16] secondary section count S
//	    S × 4   secondary section addresses
//	    dim × 2 FP16 feature vector
//	    CI × 4  inline neighbor primary-section addresses
//
//	Secondary section body:
//	    [8:12]  base index: global neighbor index of the first entry
//	    [12:14] entry count
//	    [14:16] reserved
//	    n × 4   neighbor primary-section addresses
//
// All secondary sections of a node except the last hold exactly the
// full-page capacity, so the die-level sampler can locate the section
// covering a sampled global index with one division — no per-section
// range table is needed in the primary section.
package directgraph

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// Addr is a DirectGraph section address: page number plus in-page
// section index, packed as Section IV-A describes.
type Addr uint32

// InvalidAddr marks an unset address.
const InvalidAddr Addr = 0xFFFFFFFF

// Header sizes in bytes.
const (
	commonHeaderLen    = 8
	primaryHeaderLen   = 16 // common + count/inline/secCount fields
	secondaryHeaderLen = 16 // common + base/count/reserved fields
	addrLen            = 4
	// MaxPageSize is the largest page whose section lengths fit the
	// 16-bit length field.
	MaxPageSize = 32768
	// SectionTypePrimary and friends are the header type codes.
	SectionTypeEnd       = 0
	SectionTypePrimary   = 1
	SectionTypeSecondary = 2
)

// Layout fixes the geometry-dependent constants of a DirectGraph.
type Layout struct {
	PageSize   int // flash page size in bytes
	FeatureDim int // FP16 feature vector length
}

// SectionBits returns the number of address bits used for in-page
// section indexing: 4 for 4 KB pages, scaling with page size.
func (l Layout) SectionBits() uint {
	return uint(bits.Len(uint(l.PageSize))) - 1 - 8 // log2(pageSize) - 8
}

// MaxSectionsPerPage returns how many sections one page may hold.
func (l Layout) MaxSectionsPerPage() int { return 1 << l.SectionBits() }

// MakeAddr packs a page number and section index.
func (l Layout) MakeAddr(page uint32, section int) Addr {
	return Addr(page<<l.SectionBits() | uint32(section))
}

// Page extracts the physical page number from an address.
func (l Layout) Page(a Addr) uint32 { return uint32(a) >> l.SectionBits() }

// Section extracts the in-page section index from an address.
func (l Layout) Section(a Addr) int {
	return int(uint32(a) & (1<<l.SectionBits() - 1))
}

// FeatureBytes returns the serialized feature vector size.
func (l Layout) FeatureBytes() int { return l.FeatureDim * 2 }

// SecondaryCapacity returns how many neighbor addresses a full-page
// secondary section holds.
func (l Layout) SecondaryCapacity() int {
	return (l.PageSize - secondaryHeaderLen) / addrLen
}

// Validate reports whether the layout is usable.
func (l Layout) Validate() error {
	switch {
	case l.PageSize < 512 || l.PageSize&(l.PageSize-1) != 0:
		return fmt.Errorf("directgraph: page size %d must be a power of two ≥ 512", l.PageSize)
	case l.PageSize > MaxPageSize:
		return fmt.Errorf("directgraph: page size %d exceeds %d: section lengths are 16-bit", l.PageSize, MaxPageSize)
	case l.FeatureDim < 0:
		return fmt.Errorf("directgraph: negative feature dim %d", l.FeatureDim)
	case primaryHeaderLen+l.FeatureBytes() >= l.PageSize:
		return fmt.Errorf("directgraph: feature vector (%d B) cannot fit a %d B page", l.FeatureBytes(), l.PageSize)
	}
	return nil
}

// NodePlan is the per-node result of Algorithm 1's metadata pass: how a
// node's primary and secondary sections are sized and addressed.
type NodePlan struct {
	Degree        int
	InlineCount   int  // neighbors stored in the primary section
	SecCount      int  // number of secondary sections
	Primary       Addr // primary section address
	PrimaryOffset int  // byte offset of the primary section in its page
	Secondaries   []Addr
	SecOffsets    []int
	PrimarySize   int // bytes
	LastSecCount  int // entries in the final (possibly partial) secondary
	FullSecCount  int // entries in each non-final secondary (= SecondaryCapacity)
	DedicatedPage bool
}

// SecondaryIndexFor returns which secondary section (0-based) covers the
// sampled global neighbor index, given the node's plan. The caller must
// ensure idx ≥ InlineCount.
func (p *NodePlan) SecondaryIndexFor(idx int) int {
	return (idx - p.InlineCount) / p.FullSecCount
}

// secEntries returns how many neighbor entries secondary section s
// holds: the full capacity, except in the last section.
func (p *NodePlan) secEntries(s int) int {
	if s == p.SecCount-1 {
		return p.LastSecCount
	}
	return p.FullSecCount
}

// secSize returns the byte size of secondary section s.
func (p *NodePlan) secSize(s int) int { return secondaryHeaderLen + p.secEntries(s)*addrLen }

// sectionBytes returns the bytes of all of the node's sections.
func (p *NodePlan) sectionBytes() int {
	return p.PrimarySize + p.SecCount*secondaryHeaderLen + (p.Degree-p.InlineCount)*addrLen
}

func putU16(b []byte, off int, v int)    { binary.LittleEndian.PutUint16(b[off:], uint16(v)) }
func putU32(b []byte, off int, v uint32) { binary.LittleEndian.PutUint32(b[off:], v) }
func getU16(b []byte, off int) int       { return int(binary.LittleEndian.Uint16(b[off:])) }
func getU32(b []byte, off int) uint32    { return binary.LittleEndian.Uint32(b[off:]) }
