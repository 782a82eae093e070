package directgraph

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
)

// Errors returned by the decoder; the on-die sampler maps these to the
// "stop immediately and return control to SSD firmware" behaviour of
// Section VI-E.
var (
	ErrSectionNotFound = errors.New("directgraph: section not found in page")
	ErrBadSectionType  = errors.New("directgraph: unexpected section type")
	ErrCorruptSection  = errors.New("directgraph: corrupt section encoding")
)

// Section is a decoded page section. For primary sections the neighbor
// addresses cover only the inline part; secondary addresses and the
// total count allow the sampler to reach the remainder.
type Section struct {
	Type        byte
	Length      int
	NodeID      uint32
	StartOffset int // byte offset inside the page

	// Primary fields.
	NeighborCount int
	InlineCount   int
	Secondaries   []Addr
	FeatureBits   []uint16 // aliases nothing; copied out
	Inline        []Addr

	// Secondary fields.
	BaseIndex int
	Count     int
	Entries   []Addr
}

// SectionView is one validated section read in place from the page
// bytes — what the die-level sampler's section iterator hands the node
// sampler and vector retriever (Fig. 11). Header fields are decoded;
// address arrays and the feature vector stay in the page and are read
// through the accessors. A view aliases the page, so it sees the bytes
// as they are when an accessor runs.
type SectionView struct {
	page []byte

	Type        byte
	Length      int
	NodeID      uint32
	StartOffset int // byte offset inside the page

	// Primary fields.
	NeighborCount  int
	InlineCount    int
	SecondaryCount int
	FeatureDim     int

	// Secondary fields.
	BaseIndex int
	Count     int
}

// Secondary returns the i-th secondary-section address of a primary.
func (v *SectionView) Secondary(i int) Addr {
	return Addr(getU32(v.page, v.StartOffset+primaryHeaderLen+i*addrLen))
}

// Inline returns the i-th inline neighbor address of a primary.
func (v *SectionView) Inline(i int) Addr {
	return Addr(getU32(v.page, v.inlineOff()+i*addrLen))
}

// Entry returns the i-th neighbor address of a secondary.
func (v *SectionView) Entry(i int) Addr {
	return Addr(getU32(v.page, v.StartOffset+secondaryHeaderLen+i*addrLen))
}

// AppendFeatureBits appends a primary's FP16 feature vector to dst.
func (v *SectionView) AppendFeatureBits(dst []uint16) []uint16 {
	n := len(dst)
	dst = slices.Grow(dst, v.FeatureDim)[:n+v.FeatureDim]
	src := v.page[v.featureOff():][:2*v.FeatureDim]
	out := dst[n:]
	// Four elements per 8-byte load: this copy is the die data path's
	// largest per-command cost (602 dims on reddit).
	i := 0
	for ; i+4 <= len(out); i += 4 {
		x := binary.LittleEndian.Uint64(src[2*i:])
		o := out[i : i+4 : i+4]
		o[0], o[1], o[2], o[3] = uint16(x), uint16(x>>16), uint16(x>>32), uint16(x>>48)
	}
	for ; i < len(out); i++ {
		out[i] = binary.LittleEndian.Uint16(src[2*i:])
	}
	return dst
}

func (v *SectionView) featureOff() int {
	return v.StartOffset + primaryHeaderLen + v.SecondaryCount*addrLen
}

func (v *SectionView) inlineOff() int { return v.featureOff() + v.FeatureDim*2 }

// ViewSection walks the page's section chain to the idx-th section and
// validates it without copying anything out — exactly what the
// die-level sampler's section iterator does (Fig. 11). It validates
// headers as it goes (Section VI-E runtime check).
func ViewSection(l Layout, page []byte, idx int) (SectionView, error) {
	if len(page) != l.PageSize {
		return SectionView{}, fmt.Errorf("%w: page length %d != %d", ErrCorruptSection, len(page), l.PageSize)
	}
	off := 0
	for i := 0; ; i++ {
		if off+commonHeaderLen > l.PageSize {
			return SectionView{}, ErrSectionNotFound
		}
		typ := page[off]
		if typ == SectionTypeEnd {
			return SectionView{}, ErrSectionNotFound
		}
		if typ != SectionTypePrimary && typ != SectionTypeSecondary {
			return SectionView{}, fmt.Errorf("%w: type byte %#x at offset %d", ErrBadSectionType, typ, off)
		}
		length := getU16(page, off+2)
		if length < commonHeaderLen || off+length > l.PageSize {
			return SectionView{}, fmt.Errorf("%w: length %d at offset %d", ErrCorruptSection, length, off)
		}
		if i == idx {
			return viewSection(l, page, off, typ, length)
		}
		off += length
	}
}

func viewSection(l Layout, page []byte, off int, typ byte, length int) (SectionView, error) {
	v := SectionView{page: page, Type: typ, Length: length, NodeID: getU32(page, off+4), StartOffset: off}
	switch typ {
	case SectionTypePrimary:
		if length < primaryHeaderLen {
			return SectionView{}, fmt.Errorf("%w: primary too short (%d)", ErrCorruptSection, length)
		}
		v.NeighborCount = int(getU32(page, off+8))
		v.InlineCount = getU16(page, off+12)
		v.SecondaryCount = getU16(page, off+14)
		v.FeatureDim = l.FeatureDim
		need := primaryHeaderLen + v.SecondaryCount*addrLen + l.FeatureBytes() + v.InlineCount*addrLen
		if need != length {
			return SectionView{}, fmt.Errorf("%w: primary length %d, computed %d", ErrCorruptSection, length, need)
		}
	case SectionTypeSecondary:
		if length < secondaryHeaderLen {
			return SectionView{}, fmt.Errorf("%w: secondary too short (%d)", ErrCorruptSection, length)
		}
		v.BaseIndex = int(getU32(page, off+8))
		v.Count = getU16(page, off+12)
		if secondaryHeaderLen+v.Count*addrLen != length {
			return SectionView{}, fmt.Errorf("%w: secondary length %d, count %d", ErrCorruptSection, length, v.Count)
		}
	}
	return v, nil
}

// FindSection is ViewSection with the section copied out of the page,
// for callers that keep it past the page's next mutation (dgtool,
// Verify, tests).
func FindSection(l Layout, page []byte, idx int) (*Section, error) {
	v, err := ViewSection(l, page, idx)
	if err != nil {
		return nil, err
	}
	s := &Section{
		Type: v.Type, Length: v.Length, NodeID: v.NodeID, StartOffset: v.StartOffset,
		NeighborCount: v.NeighborCount, InlineCount: v.InlineCount,
		BaseIndex: v.BaseIndex, Count: v.Count,
	}
	switch v.Type {
	case SectionTypePrimary:
		s.Secondaries = make([]Addr, v.SecondaryCount)
		for i := range s.Secondaries {
			s.Secondaries[i] = v.Secondary(i)
		}
		s.FeatureBits = v.AppendFeatureBits(make([]uint16, 0, v.FeatureDim))
		s.Inline = make([]Addr, v.InlineCount)
		for i := range s.Inline {
			s.Inline[i] = v.Inline(i)
		}
	case SectionTypeSecondary:
		s.Entries = make([]Addr, v.Count)
		for i := range s.Entries {
			s.Entries[i] = v.Entry(i)
		}
	}
	return s, nil
}

// SectionsInPage counts the valid sections in a page.
func SectionsInPage(l Layout, page []byte) (int, error) {
	if len(page) != l.PageSize {
		return 0, fmt.Errorf("%w: page length %d != %d", ErrCorruptSection, len(page), l.PageSize)
	}
	n := 0
	off := 0
	for off+commonHeaderLen <= l.PageSize {
		typ := page[off]
		if typ == SectionTypeEnd {
			break
		}
		if typ != SectionTypePrimary && typ != SectionTypeSecondary {
			return n, fmt.Errorf("%w: type %#x", ErrBadSectionType, typ)
		}
		length := getU16(page, off+2)
		if length < commonHeaderLen || off+length > l.PageSize {
			return n, fmt.Errorf("%w: length %d", ErrCorruptSection, length)
		}
		n++
		off += length
	}
	return n, nil
}

// Verify performs the firmware's security validation of Section VI-E on
// a materialized build: every embedded section address (inline neighbors,
// secondary pointers) must land inside the set of pages allocated to this
// DirectGraph, and every referenced section must decode as the expected
// type. It returns the first violation found.
func Verify(b *Build) error {
	if b.Pages == nil {
		return errors.New("directgraph: Verify requires a materialized build")
	}
	allowed := b.PageNumbers()
	check := func(a Addr, wantType byte) error {
		pn := b.Layout.Page(a)
		if !allowed[pn] {
			return fmt.Errorf("directgraph: address %#x escapes allocated blocks (page %d)", uint32(a), pn)
		}
		page, ok := b.Pages[pn]
		if !ok {
			return fmt.Errorf("directgraph: address %#x points to unwritten page %d", uint32(a), pn)
		}
		sec, err := FindSection(b.Layout, page, b.Layout.Section(a))
		if err != nil {
			return fmt.Errorf("directgraph: address %#x: %w", uint32(a), err)
		}
		if sec.Type != wantType {
			return fmt.Errorf("directgraph: address %#x has type %d, want %d", uint32(a), sec.Type, wantType)
		}
		return nil
	}
	for v := range b.Plans {
		plan := &b.Plans[v]
		sec, err := b.section(plan.Primary)
		if err != nil {
			return fmt.Errorf("node %d primary: %w", v, err)
		}
		for _, a := range sec.Inline {
			if err := check(a, SectionTypePrimary); err != nil {
				return fmt.Errorf("node %d inline: %w", v, err)
			}
		}
		for _, sa := range sec.Secondaries {
			if err := check(sa, SectionTypeSecondary); err != nil {
				return fmt.Errorf("node %d secondary ptr: %w", v, err)
			}
			ss, err := b.section(sa)
			if err != nil {
				return err
			}
			for _, a := range ss.Entries {
				if err := check(a, SectionTypePrimary); err != nil {
					return fmt.Errorf("node %d secondary entry: %w", v, err)
				}
			}
		}
	}
	return nil
}

// section decodes the section at address a from the build's pages.
func (b *Build) section(a Addr) (*Section, error) {
	page, ok := b.Pages[b.Layout.Page(a)]
	if !ok {
		return nil, fmt.Errorf("directgraph: page %d not materialized", b.Layout.Page(a))
	}
	return FindSection(b.Layout, page, b.Layout.Section(a))
}

// ReadSection returns a copy of the section at address a, for dgtool
// and the tests; the simulated die samplers read sections in place
// through ViewSection instead.
func (b *Build) ReadSection(a Addr) (*Section, error) { return b.section(a) }
