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

// FeatureBytes returns a primary's feature vector in place:
// FeatureDim little-endian FP16 values, two bytes each. The slice
// aliases the page and is capped at its end, so an append copies.
func (v *SectionView) FeatureBytes() []byte {
	off := v.featureOff()
	end := off + 2*v.FeatureDim
	return v.page[off:end:end]
}

// AppendFeatureBits appends a primary's FP16 feature vector to dst.
func (v *SectionView) AppendFeatureBits(dst []uint16) []uint16 {
	return AppendFP16(dst, v.FeatureBytes())
}

// AppendFP16 decodes little-endian FP16 bytes (two per element; an odd
// trailing byte is ignored) and appends the bit patterns to dst.
func AppendFP16(dst []uint16, src []byte) []uint16 {
	n, dim := len(dst), len(src)/2
	dst = slices.Grow(dst, dim)[:n+dim]
	out := dst[n:]
	// Four elements per 8-byte load (602 dims on reddit).
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
		typ, length, err := sectionHeader(l, page, off)
		if err != nil {
			return SectionView{}, err
		}
		if i == idx {
			return viewSection(l, page, off, typ, length)
		}
		off += length
	}
}

// sectionHeader reads and checks the header of the chain's section at
// off. It returns ErrSectionNotFound where the chain ends, and an error
// for a header the chain cannot be walked past.
func sectionHeader(l Layout, page []byte, off int) (typ byte, length int, err error) {
	if off+commonHeaderLen > l.PageSize {
		return 0, 0, ErrSectionNotFound
	}
	typ = page[off]
	if typ == SectionTypeEnd {
		return 0, 0, ErrSectionNotFound
	}
	if typ != SectionTypePrimary && typ != SectionTypeSecondary {
		return 0, 0, fmt.Errorf("%w: type byte %#x at offset %d", ErrBadSectionType, typ, off)
	}
	length = getU16(page, off+2)
	if length < commonHeaderLen || off+length > l.PageSize {
		return 0, 0, fmt.Errorf("%w: length %d at offset %d", ErrCorruptSection, length, off)
	}
	return typ, length, nil
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
// tests).
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

// Primary returns node v's primary section, read in place from the
// image — where the vector retriever finds the node's features. It
// fails unless v is a node of the build and its plan's address decodes
// as a primary section of v.
func (b *Build) Primary(v int) (SectionView, error) {
	if v < 0 || v >= len(b.Plans) {
		return SectionView{}, fmt.Errorf("directgraph: node %d outside the build's %d nodes", v, len(b.Plans))
	}
	a := b.Plans[v].Primary
	page, ok := b.Page(b.Layout.Page(a))
	if !ok {
		return SectionView{}, fmt.Errorf("directgraph: node %d primary %#x: page %d not materialized", v, uint32(a), b.Layout.Page(a))
	}
	s, err := ViewSection(b.Layout, page, b.Layout.Section(a))
	switch {
	case err != nil:
		return SectionView{}, fmt.Errorf("directgraph: node %d primary %#x: %w", v, uint32(a), err)
	case s.Type != SectionTypePrimary || s.NodeID != uint32(v):
		return SectionView{}, fmt.Errorf("directgraph: node %d primary %#x holds a type %d section of node %d", v, uint32(a), s.Type, s.NodeID)
	}
	return s, nil
}

// ReadSection returns a copy of the section at address a, for dgtool
// and the tests; the simulated die samplers read sections in place
// through ViewSection instead.
func (b *Build) ReadSection(a Addr) (*Section, error) {
	page, ok := b.Page(b.Layout.Page(a))
	if !ok {
		return nil, fmt.Errorf("directgraph: page %d not materialized", b.Layout.Page(a))
	}
	return FindSection(b.Layout, page, b.Layout.Section(a))
}
