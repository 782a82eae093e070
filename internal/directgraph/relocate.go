package directgraph

import "fmt"

// Relocate shifts every physical page number in the build by delta —
// the address-patching half of Section VI-F's wear-levelling
// reclamation, where DirectGraph migrates to clean blocks "while
// updating the embedded physical addresses to these new locations".
// Plans and all addresses embedded in page bytes are rewritten in
// place, and the image's first page moves by delta; no page changes
// its place in the table.
func Relocate(b *Build, delta uint32) error {
	l := b.Layout
	// An address is page<<SectionBits | section, so moving its page by
	// delta is one add, mod 2^32 like the page arithmetic it replaces.
	d := Addr(delta << l.SectionBits())
	shift := func(a Addr) Addr { return a + d }
	for i := range b.Plans {
		p := &b.Plans[i]
		p.Primary = shift(p.Primary)
		for j := range p.Secondaries {
			p.Secondaries[j] = shift(p.Secondaries[j])
		}
	}
	for i, page := range b.Pages {
		if page == nil {
			continue
		}
		pn := b.First + uint32(i)
		if len(page) != l.PageSize {
			return fmt.Errorf("%w: page %d length %d != %d during relocation",
				ErrCorruptSection, pn, len(page), l.PageSize)
		}
		// Patch embedded addresses section by section.
		off := 0
		for off+commonHeaderLen <= l.PageSize {
			typ := page[off]
			if typ == SectionTypeEnd {
				break
			}
			length := getU16(page, off+2)
			if length < commonHeaderLen || off+length > l.PageSize {
				return fmt.Errorf("%w: length %d during relocation (page %d offset %d)",
					ErrCorruptSection, length, pn, off)
			}
			switch typ {
			case SectionTypePrimary:
				inline := getU16(page, off+12)
				secCount := getU16(page, off+14)
				// Check the declared counts against the section length
				// before patching: a corrupt header must produce an
				// error, never an out-of-bounds write.
				if length < primaryHeaderLen ||
					primaryHeaderLen+secCount*addrLen+l.FeatureBytes()+inline*addrLen != length {
					return fmt.Errorf("%w: primary counts %d/%d overflow length %d during relocation (page %d offset %d)",
						ErrCorruptSection, secCount, inline, length, pn, off)
				}
				p := off + primaryHeaderLen
				for i := 0; i < secCount; i++ {
					putU32(page, p, uint32(shift(Addr(getU32(page, p)))))
					p += addrLen
				}
				p += l.FeatureBytes()
				for i := 0; i < inline; i++ {
					putU32(page, p, uint32(shift(Addr(getU32(page, p)))))
					p += addrLen
				}
			case SectionTypeSecondary:
				count := getU16(page, off+12)
				if length < secondaryHeaderLen || secondaryHeaderLen+count*addrLen != length {
					return fmt.Errorf("%w: secondary count %d overflows length %d during relocation (page %d offset %d)",
						ErrCorruptSection, count, length, pn, off)
				}
				p := off + secondaryHeaderLen
				for i := 0; i < count; i++ {
					putU32(page, p, uint32(shift(Addr(getU32(page, p)))))
					p += addrLen
				}
			default:
				return fmt.Errorf("%w: type %#x during relocation", ErrBadSectionType, typ)
			}
			off += length
		}
	}
	b.First += delta
	return nil
}
