package ftl

import "fmt"

// Block retirement, spare-region remapping, and relocation bookkeeping:
// the FTL half of the reliability model's graceful degradation (the
// platform layer drives the policy; internal/fault draws the errors).
// An uncorrectable page retires its block, the page remaps into a spare
// row at the top of the device, and — once enough of the DirectGraph
// region has been lost — a reclamation relocates the whole image onto
// fresh rows. The FTL alone maps page numbers: ImagePage follows a
// possibly-stale page number (held by an in-flight command) through the
// relocations to its page in the image, and PhysicalPage follows an
// image page through the spare remap to the page the flash senses. A
// remap moves no bytes: the image keeps them under the image page.

// relocation records one DirectGraph move: pages in [first, first+count)
// at the time of the move now live delta pages higher.
type relocation struct {
	first, count, delta uint32
}

// ReserveSpares pins rows at the top of the device as remap targets for
// retired pages. Calling it again replaces the reservation (the platform
// calls it once at setup).
func (f *FTL) ReserveSpares(rows int) error {
	if rows < 0 || rows >= f.cfg.BlocksPerDie {
		return fmt.Errorf("ftl: spare rows %d outside [0, %d)", rows, f.cfg.BlocksPerDie)
	}
	f.spareRows = rows
	f.spareStart = f.cfg.BlocksPerDie - rows
	f.spareNext = uint32(f.spareStart) * f.rowPages()
	return nil
}

// RetireBlock marks a block bad: it is skipped by reclamation planning
// and never used as a remap target.
func (f *FTL) RetireBlock(id BlockID) { f.retired[id] = true }

// IsRetiredBlock reports whether the block has been retired.
func (f *FTL) IsRetiredBlock(id BlockID) bool { return f.retired[id] }

// RemapPage assigns the next usable spare page to a retired page and
// records the mapping. dieOK (optional) filters candidate dies, so pages
// lost to a dead die are not remapped onto the same dead die. The spare
// cursor only moves forward: spare pages are never reused.
func (f *FTL) RemapPage(old uint32, dieOK func(die int) bool) (uint32, error) {
	if f.spareRows == 0 {
		return 0, fmt.Errorf("ftl: no spare rows reserved")
	}
	if f.remap == nil {
		f.remap = make(map[uint32]uint32)
	}
	limit := uint32(f.cfg.BlocksPerDie) * f.rowPages() // one past the device's last page
	for f.spareNext < limit {
		p := f.spareNext
		f.spareNext++
		id := f.blockOfPage(p)
		if f.retired[id] {
			continue
		}
		if dieOK != nil && !dieOK(id.Die) {
			continue
		}
		f.remap[old] = p
		return p, nil
	}
	return 0, fmt.Errorf("ftl: spare region exhausted remapping page %d", old)
}

// RecordRelocation notes that pages in [first, first+count) moved up by
// delta, so stale page numbers held by in-flight commands keep resolving.
func (f *FTL) RecordRelocation(first, count, delta uint32) {
	f.relocs = append(f.relocs, relocation{first: first, count: count, delta: delta})
}

// ImagePage replays the relocations in order: it names the page of the
// current DirectGraph image that a possibly-stale page number, held by
// an in-flight command, refers to. Those are the bytes the die reads.
func (f *FTL) ImagePage(page uint32) uint32 {
	for _, r := range f.relocs {
		if page >= r.first && page < r.first+r.count {
			page += r.delta
		}
	}
	return page
}

// PhysicalPage applies the spare remap to an image page: it names the
// physical page that is sensed and transferred in its place.
func (f *FTL) PhysicalPage(page uint32) uint32 {
	if p, ok := f.remap[page]; ok {
		return p
	}
	return page
}

// ClearRemapsIn drops remap entries whose retired page lies in
// [first, first+count) — used when a relocation supersedes them (the
// relocated copy is whole, so the spare copies are obsolete).
func (f *FTL) ClearRemapsIn(first, count uint32) {
	for old := range f.remap {
		if old >= first && old < first+count {
			delete(f.remap, old)
		}
	}
}
