// Package ftl models the firmware-side DirectGraph block management of
// Sections VI-A and VI-F that the reliability model drives: reservation
// of physical blocks for host direct manipulation (bypassing the FTL),
// retirement of failed blocks with remapping into a spare region, and
// the reclamation that migrates DirectGraph onto fresh rows.
//
// Reservation granularity is one block row: the same block index across
// every die. A row's pages are exactly a contiguous range of global page
// numbers under the stripe mapping, so DirectGraph built over reserved
// rows automatically spreads across all channels and dies, and
// reclamation moves it by a uniform page delta.
package ftl

import (
	"fmt"

	"beacongnn/internal/config"
	"beacongnn/internal/flash"
)

// BlockID identifies a physical block globally: die index and the block
// index within that die.
type BlockID struct {
	Die   int
	Block int
}

// FTL is the translation-layer state. It is a functional model (no
// simulated time of its own); the timing cost of FTL work is charged to
// firmware cores by the firmware package.
type FTL struct {
	cfg  config.Flash
	geom flash.Geometry

	retired map[BlockID]bool // worn out or failed; never reserved or remapped onto

	reservedStart int // first reserved row
	reservedRows  int // number of reserved rows (0 = none)

	spareStart int // first spare row (top of device), 0 rows = none
	spareRows  int
	spareNext  uint32 // remap cursor: next candidate spare page

	remap  map[uint32]uint32 // retired page → spare page (retire.go)
	relocs []relocation      // DirectGraph moves, in order (retire.go)
}

// New returns an FTL over the given flash geometry.
func New(cfg config.Flash) *FTL {
	return &FTL{
		cfg:     cfg,
		geom:    flash.NewGeometry(cfg),
		retired: make(map[BlockID]bool),
	}
}

// rowPages is the number of global pages covered by one block row.
func (f *FTL) rowPages() uint32 {
	return uint32(f.cfg.TotalDies()) * uint32(f.cfg.PagesPerBlock)
}

// blockOfPage returns the physical block holding page p.
func (f *FTL) blockOfPage(p uint32) BlockID {
	return BlockID{Die: f.geom.GlobalDie(p), Block: f.geom.BlockOf(p)}
}

// ReserveForPages pins enough block rows to hold pageCount DirectGraph
// pages (Section VI-A) and returns the contiguous global page range
// [first, first+count) the host may flush into. Reserving twice without
// reclamation is an error: one DirectGraph per device.
func (f *FTL) ReserveForPages(pageCount int) (first uint32, count uint32, err error) {
	if f.reservedRows > 0 {
		return 0, 0, fmt.Errorf("ftl: DirectGraph blocks already reserved")
	}
	if pageCount <= 0 {
		return 0, 0, fmt.Errorf("ftl: page count must be positive, got %d", pageCount)
	}
	rp := int(f.rowPages())
	rows := (pageCount + rp - 1) / rp
	if rows > f.cfg.BlocksPerDie {
		return 0, 0, fmt.Errorf("ftl: need %d rows, device has %d", rows, f.cfg.BlocksPerDie)
	}
	f.reservedStart, f.reservedRows = 0, rows
	return 0, uint32(rows) * f.rowPages(), nil
}

// ReclaimPlan describes a DirectGraph migration (Section VI-F): the old
// pinned rows are released, fresh rows are pinned, and every embedded
// page number shifts by PageDelta.
type ReclaimPlan struct {
	OldFirstPage uint32
	NewFirstPage uint32
	PageDelta    uint32 // new = old + PageDelta
	Rows         int
}

// PlanReclamation moves the reservation to the next free rows and
// returns the migration plan. The caller (firmware) is responsible for
// copying pages and patching embedded addresses; directgraph.Relocate
// does the patching.
func (f *FTL) PlanReclamation() (*ReclaimPlan, error) {
	if f.reservedRows == 0 {
		return nil, fmt.Errorf("ftl: nothing to reclaim")
	}
	rows := f.reservedRows
	// Scan forward for the first run of rows free of retired blocks,
	// stopping short of the spare region.
	limit := f.cfg.BlocksPerDie - f.spareRows
	newStart := f.reservedStart + rows
scan:
	for {
		if newStart+rows > limit {
			return nil, fmt.Errorf("ftl: out of block rows for reclamation")
		}
		for r := newStart; r < newStart+rows; r++ {
			for d := 0; d < f.cfg.TotalDies(); d++ {
				if f.retired[BlockID{Die: d, Block: r}] {
					newStart = r + 1
					continue scan
				}
			}
		}
		break
	}
	plan := &ReclaimPlan{
		OldFirstPage: uint32(f.reservedStart) * f.rowPages(),
		NewFirstPage: uint32(newStart) * f.rowPages(),
		Rows:         rows,
	}
	plan.PageDelta = plan.NewFirstPage - plan.OldFirstPage
	f.reservedStart = newStart
	return plan, nil
}
