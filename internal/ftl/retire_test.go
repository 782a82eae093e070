package ftl

import "testing"

func TestRetireBlockMarksAndCounts(t *testing.T) {
	f := newFTL()
	id := BlockID{Die: 3, Block: 10}
	if f.IsRetiredBlock(id) {
		t.Fatal("fresh block reported retired")
	}
	f.RetireBlock(id)
	if !f.IsRetiredBlock(id) {
		t.Fatal("retired block not reported")
	}
	for _, other := range []BlockID{{Die: 3, Block: 11}, {Die: 4, Block: 10}} {
		if f.IsRetiredBlock(other) {
			t.Fatalf("retiring %v also retired %v", id, other)
		}
	}
}

func TestPlanReclamationSkipsRetiredRows(t *testing.T) {
	f := newFTL()
	if _, _, err := f.ReserveForPages(10); err != nil {
		t.Fatal(err)
	}
	// Retire one block in each of the next two rows: the scan must skip
	// past both before pinning fresh rows.
	f.RetireBlock(BlockID{Die: 0, Block: f.reservedStart + f.reservedRows})
	f.RetireBlock(BlockID{Die: 5, Block: f.reservedStart + f.reservedRows + 1})
	wantStart := f.reservedStart + f.reservedRows + 2
	plan, err := f.PlanReclamation()
	if err != nil {
		t.Fatal(err)
	}
	if got := plan.NewFirstPage / f.rowPages(); int(got) != wantStart {
		t.Fatalf("reclamation landed on row %d, want %d (past retired rows)", got, wantStart)
	}
}

func TestPlanReclamationStopsShortOfSpares(t *testing.T) {
	f := newFTL()
	if _, _, err := f.ReserveForPages(10); err != nil {
		t.Fatal(err)
	}
	if err := f.ReserveSpares(2); err != nil {
		t.Fatal(err)
	}
	// Retire a block in every remaining row below the spare region: no
	// clean destination is left, and the planner must say so rather than
	// move the image into the spares.
	for r := f.reservedStart + f.reservedRows; r < f.cfg.BlocksPerDie-f.spareRows; r++ {
		f.RetireBlock(BlockID{Die: 0, Block: r})
	}
	if _, err := f.PlanReclamation(); err == nil {
		t.Fatal("reclamation planned into retired/spare rows")
	}
}

func TestRemapPageSkipsRetiredAndFilteredDies(t *testing.T) {
	f := newFTL()
	if err := f.ReserveSpares(2); err != nil {
		t.Fatal(err)
	}
	// The first spare block (die 0) is retired and die 1 is dead: the
	// cursor must land on die 2's spare block.
	spareFirst := uint32(f.spareStart) * f.rowPages()
	first := f.blockOfPage(spareFirst)
	f.RetireBlock(first)
	sp, err := f.RemapPage(1234, func(die int) bool { return die != 1 })
	if err != nil {
		t.Fatal(err)
	}
	id := f.blockOfPage(sp)
	if id.Die == 1 || f.IsRetiredBlock(id) {
		t.Fatalf("remap landed on die %d (retired=%v)", id.Die, f.IsRetiredBlock(id))
	}
	if sp < spareFirst {
		t.Fatalf("remap target %d below spare region %d", sp, spareFirst)
	}
	if got := f.PhysicalPage(1234); got != sp {
		t.Fatalf("PhysicalPage(1234) = %d, want %d", got, sp)
	}
	// The cursor never reuses pages: a second remap gets a later page.
	sp2, err := f.RemapPage(99, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sp2 <= sp {
		t.Fatalf("spare cursor went backwards: %d after %d", sp2, sp)
	}
}

func TestRemapPageRequiresSpares(t *testing.T) {
	f := newFTL()
	if _, err := f.RemapPage(7, nil); err == nil {
		t.Fatal("remap without spare rows accepted")
	}
}

func TestResolveReplaysRelocationsThenRemap(t *testing.T) {
	f := newFTL()
	if err := f.ReserveSpares(1); err != nil {
		t.Fatal(err)
	}
	rp := f.rowPages()
	// Two stacked relocations: [0, rp) moved up one row, then the moved
	// range moved up another.
	f.RecordRelocation(0, rp, rp)
	f.RecordRelocation(rp, rp, rp)
	if got := f.ImagePage(5); got != 5+2*rp {
		t.Fatalf("ImagePage(5) = %d, want %d", got, 5+2*rp)
	}
	// A remap of the image page applies after the replay, and leaves
	// the image page where it was.
	sp, err := f.RemapPage(5+2*rp, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := f.ImagePage(5); got != 5+2*rp {
		t.Fatalf("ImagePage(5) = %d after a remap, want %d", got, 5+2*rp)
	}
	if got := f.PhysicalPage(f.ImagePage(5)); got != sp {
		t.Fatalf("PhysicalPage(ImagePage(5)) = %d, want spare %d", got, sp)
	}
	// Pages outside the moved ranges resolve unchanged.
	out := 3 * rp
	if got := f.PhysicalPage(f.ImagePage(out)); got != out {
		t.Fatalf("page %d resolves to %d, want identity", out, got)
	}
}

func TestClearRemapsIn(t *testing.T) {
	f := newFTL()
	if err := f.ReserveSpares(1); err != nil {
		t.Fatal(err)
	}
	if _, err := f.RemapPage(10, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := f.RemapPage(5000, nil); err != nil {
		t.Fatal(err)
	}
	f.ClearRemapsIn(0, 100)
	if f.PhysicalPage(10) != 10 {
		t.Fatal("cleared remap still resolves")
	}
	if f.PhysicalPage(5000) == 5000 {
		t.Fatal("out-of-range remap was cleared")
	}
}
