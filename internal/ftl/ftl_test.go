package ftl

import (
	"testing"

	"beacongnn/internal/config"
	"beacongnn/internal/dataset"
	"beacongnn/internal/directgraph"
	"beacongnn/internal/graph"
)

func newFTL() *FTL { return New(config.Default().Flash) }

func TestReserveForPagesRowGranularity(t *testing.T) {
	f := newFTL()
	first, count, err := f.ReserveForPages(1)
	if err != nil {
		t.Fatal(err)
	}
	if first != 0 {
		t.Fatalf("first = %d", first)
	}
	if count != f.rowPages() { // rounded up to one full row
		t.Fatalf("count = %d, want %d", count, f.rowPages())
	}
	// One page past a full row needs a second row.
	g := newFTL()
	if _, count, err := g.ReserveForPages(int(g.rowPages()) + 1); err != nil || count != 2*g.rowPages() {
		t.Fatalf("count = %d (err %v), want two rows (%d)", count, err, 2*g.rowPages())
	}
}

func TestDoubleReserveRejected(t *testing.T) {
	f := newFTL()
	if _, _, err := f.ReserveForPages(5); err != nil {
		t.Fatal(err)
	}
	if _, _, err := f.ReserveForPages(5); err == nil {
		t.Fatal("double reservation accepted")
	}
}

func TestReserveTooLarge(t *testing.T) {
	f := newFTL()
	cfg := config.Default().Flash
	if _, _, err := f.ReserveForPages(int(cfg.TotalBytes()/int64(cfg.PageSize)) + 1); err == nil {
		t.Fatal("oversized reservation accepted")
	}
}

// The platform reserves exactly the pages DirectGraph was built into
// (dense from page 0); the reservation must cover every one of them —
// the Section VI-E flush check.
func TestReservationCoversDirectGraphBuild(t *testing.T) {
	g, err := graph.Generate(graph.GenSpec{Nodes: 2000, AvgDegree: 20, FeatureDim: 16, PowerLaw: 2.0, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := directgraph.BuildGraph(directgraph.Layout{PageSize: 4096, FeatureDim: 16}, g, &directgraph.SeqAllocator{})
	if err != nil {
		t.Fatal(err)
	}
	f := newFTL()
	first, count, err := f.ReserveForPages(len(b.Pages))
	if err != nil {
		t.Fatal(err)
	}
	if end := b.First + uint32(len(b.Pages)); b.First < first || end > first+count {
		t.Fatalf("DirectGraph pages [%d, %d) outside reserved range [%d, %d)", b.First, end, first, first+count)
	}
}

func TestPlanReclamationMovesReservation(t *testing.T) {
	f := newFTL()
	if _, _, err := f.ReserveForPages(10); err != nil {
		t.Fatal(err)
	}
	plan, err := f.PlanReclamation()
	if err != nil {
		t.Fatal(err)
	}
	if plan.OldFirstPage != 0 || plan.NewFirstPage != f.rowPages() || plan.Rows != 1 {
		t.Fatalf("plan = %+v, want one row moved from page 0 to %d", *plan, f.rowPages())
	}
	if plan.PageDelta != f.rowPages() {
		t.Fatalf("delta = %d, want one row (%d)", plan.PageDelta, f.rowPages())
	}
	// The reservation moved: the next reclamation starts from the new rows.
	next, err := f.PlanReclamation()
	if err != nil {
		t.Fatal(err)
	}
	if next.OldFirstPage != plan.NewFirstPage {
		t.Fatalf("second plan starts at %d, want %d", next.OldFirstPage, plan.NewFirstPage)
	}
}

func TestReclamationWithoutReservation(t *testing.T) {
	if _, err := newFTL().PlanReclamation(); err == nil {
		t.Fatal("reclamation with no DirectGraph accepted")
	}
}

func TestRelocatePatchesEmbeddedAddresses(t *testing.T) {
	// End-to-end: build, reclaim, relocate, verify decode at new pages.
	f := newFTL()
	if _, _, err := f.ReserveForPages(20_000); err != nil {
		t.Fatal(err)
	}
	inst, err := dataset.Materialize(dataset.Desc{
		Name: "t", AvgDegree: 15, MaxDegree: 200, FeatureDim: 8, PowerLaw: 2.0,
	}, 1000, 4096, 9)
	if err != nil {
		t.Fatal(err)
	}
	b := inst.Build
	plan, err := f.PlanReclamation()
	if err != nil {
		t.Fatal(err)
	}
	if err := directgraph.Relocate(b, plan.PageDelta); err != nil {
		t.Fatal(err)
	}
	// All sections must decode at their new addresses with intact links.
	if rep := directgraph.Validate(b); !rep.OK() {
		t.Fatal(rep.Issues)
	}
	for v := 0; v < 50; v++ {
		sec, err := b.ReadSection(b.NodeAddr(graph.NodeID(v)))
		if err != nil {
			t.Fatalf("node %d after relocate: %v", v, err)
		}
		if sec.NodeID != uint32(v) {
			t.Fatalf("node %d decoded as %d", v, sec.NodeID)
		}
	}
}
