package directgraph

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"beacongnn/internal/graph"
)

func layout4k(dim int) Layout { return Layout{PageSize: 4096, FeatureDim: dim} }

func TestSectionBitsMatchPaper(t *testing.T) {
	// Section IV-A: 1 TB SSD with 4 KB pages → 28 page bits + 4 section
	// bits; larger pages get more section bits.
	cases := []struct {
		pageSize int
		bits     uint
	}{{2048, 3}, {4096, 4}, {8192, 5}, {16384, 6}}
	for _, c := range cases {
		l := Layout{PageSize: c.pageSize, FeatureDim: 8}
		if got := l.SectionBits(); got != c.bits {
			t.Errorf("page %d: section bits = %d, want %d", c.pageSize, got, c.bits)
		}
	}
}

func TestAddrPacking(t *testing.T) {
	l := layout4k(8)
	a := l.MakeAddr(123456, 9)
	if l.Page(a) != 123456 || l.Section(a) != 9 {
		t.Fatalf("round trip: page=%d section=%d", l.Page(a), l.Section(a))
	}
}

func TestAddrPackingProperty(t *testing.T) {
	l := Layout{PageSize: 8192, FeatureDim: 4}
	f := func(page uint32, secRaw uint8) bool {
		page &= (1 << 27) - 1 // stay in range for 5 section bits
		sec := int(secRaw) % l.MaxSectionsPerPage()
		a := l.MakeAddr(page, sec)
		return l.Page(a) == page && l.Section(a) == sec
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLayoutValidate(t *testing.T) {
	if err := (Layout{PageSize: 4096, FeatureDim: 128}).Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Layout{
		{PageSize: 1000, FeatureDim: 4},    // not power of two
		{PageSize: 256, FeatureDim: 4},     // too small
		{PageSize: 4096, FeatureDim: -1},   // negative dim
		{PageSize: 4096, FeatureDim: 3000}, // feature larger than page
		{PageSize: 65536, FeatureDim: 4},   // section length overflows 16 bits
		{PageSize: 131072, FeatureDim: 4},
	}
	for _, l := range bad {
		if err := l.Validate(); err == nil {
			t.Errorf("layout %+v validated", l)
		}
	}
}

// TestPageSizeLimit pins the 16-bit section-length limit. At the largest
// accepted page size, hub nodes fill whole pages with one section (a
// primary or secondary exactly PageSize bytes long) and the image still
// verifies. Larger pages would wrap the length field, so the image would
// decode as "length 0" or a bad section type; BuildGraph rejects them.
func TestPageSizeLimit(t *testing.T) {
	b := graph.NewBuilder(64, 2)
	for hub := 0; hub < 3; hub++ {
		for i := 0; i < 20000+hub*3000; i++ {
			b.AddEdge(graph.NodeID(hub), graph.NodeID(3+(i+hub)%61))
		}
	}
	for v := 3; v < 64; v++ {
		b.AddEdge(graph.NodeID(v), graph.NodeID(v%3))
	}
	g := b.Build()
	build, err := BuildGraph(Layout{PageSize: MaxPageSize, FeatureDim: 2}, g, &SeqAllocator{})
	if err != nil {
		t.Fatal(err)
	}
	full := 0
	for v := 0; v < 3; v++ {
		plan := build.Plans[v]
		if plan.PrimarySize == MaxPageSize {
			full++
		}
		if plan.SecCount > 1 {
			full++ // a non-final secondary fills its page
		}
	}
	if full < 2 {
		t.Fatalf("no section fills a %d B page; raise the hub degrees", MaxPageSize)
	}
	if r := Validate(build); !r.OK() {
		t.Fatalf("validation issues: %v", r.Issues)
	}
	for _, ps := range []int{2 * MaxPageSize, 4 * MaxPageSize} {
		if _, err := BuildGraph(Layout{PageSize: ps, FeatureDim: 2}, g, &SeqAllocator{}); err == nil {
			t.Errorf("page size %d accepted", ps)
		}
	}
}

func TestPlanBudgetAllInline(t *testing.T) {
	l := layout4k(16) // feature 32 B; header 16; page 4096
	p, ok := l.planBudget(100, l.PageSize)
	if !ok {
		t.Fatal("planBudget rejected a small node")
	}
	if p.SecCount != 0 || p.InlineCount != 100 {
		t.Fatalf("plan = %+v, want all inline", p)
	}
	if p.PrimarySize != 16+32+400 {
		t.Fatalf("primary size = %d", p.PrimarySize)
	}
}

func TestPlanBudgetWithSecondaries(t *testing.T) {
	l := layout4k(16)
	deg := 5000 // 20000 B of neighbors: needs secondaries
	p, ok := l.planBudget(deg, l.PageSize)
	if !ok {
		t.Fatal("planBudget rejected")
	}
	if p.SecCount == 0 {
		t.Fatalf("plan = %+v, want secondaries", p)
	}
	total := p.InlineCount + (p.SecCount-1)*p.FullSecCount + p.LastSecCount
	if total != deg {
		t.Fatalf("neighbors accounted %d, want %d", total, deg)
	}
	if p.LastSecCount <= 0 || p.LastSecCount > p.FullSecCount {
		t.Fatalf("last section count %d out of range", p.LastSecCount)
	}
	if p.PrimarySize > l.PageSize {
		t.Fatalf("primary size %d exceeds budget", p.PrimarySize)
	}
}

func TestPlanBudgetCoverage(t *testing.T) {
	// Sweep degrees and budgets across boundaries; coverage must be
	// exact and the final secondary section non-empty.
	l := layout4k(64)
	for deg := 1; deg < 30000; deg += 7 {
		for _, budget := range []int{512, 1333, 4096} {
			p, ok := l.planBudget(deg, budget)
			if !ok {
				continue
			}
			got := p.InlineCount
			if p.SecCount > 0 {
				got += (p.SecCount-1)*p.FullSecCount + p.LastSecCount
				if p.LastSecCount <= 0 {
					t.Fatalf("deg %d budget %d: empty final section", deg, budget)
				}
			}
			if got != deg {
				t.Fatalf("deg %d budget %d: covered %d", deg, budget, got)
			}
			if p.PrimarySize > budget {
				t.Fatalf("deg %d budget %d: size %d over budget", deg, budget, p.PrimarySize)
			}
		}
	}
}

func TestPlanBudgetDegreeOverflow(t *testing.T) {
	l := layout4k(1024) // feature 2048 B: little room for secondary ptrs
	if _, ok := l.planBudget(10_000_000, l.PageSize); ok {
		t.Fatal("absurd degree accepted")
	}
	g, err := graph.Generate(graph.GenSpec{Nodes: 20, AvgDegree: 2, FeatureDim: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	_ = g
	// BuildLayout surfaces the overflow as an error.
	degs := []int{10_000_000}
	if _, err := BuildLayout(Layout{PageSize: 4096, FeatureDim: 1024}, degs, &SeqAllocator{}); err == nil ||
		!strings.Contains(err.Error(), "overflow") {
		t.Fatalf("err = %v, want overflow", err)
	}
}

func TestTrimToFillKeepsPagesDense(t *testing.T) {
	// Primary pages (other than possibly the last open one) must be
	// nearly full under the trim-to-fill policy.
	g, err := graph.Generate(graph.GenSpec{Nodes: 2000, AvgDegree: 300, MaxDegree: 1500, FeatureDim: 100, PowerLaw: 2.0, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildGraph(Layout{PageSize: 4096, FeatureDim: 100}, g, &SeqAllocator{})
	if err != nil {
		t.Fatal(err)
	}
	if r := b.Stats.InflationRatio(); r > 0.10 {
		t.Fatalf("inflation %.3f for large-section graph; trim-to-fill should keep it below 10%%", r)
	}
}

func TestSecondaryIndexFor(t *testing.T) {
	p := NodePlan{InlineCount: 10, FullSecCount: 100, SecCount: 3}
	cases := []struct{ idx, want int }{{10, 0}, {109, 0}, {110, 1}, {210, 2}}
	for _, c := range cases {
		if got := p.SecondaryIndexFor(c.idx); got != c.want {
			t.Errorf("idx %d → sec %d, want %d", c.idx, got, c.want)
		}
	}
}

func buildSmall(t *testing.T, nodes int, avgDeg float64, dim int, seed uint64) (*graph.Graph, *Build) {
	t.Helper()
	g, err := graph.Generate(graph.GenSpec{
		Nodes: nodes, AvgDegree: avgDeg, FeatureDim: dim, PowerLaw: 2.0, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildGraph(Layout{PageSize: 4096, FeatureDim: dim}, g, &SeqAllocator{})
	if err != nil {
		t.Fatal(err)
	}
	return g, b
}

func TestBuildGraphRoundTrip(t *testing.T) {
	g, b := buildSmall(t, 500, 20, 16, 11)
	feats := g.Features(0)
	drawn := make([]byte, b.Layout.FeatureBytes())
	for v := 0; v < g.NumNodes(); v++ {
		sec, err := b.ReadSection(b.NodeAddr(graph.NodeID(v)))
		if err != nil {
			t.Fatalf("node %d: %v", v, err)
		}
		if sec.Type != SectionTypePrimary || sec.NodeID != uint32(v) {
			t.Fatalf("node %d: decoded type=%d id=%d", v, sec.Type, sec.NodeID)
		}
		if sec.NeighborCount != g.Degree(graph.NodeID(v)) {
			t.Fatalf("node %d: count %d, want %d", v, sec.NeighborCount, g.Degree(graph.NodeID(v)))
		}
		// Features are the graph's draws, bit-exactly.
		feats.Draw(drawn)
		if want := AppendFP16(nil, drawn); !slices.Equal(sec.FeatureBits, want) {
			t.Fatalf("node %d: features %x, drawn %x", v, sec.FeatureBits, want)
		}
		// Every inline neighbor address resolves to the right node.
		nbrs := g.Neighbors(graph.NodeID(v))
		for i, a := range sec.Inline {
			ns, err := b.ReadSection(a)
			if err != nil {
				t.Fatalf("node %d inline %d: %v", v, i, err)
			}
			if ns.NodeID != uint32(nbrs[i]) {
				t.Fatalf("node %d inline %d: got node %d, want %d", v, i, ns.NodeID, nbrs[i])
			}
		}
	}
}

func TestBuildGraphSecondariesRoundTrip(t *testing.T) {
	// Force secondaries: high degree, big features.
	g, err := graph.Generate(graph.GenSpec{
		Nodes: 60, AvgDegree: 50, MaxDegree: 59, FeatureDim: 400, PowerLaw: 0, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 400-dim fp16 = 800 B features; degree ~50 → 200 B: fits inline in 4 KB.
	// Use a small page instead to force secondaries.
	l := Layout{PageSize: 512, FeatureDim: 0}
	g2, err := graph.Generate(graph.GenSpec{Nodes: 300, AvgDegree: 150, MaxDegree: 299, FeatureDim: 0, PowerLaw: 0, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildGraph(l, g2, &SeqAllocator{})
	if err != nil {
		t.Fatal(err)
	}
	sawSecondary := false
	for v := 0; v < g2.NumNodes(); v++ {
		sec, err := b.ReadSection(b.NodeAddr(graph.NodeID(v)))
		if err != nil {
			t.Fatalf("node %d: %v", v, err)
		}
		nbrs := g2.Neighbors(graph.NodeID(v))
		idx := sec.InlineCount
		for _, sa := range sec.Secondaries {
			sawSecondary = true
			ss, err := b.ReadSection(sa)
			if err != nil {
				t.Fatalf("node %d sec: %v", v, err)
			}
			if ss.Type != SectionTypeSecondary || ss.NodeID != uint32(v) {
				t.Fatalf("node %d: bad secondary header %+v", v, ss)
			}
			if ss.BaseIndex != idx {
				t.Fatalf("node %d: base %d, want %d", v, ss.BaseIndex, idx)
			}
			for i, a := range ss.Entries {
				ns, err := b.ReadSection(a)
				if err != nil {
					t.Fatal(err)
				}
				if ns.NodeID != uint32(nbrs[idx+i]) {
					t.Fatalf("node %d sec entry %d: node %d, want %d", v, i, ns.NodeID, nbrs[idx+i])
				}
			}
			idx += ss.Count
		}
		if idx != len(nbrs) {
			t.Fatalf("node %d: sections cover %d of %d neighbors", v, idx, len(nbrs))
		}
	}
	if !sawSecondary {
		t.Fatal("test graph produced no secondary sections; tighten parameters")
	}
	_ = g
}

// firstIssue returns the image walker's first issue, or nil when the
// image is clean.
func firstIssue(b *Build) error {
	if r := Validate(b); !r.OK() {
		return fmt.Errorf("%d issues, first %v", len(r.Issues), r.Issues[0])
	}
	return nil
}

func TestBuildVerifyCleanGraph(t *testing.T) {
	_, b := buildSmall(t, 300, 15, 8, 5)
	if err := firstIssue(b); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyCatchesTampering(t *testing.T) {
	// Section VI-E: addresses outside allocated blocks must be rejected.
	_, b := buildSmall(t, 100, 10, 8, 6)
	// Corrupt one inline neighbor address to point far outside the build.
	addr := b.NodeAddr(0)
	page := b.Pages[b.Layout.Page(addr)]
	sec, err := FindSection(b.Layout, page, b.Layout.Section(addr))
	if err != nil {
		t.Fatal(err)
	}
	if sec.InlineCount == 0 {
		t.Skip("node 0 has no inline neighbors")
	}
	// Inline addrs start after header + secondaries + feature.
	off := sec.StartOffset + primaryHeaderLen + len(sec.Secondaries)*addrLen + b.Layout.FeatureBytes()
	putU32(page, off, uint32(b.Layout.MakeAddr(0x0FFFFFF, 0)))
	if err := firstIssue(b); err == nil {
		t.Fatal("Validate accepted an escaped address")
	}
}

func TestVerifyCatchesTypeConfusion(t *testing.T) {
	_, b := buildSmall(t, 100, 10, 8, 7)
	addr := b.NodeAddr(1)
	page := b.Pages[b.Layout.Page(addr)]
	sec, _ := FindSection(b.Layout, page, b.Layout.Section(addr))
	page[sec.StartOffset] = SectionTypeSecondary // flip type byte
	if err := firstIssue(b); err == nil {
		t.Fatal("Validate accepted a type-confused section")
	}
}

// TestValidateCatchesCorruption: every kind of damage the walker guards
// against shows in its report, for the page walk and the plan walk.
func TestValidateCatchesCorruption(t *testing.T) {
	g, err := graph.Generate(graph.GenSpec{Nodes: 120, AvgDegree: 60, MaxDegree: 119, FeatureDim: 2, PowerLaw: 1.5, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	base, err := BuildGraph(Layout{PageSize: 512, FeatureDim: 2}, g, &SeqAllocator{})
	if err != nil {
		t.Fatal(err)
	}
	hub := -1
	for v := range base.Plans {
		if base.Plans[v].SecCount > 0 {
			hub = v
			break
		}
	}
	if hub < 0 {
		t.Fatal("no node with secondary sections; raise the degree")
	}
	escaped := uint32(base.Layout.MakeAddr(0x0FFFFF, 0))
	for _, tc := range []struct {
		name   string
		damage func(b *Build)
	}{
		{"dropped primary page", func(b *Build) { b.Pages[b.Layout.Page(b.NodeAddr(5))-b.First] = nil }},
		{"smashed header", func(b *Build) { b.Pages[b.Layout.Page(b.NodeAddr(5))][0] = 0xFF }},
		{"plan at another node's primary", func(b *Build) { b.Plans[5].Primary = b.Plans[6].Primary }},
		{"secondary entry escapes", func(b *Build) {
			p := &b.Plans[hub]
			putU32(b.Pages[b.Layout.Page(p.Secondaries[0])], p.SecOffsets[0]+secondaryHeaderLen, escaped)
		}},
		{"secondary pointer at a primary", func(b *Build) {
			p := &b.Plans[hub]
			putU32(b.Pages[b.Layout.Page(p.Primary)], p.PrimaryOffset+primaryHeaderLen, uint32(b.NodeAddr(0)))
		}},
	} {
		b := base.Clone()
		tc.damage(b)
		if r := Validate(b); r.OK() {
			t.Errorf("%s: image validated clean", tc.name)
		}
	}
	if r := Validate(base); !r.OK() {
		t.Fatalf("undamaged image: %v", r.Issues)
	}
}

func TestFindSectionErrors(t *testing.T) {
	l := layout4k(4)
	page := make([]byte, 4096)
	if _, err := FindSection(l, page, 0); err != ErrSectionNotFound {
		t.Fatalf("empty page: err = %v", err)
	}
	page[0] = 0x7F
	if _, err := FindSection(l, page, 0); err == nil {
		t.Fatal("bad type accepted")
	}
	page[0] = SectionTypePrimary
	putU16(page, 2, 2) // absurd length
	if _, err := FindSection(l, page, 0); err == nil {
		t.Fatal("short length accepted")
	}
	if _, err := FindSection(l, make([]byte, 100), 0); err == nil {
		t.Fatal("wrong page size accepted")
	}
}

func TestSectionsInPage(t *testing.T) {
	_, b := buildSmall(t, 200, 5, 4, 8)
	total := 0
	for _, page := range b.Pages {
		n, err := SectionsInPage(b.Layout, page)
		if err != nil {
			t.Fatal(err)
		}
		if n < 1 || n > b.Layout.MaxSectionsPerPage() {
			t.Fatalf("page holds %d sections", n)
		}
		total += n
	}
	// Every node has exactly one primary; secondaries add more.
	if total < 200 {
		t.Fatalf("found %d sections, want ≥ 200", total)
	}
}

func TestStatsConsistency(t *testing.T) {
	g, b := buildSmall(t, 400, 25, 32, 9)
	s := b.Stats
	if s.Nodes != 400 || s.Edges != g.NumEdges() {
		t.Fatalf("stats nodes/edges = %d/%d", s.Nodes, s.Edges)
	}
	if s.TotalBytes != int64(s.PrimaryPages+s.SecondaryPages)*4096 {
		t.Fatal("TotalBytes inconsistent with page counts")
	}
	if s.UsedBytes > s.TotalBytes {
		t.Fatal("used more bytes than allocated")
	}
	if s.RawBytes != s.Edges*4+int64(s.Nodes)*64 {
		t.Fatalf("raw bytes = %d", s.RawBytes)
	}
	if s.InflationRatio() < 0 {
		// DirectGraph stores addresses (4 B) where raw stores ids (4 B),
		// plus headers — inflation must be non-negative in practice.
		t.Fatalf("negative inflation %v", s.InflationRatio())
	}
	if len(b.Pages) != s.PrimaryPages+s.SecondaryPages {
		t.Fatalf("materialized %d pages, stats say %d", len(b.Pages), s.PrimaryPages+s.SecondaryPages)
	}
}

func TestLayoutOnlyMatchesMaterialized(t *testing.T) {
	g, b := buildSmall(t, 350, 18, 16, 10)
	degs := make([]int, g.NumNodes())
	for v := range degs {
		degs[v] = g.Degree(graph.NodeID(v))
	}
	lb, err := BuildLayout(Layout{PageSize: 4096, FeatureDim: 16}, degs, &SeqAllocator{})
	if err != nil {
		t.Fatal(err)
	}
	if lb.Stats != b.Stats {
		t.Fatalf("layout-only stats %+v != materialized %+v", lb.Stats, b.Stats)
	}
	for v := range degs {
		if lb.Plans[v].Primary != b.Plans[v].Primary {
			t.Fatalf("node %d address differs between modes", v)
		}
	}
	if lb.Pages != nil {
		t.Fatal("layout-only build materialized pages")
	}
}

func TestAllocatorExhaustion(t *testing.T) {
	g, err := graph.Generate(graph.GenSpec{Nodes: 1000, AvgDegree: 30, FeatureDim: 64, PowerLaw: 2.0, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, err = BuildGraph(Layout{PageSize: 4096, FeatureDim: 64}, g, &SeqAllocator{Limit: 3})
	if err == nil {
		t.Fatal("exhausted allocator did not error")
	}
}

func TestBuildGraphDimMismatch(t *testing.T) {
	g, _ := graph.Generate(graph.GenSpec{Nodes: 10, AvgDegree: 2, FeatureDim: 4, Seed: 1})
	if _, err := BuildGraph(Layout{PageSize: 4096, FeatureDim: 8}, g, &SeqAllocator{}); err == nil {
		t.Fatal("dim mismatch accepted")
	}
}

func TestBuildPropertyNeighborCoverage(t *testing.T) {
	// Property: for random small graphs, DirectGraph exactly covers every
	// node's neighbor multiset in order.
	f := func(seed uint64) bool {
		g, err := graph.Generate(graph.GenSpec{
			Nodes: 120, AvgDegree: 12, FeatureDim: 8, PowerLaw: 1.9, Seed: seed,
		})
		if err != nil {
			return false
		}
		b, err := BuildGraph(Layout{PageSize: 1024, FeatureDim: 8}, g, &SeqAllocator{})
		if err != nil {
			return false
		}
		for v := 0; v < g.NumNodes(); v++ {
			sec, err := b.ReadSection(b.NodeAddr(graph.NodeID(v)))
			if err != nil {
				return false
			}
			nbrs := g.Neighbors(graph.NodeID(v))
			got := make([]Addr, 0, len(nbrs))
			got = append(got, sec.Inline...)
			for _, sa := range sec.Secondaries {
				ss, err := b.ReadSection(sa)
				if err != nil {
					return false
				}
				got = append(got, ss.Entries...)
			}
			if len(got) != len(nbrs) {
				return false
			}
			for i, a := range got {
				if a != b.NodeAddr(nbrs[i]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestSharedBackingArraysIsolated checks that plans cut from shared
// backing arrays (by assign and by Clone) and pages cut from one slab
// stay independent: appending through one plan's slices leaves its
// neighbor intact, and relocating a clone leaves the original's plans
// and page bytes untouched.
func TestSharedBackingArraysIsolated(t *testing.T) {
	g, err := graph.Generate(graph.GenSpec{Nodes: 200, AvgDegree: 60, MaxDegree: 199, PowerLaw: 0, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildGraph(Layout{PageSize: 512, FeatureDim: 0}, g, &SeqAllocator{})
	if err != nil {
		t.Fatal(err)
	}
	appendThrough := func(b *Build) {
		t.Helper()
		prev := -1
		for i := range b.Plans {
			p := &b.Plans[i]
			if p.SecCount == 0 {
				continue
			}
			if prev >= 0 {
				want := append([]Addr(nil), p.Secondaries...)
				wantOff := append([]int(nil), p.SecOffsets...)
				_ = append(b.Plans[prev].Secondaries, InvalidAddr)
				_ = append(b.Plans[prev].SecOffsets, -1)
				for j := range want {
					if p.Secondaries[j] != want[j] || p.SecOffsets[j] != wantOff[j] {
						t.Fatalf("append through node %d's plan overwrote node %d's secondaries", prev, i)
					}
				}
				return
			}
			prev = i
		}
		t.Fatal("no two plans with secondaries; raise the degree")
	}
	appendThrough(b)

	before := make([][]byte, len(b.Pages))
	for i, page := range b.Pages {
		before[i] = append([]byte(nil), page...)
	}
	plans := append([]NodePlan(nil), b.Plans...)
	secs := make([][]Addr, len(plans))
	for i := range plans {
		secs[i] = append([]Addr(nil), plans[i].Secondaries...)
	}
	c := b.Clone()
	appendThrough(c)
	if err := Relocate(c, 1000); err != nil {
		t.Fatal(err)
	}
	if err := firstIssue(c); err != nil {
		t.Fatalf("relocated clone: %v", err)
	}
	if err := firstIssue(b); err != nil {
		t.Fatalf("original after relocating its clone: %v", err)
	}
	for i, page := range b.Pages {
		if !bytes.Equal(page, before[i]) {
			t.Fatalf("page %d of the original changed when its clone was relocated", b.First+uint32(i))
		}
	}
	for i := range b.Plans {
		if b.Plans[i].Primary != plans[i].Primary {
			t.Fatalf("node %d primary moved with the clone", i)
		}
		for j, a := range b.Plans[i].Secondaries {
			if a != secs[i][j] {
				t.Fatalf("node %d secondary %d moved with the clone", i, j)
			}
		}
	}
}
