package directgraph

import (
	"encoding/binary"
	"fmt"

	"beacongnn/internal/fanout"
	"beacongnn/internal/graph"
)

// SeqAllocator hands out physical page numbers for DirectGraph pages,
// sequentially from Next. In the full system the FTL reserves a run of
// block rows, whose pages are consecutive, and exposes them here
// (Section VI-A). Because the flash geometry stripes consecutive page
// numbers across dies, this is also what spreads DirectGraph across
// the whole backend, and it is what lets a build keep its pages in one
// table indexed by page number.
type SeqAllocator struct {
	Next  uint32
	Limit uint32 // exclusive; 0 = unlimited within uint32 range
}

// NextPage returns the next free page number.
func (a *SeqAllocator) NextPage() (uint32, error) {
	if a.Limit != 0 && a.Next >= a.Limit {
		return 0, fmt.Errorf("directgraph: page allocator exhausted at %d", a.Limit)
	}
	p := a.Next
	a.Next++
	return p, nil
}

// Stats summarizes a build for Table IV.
type Stats struct {
	Nodes          int
	Edges          int64
	PrimaryPages   int
	SecondaryPages int
	UsedBytes      int64 // bytes actually occupied by sections
	TotalBytes     int64 // pages × page size
	RawBytes       int64 // neighbor lists (4 B/edge) + features (2 B/dim)
}

// InflationRatio returns (DirectGraph size − raw size) / raw size,
// the paper's Table IV metric.
func (s Stats) InflationRatio() float64 {
	if s.RawBytes == 0 {
		return 0
	}
	return float64(s.TotalBytes-s.RawBytes) / float64(s.RawBytes)
}

// Build is a constructed DirectGraph: the per-node plans/addresses plus,
// in materialized mode, the page images the simulated flash serves.
type Build struct {
	Layout Layout
	Plans  []NodePlan // indexed by node id
	Stats  Stats
	// Pages is the image in page order: Pages[i] holds page First+i, or
	// is nil where the image lacks that page. Pages is nil in
	// layout-only mode.
	Pages [][]byte
	First uint32 // the image's first page number
}

// NodeAddr returns node v's primary section address.
func (b *Build) NodeAddr(v graph.NodeID) Addr { return b.Plans[v].Primary }

// Page returns the bytes of page pn, or false if the image does not
// materialize that page.
func (b *Build) Page(pn uint32) ([]byte, bool) {
	if i := int(pn - b.First); i < len(b.Pages) {
		return b.Pages[i], b.Pages[i] != nil
	}
	return nil, false
}

// Clone deep-copies the build: plans (including their address slices)
// and page bytes. Relocation and fault-recovery remapping mutate a build
// in place; systems that share one materialized instance clone it first
// so concurrent experiments stay independent. The copy takes one slab
// for all page bytes and one backing array each for the plans'
// Secondaries and SecOffsets.
func (b *Build) Clone() *Build {
	c := &Build{Layout: b.Layout, Stats: b.Stats, First: b.First, Plans: make([]NodePlan, len(b.Plans))}
	var nsec, noff int
	for i := range b.Plans {
		nsec += len(b.Plans[i].Secondaries)
		noff += len(b.Plans[i].SecOffsets)
	}
	secs := make([]Addr, 0, nsec)
	offs := make([]int, 0, noff)
	for i := range b.Plans {
		p := b.Plans[i]
		p.Secondaries = carve(&secs, p.Secondaries)
		p.SecOffsets = carve(&offs, p.SecOffsets)
		c.Plans[i] = p
	}
	if b.Pages != nil {
		var total int
		for _, page := range b.Pages {
			total += len(page)
		}
		slab := make([]byte, 0, total)
		c.Pages = make([][]byte, len(b.Pages))
		for i, page := range b.Pages {
			c.Pages[i] = carve(&slab, page)
		}
	}
	return c
}

// carve appends src to the shared backing array *dst and returns the
// copy, capped at its own length so that appending through it
// reallocates instead of spilling into the next copy. An empty src
// yields nil.
func carve[T any](dst *[]T, src []T) []T {
	if len(src) == 0 {
		return nil
	}
	start := len(*dst)
	*dst = append(*dst, src...)
	return (*dst)[start:len(*dst):len(*dst)]
}

// openPage tracks the shared page currently being filled.
type openPage struct {
	num      uint32
	used     int
	sections int
	valid    bool
}

func (op *openPage) gap(pageSize int) int { return pageSize - op.used }

type builder struct {
	layout Layout
	alloc  *SeqAllocator
	plans  []NodePlan
	stats  Stats

	openPrimary   openPage
	openSecondary openPage
}

func (b *builder) newPage(primary bool) (uint32, error) {
	n, err := b.alloc.NextPage()
	if err != nil {
		return 0, err
	}
	if primary {
		b.stats.PrimaryPages++
	} else {
		b.stats.SecondaryPages++
	}
	return n, nil
}

// placeShared reserves size bytes in the open shared page of the given
// kind, opening a fresh page if needed, and returns the section address
// plus byte offset.
func (b *builder) placeShared(size int, primary bool) (Addr, int, error) {
	op := &b.openPrimary
	if !primary {
		op = &b.openSecondary
	}
	if !op.valid || op.gap(b.layout.PageSize) < size || op.sections >= b.layout.MaxSectionsPerPage() {
		n, err := b.newPage(primary)
		if err != nil {
			return 0, 0, err
		}
		*op = openPage{num: n, valid: true}
	}
	addr := b.layout.MakeAddr(op.num, op.sections)
	off := op.used
	op.used += size
	op.sections++
	return addr, off, nil
}

// planBudget sizes a node's primary section under a byte budget,
// spilling neighbors that do not fit into secondary sections. It
// implements the paper's "a section grows until it fulfills its page"
// policy generalized to shared pages: the primary consumes as much of
// the budget as 4-byte alignment allows. ok is false when even an
// inline-free primary (header + secondary pointers + feature) exceeds
// the budget.
func (l Layout) planBudget(degree, budget int) (p NodePlan, ok bool) {
	p = NodePlan{Degree: degree, FullSecCount: l.SecondaryCapacity()}
	flat := primaryHeaderLen + l.FeatureBytes() + degree*addrLen
	if flat <= budget {
		p.InlineCount = degree
		p.PrimarySize = flat
		return p, true
	}
	cs := l.SecondaryCapacity()
	for s := 1; ; s++ {
		fixed := primaryHeaderLen + s*addrLen + l.FeatureBytes()
		if fixed > budget {
			return p, false
		}
		ci := (budget - fixed) / addrLen
		rem := degree - ci
		if rem > s*cs {
			continue
		}
		if rem <= 0 {
			// Minimal s guarantees a non-empty final section (the flat
			// case above catches rem ≤ 0 at s = 0).
			return p, false
		}
		p.InlineCount = ci
		p.SecCount = s
		p.PrimarySize = fixed + ci*addrLen
		p.LastSecCount = rem - (s-1)*cs
		return p, true
	}
}

// assign runs the metadata pass of Algorithm 1 over a degree sequence,
// deciding every section's size and physical placement.
func (b *builder) assign(degrees []int) error {
	l := b.layout
	b.plans = make([]NodePlan, len(degrees))
	// A node never needs more than ceil(degree/SecondaryCapacity)
	// secondaries, so this bound sizes the two backing arrays that every
	// plan's Secondaries and SecOffsets are cut from.
	cs := l.SecondaryCapacity()
	bound := 0
	for _, deg := range degrees {
		if deg > 0 {
			bound += (deg + cs - 1) / cs
		}
	}
	secs := make([]Addr, 0, bound)
	offs := make([]int, 0, bound)
	for v, deg := range degrees {
		var plan NodePlan
		flat := primaryHeaderLen + l.FeatureBytes() + deg*addrLen
		switch {
		case flat > l.PageSize:
			// Dedicated full primary page with spill to secondaries.
			var ok bool
			plan, ok = l.planBudget(deg, l.PageSize)
			if !ok {
				return fmt.Errorf("directgraph: node %d degree %d overflows a %d B page's secondary address list", v, deg, l.PageSize)
			}
			n, err := b.newPage(true)
			if err != nil {
				return err
			}
			plan.Primary = l.MakeAddr(n, 0)
			plan.PrimaryOffset = 0
			plan.DedicatedPage = true
		default:
			// Shared page: place whole if it fits the open page's gap;
			// otherwise trim the section to fill the gap exactly and
			// spill the remainder (keeps primary pages ~100 % utilized,
			// which is how Table IV's low inflation arises).
			op := &b.openPrimary
			gap := op.gap(l.PageSize)
			if !op.valid || op.sections >= l.MaxSectionsPerPage() {
				gap = 0
			}
			if flat <= gap {
				plan, _ = l.planBudget(deg, flat)
			} else if trimmed, ok := l.planBudget(deg, gap); ok && gap > 0 {
				plan = trimmed
			} else {
				// Start a fresh page; the whole section fits there.
				n, err := b.newPage(true)
				if err != nil {
					return err
				}
				*op = openPage{num: n, valid: true}
				plan, _ = l.planBudget(deg, flat)
			}
			var err error
			plan.Primary, plan.PrimaryOffset, err = b.placeSharedPrimary(plan.PrimarySize)
			if err != nil {
				return err
			}
		}
		b.stats.UsedBytes += int64(plan.PrimarySize)

		// Secondary sections: all but the last fill dedicated pages; the
		// final partial section shares secondary pages first-fit.
		if plan.SecCount > 0 {
			start := len(secs)
			for s := 0; s < plan.SecCount; s++ {
				size := plan.secSize(s)
				var addr Addr
				var off int
				if s < plan.SecCount-1 || size == l.PageSize {
					n, err := b.newPage(false)
					if err != nil {
						return err
					}
					addr = l.MakeAddr(n, 0)
				} else {
					var err error
					addr, off, err = b.placeShared(size, false)
					if err != nil {
						return err
					}
				}
				secs = append(secs, addr)
				offs = append(offs, off)
				b.stats.UsedBytes += int64(size)
			}
			// Three-index slices: an append through one plan's slice
			// reallocates rather than overwriting the next plan's entries.
			plan.Secondaries = secs[start:len(secs):len(secs)]
			plan.SecOffsets = offs[start:len(offs):len(offs)]
		}
		b.plans[v] = plan
		b.stats.Edges += int64(deg)
	}
	b.stats.Nodes = len(degrees)
	pages := b.stats.PrimaryPages + b.stats.SecondaryPages
	b.stats.TotalBytes = int64(pages) * int64(b.layout.PageSize)
	b.stats.RawBytes = b.stats.Edges*4 + int64(b.stats.Nodes)*int64(b.layout.FeatureBytes())
	return nil
}

// placeSharedPrimary places an already-sized primary section in the open
// primary page (assign has ensured it fits).
func (b *builder) placeSharedPrimary(size int) (Addr, int, error) {
	return b.placeShared(size, true)
}

// BuildLayout runs only Algorithm 1's metadata pass over a degree
// sequence — enough to compute addresses and Table IV inflation at full
// dataset scale without materializing page bytes.
func BuildLayout(l Layout, degrees []int, alloc *SeqAllocator) (*Build, error) {
	if err := l.Validate(); err != nil {
		return nil, err
	}
	first := alloc.Next
	b := &builder{layout: l, alloc: alloc}
	if err := b.assign(degrees); err != nil {
		return nil, err
	}
	return &Build{Layout: l, Plans: b.plans, Stats: b.stats, First: first}, nil
}

// BuildGraph runs the full Algorithm 1: metadata pass, then section
// serialization into page images (the host-buffer construction of
// Section VI-B). The returned Build's Pages hold what the flushed flash
// blocks would contain.
func BuildGraph(l Layout, g *graph.Graph, alloc *SeqAllocator) (*Build, error) {
	return buildGraph(l, g, alloc, 0)
}

// buildGraph is BuildGraph with serialize's chunk count forced; 0 picks
// it from the work.
func buildGraph(l Layout, g *graph.Graph, alloc *SeqAllocator, chunks int) (*Build, error) {
	if l.FeatureDim != g.FeatureDim() {
		return nil, fmt.Errorf("directgraph: layout dim %d != graph dim %d", l.FeatureDim, g.FeatureDim())
	}
	degrees := make([]int, g.NumNodes())
	for v := range degrees {
		degrees[v] = g.Degree(graph.NodeID(v))
	}
	build, err := BuildLayout(l, degrees, alloc)
	if err != nil {
		return nil, err
	}
	if err := serialize(build, g, chunks); err != nil {
		return nil, err
	}
	return build, nil
}

// minChunk is the fewest section bytes worth a chunk of their own:
// about a quarter of a millisecond of writes, against the microseconds
// it takes to start a helper.
const minChunk = 1 << 18

// serialize writes every node's sections straight into their pages, in
// two passes. The metadata pass has fixed the page count, so all page
// images are cut from one zeroed slab, in page order. The first pass,
// serial, walks the sections in node order and checks that every
// section fits its page, so any error is that of a plain serial build.
// The second pass writes chunks of nodes (splitNodes; 0 chunks =
// fanout.Count of the section bytes) concurrently. Sections of
// different nodes never share a byte, so chunks that meet inside a
// shared page write disjoint parts of it.
// The graph holds no features: each chunk opens one feature cursor at
// its first node and draws every node's features straight into its
// primary section, so the pages are the features' only copy.
func serialize(build *Build, g *graph.Graph, chunks int) error {
	l := build.Layout
	ps := l.PageSize
	slab := make([]byte, (build.Stats.PrimaryPages+build.Stats.SecondaryPages)*ps)
	build.Pages = make([][]byte, len(slab)/ps)
	for i := range build.Pages {
		build.Pages[i] = slab[i*ps : (i+1)*ps : (i+1)*ps]
	}
	fits := func(a Addr, off, size int) error {
		if off+size > ps {
			return fmt.Errorf("directgraph: page %d overflow at offset %d", l.Page(a), off)
		}
		return nil
	}
	for v := range build.Plans {
		plan := &build.Plans[v]
		if err := fits(plan.Primary, plan.PrimaryOffset, plan.PrimarySize); err != nil {
			return err
		}
		for s, sa := range plan.Secondaries {
			if err := fits(sa, plan.SecOffsets[s], plan.secSize(s)); err != nil {
				return err
			}
		}
	}

	// Neighbor entries are primary-section addresses; one flat table
	// keeps the per-edge lookups off the much larger plan records.
	addrs := make([]uint32, len(build.Plans))
	for v := range build.Plans {
		addrs[v] = uint32(build.Plans[v].Primary)
	}
	if chunks == 0 {
		chunks = fanout.Count(int(build.Stats.UsedBytes), minChunk)
	}
	bounds := splitNodes(build.Plans, chunks)
	fanout.Run(chunks, func(c int) {
		feats := g.Features(graph.NodeID(bounds[c]))
		for v := bounds[c]; v < bounds[c+1]; v++ {
			writeNode(build, g, &feats, addrs, v)
		}
	})
	return nil
}

// splitNodes cuts the nodes into chunks ranges of about equal section
// bytes: chunk c is nodes [bounds[c], bounds[c+1]).
func splitNodes(plans []NodePlan, chunks int) []int {
	var total int64
	for v := range plans {
		total += int64(plans[v].sectionBytes())
	}
	bounds := make([]int, chunks+1)
	c := 1
	var before int64 // section bytes of the nodes before v
	for v := range plans {
		for c < chunks && before >= total*int64(c)/int64(chunks) {
			bounds[c] = v
			c++
		}
		before += int64(plans[v].sectionBytes())
	}
	for ; c <= chunks; c++ {
		bounds[c] = len(plans)
	}
	return bounds
}

// writeNode writes node v's primary and secondary sections into their
// pages, which serialize's first pass has cut and bounds-checked. feats
// must stand at node v's first feature.
func writeNode(build *Build, g *graph.Graph, feats *graph.FeatureCursor, addrs []uint32, v int) {
	l := build.Layout
	plan := &build.Plans[v]
	nbrs := g.Neighbors(graph.NodeID(v))
	buf := build.Pages[l.Page(plan.Primary)-build.First][plan.PrimaryOffset:][:plan.PrimarySize]
	buf[0] = SectionTypePrimary
	putU16(buf, 2, plan.PrimarySize)
	putU32(buf, 4, uint32(v))
	putU32(buf, 8, uint32(plan.Degree))
	putU16(buf, 12, plan.InlineCount)
	putU16(buf, 14, plan.SecCount)
	off := primaryHeaderLen
	for _, sa := range plan.Secondaries {
		putU32(buf, off, uint32(sa))
		off += addrLen
	}
	feats.Draw(buf[off : off+l.FeatureBytes()])
	off += l.FeatureBytes()
	putAddrs(buf[off:], addrs, nbrs[:plan.InlineCount])

	base := plan.InlineCount
	for s, sa := range plan.Secondaries {
		count := plan.secEntries(s)
		size := plan.secSize(s)
		sec := build.Pages[l.Page(sa)-build.First][plan.SecOffsets[s]:][:size]
		sec[0] = SectionTypeSecondary
		putU16(sec, 2, size)
		putU32(sec, 4, uint32(v))
		putU32(sec, 8, uint32(base))
		putU16(sec, 12, count)
		putAddrs(sec[secondaryHeaderLen:], addrs, nbrs[base:base+count])
		base += count
	}
}

// putAddrs writes the primary-section address of each neighbor into b.
func putAddrs(b []byte, addrs []uint32, nbrs []graph.NodeID) {
	b = b[:len(nbrs)*addrLen]
	for i, u := range nbrs {
		binary.LittleEndian.PutUint32(b[i*addrLen:], addrs[u])
	}
}
