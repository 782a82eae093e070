// Command dgtool builds and inspects DirectGraph layouts: it converts a
// synthetic graph (or a named benchmark dataset) into the DirectGraph
// format, verifies the Section VI-E security invariants, and prints
// layout statistics including the Table IV inflation ratio.
//
// Usage:
//
//	dgtool -dataset OGBN
//	dgtool -nodes 50000 -degree 80 -dim 128 -pagesize 8192
//	dgtool -dataset amazon -node 42        # decode one node's sections
//
// The validate subcommand walks a materialized image, decodes every
// section, chases every embedded address and lists every issue:
//
//	dgtool validate -dataset amazon
//	dgtool validate -nodes 5000 -corrupt 3 -drop 2   # exercise the error paths
package main

import (
	"flag"
	"fmt"
	"os"

	"beacongnn/internal/dataset"
	"beacongnn/internal/directgraph"
	"beacongnn/internal/graph"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "validate" {
		runValidate(os.Args[2:])
		return
	}
	var (
		ds       = flag.String("dataset", "", "named benchmark dataset (reddit, amazon, movielens, OGBN, PPI)")
		nodes    = flag.Int("nodes", 20000, "nodes for a custom synthetic graph")
		degree   = flag.Float64("degree", 50, "average degree for a custom graph")
		dim      = flag.Int("dim", 64, "feature dimension for a custom graph")
		powerLaw = flag.Float64("powerlaw", 2.0, "degree distribution shape (0 = uniform)")
		pageSize = flag.Int("pagesize", 4096, "flash page size in bytes")
		node     = flag.Int("node", -1, "decode and print this node's sections")
		verify   = flag.Bool("verify", true, "run the Section VI-E security verification")
		seed     = flag.Uint64("seed", 0xBEAC0, "generation seed")
	)
	flag.Parse()

	var inst *dataset.Instance
	var err error
	if *ds != "" {
		var d dataset.Desc
		d, err = dataset.ByName(*ds)
		if err == nil {
			inst, err = dataset.Materialize(d, *nodes, *pageSize, *seed)
		}
	} else {
		d := dataset.Desc{
			Name: "custom", FullNodes: *nodes, AvgDegree: *degree,
			MaxDegree: *nodes - 1, FeatureDim: *dim, PowerLaw: *powerLaw,
		}
		inst, err = dataset.Materialize(d, *nodes, *pageSize, *seed)
	}
	if err != nil {
		fatal(err)
	}
	b := inst.Build
	st := b.Stats
	fmt.Printf("graph         %d nodes, %d edges (avg degree %.1f, max %d), dim %d\n",
		inst.Graph.NumNodes(), inst.Graph.NumEdges(), inst.Graph.AvgDegree(),
		inst.Graph.MaxDegree(), inst.Graph.FeatureDim())
	fmt.Printf("layout        %d B pages, %d section bits (max %d sections/page)\n",
		b.Layout.PageSize, b.Layout.SectionBits(), b.Layout.MaxSectionsPerPage())
	fmt.Printf("pages         %d primary + %d secondary = %d total (%.2f MB)\n",
		st.PrimaryPages, st.SecondaryPages, st.PrimaryPages+st.SecondaryPages,
		float64(st.TotalBytes)/1e6)
	fmt.Printf("occupancy     %.1f%% of page bytes used\n", float64(st.UsedBytes)/float64(st.TotalBytes)*100)
	fmt.Printf("raw size      %.2f MB → inflation %.1f%% (Table IV metric)\n",
		float64(st.RawBytes)/1e6, st.InflationRatio()*100)

	spilled := 0
	for i := range b.Plans {
		if b.Plans[i].SecCount > 0 {
			spilled++
		}
	}
	fmt.Printf("spilled nodes %d of %d use secondary sections\n", spilled, st.Nodes)

	if *verify {
		if rep := directgraph.Validate(b); !rep.OK() {
			fatal(fmt.Errorf("security verification FAILED: %d issues, first %s", len(rep.Issues), rep.Issues[0]))
		}
		fmt.Println("verify        all embedded addresses stay inside allocated blocks ✓")
	}
	if *node >= 0 {
		printNode(inst, graph.NodeID(*node))
	}
}

// runValidate materializes an image (same knobs as the main command) and
// runs the full integrity walk. -corrupt and -drop deterministically
// damage the image first — smashing section headers and deleting pages —
// so the corrupt-section and dangling-address detectors can be exercised
// end to end. Exits non-zero when validation finds problems.
func runValidate(args []string) {
	fs := flag.NewFlagSet("dgtool validate", flag.ExitOnError)
	var (
		ds        = fs.String("dataset", "", "named benchmark dataset (reddit, amazon, movielens, OGBN, PPI)")
		nodes     = fs.Int("nodes", 20000, "nodes for a custom synthetic graph")
		degree    = fs.Float64("degree", 50, "average degree for a custom graph")
		dim       = fs.Int("dim", 64, "feature dimension for a custom graph")
		powerLaw  = fs.Float64("powerlaw", 2.0, "degree distribution shape (0 = uniform)")
		pageSize  = fs.Int("pagesize", 4096, "flash page size in bytes")
		seed      = fs.Uint64("seed", 0xBEAC0, "generation seed")
		corrupt   = fs.Int("corrupt", 0, "smash the section headers of the N lowest-numbered pages")
		drop      = fs.Int("drop", 0, "delete the N highest-numbered pages (dangles addrs into them)")
		maxIssues = fs.Int("max-issues", 10, "issues to print in detail")
	)
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}
	var inst *dataset.Instance
	var err error
	if *ds != "" {
		var d dataset.Desc
		d, err = dataset.ByName(*ds)
		if err == nil {
			inst, err = dataset.Materialize(d, *nodes, *pageSize, *seed)
		}
	} else {
		d := dataset.Desc{
			Name: "custom", FullNodes: *nodes, AvgDegree: *degree,
			MaxDegree: *nodes - 1, FeatureDim: *dim, PowerLaw: *powerLaw,
		}
		inst, err = dataset.Materialize(d, *nodes, *pageSize, *seed)
	}
	if err != nil {
		fatal(err)
	}
	b := inst.Build

	if *corrupt > 0 || *drop > 0 {
		n := len(b.Pages)
		for _, pg := range b.Pages[:min(max(*corrupt, 0), n)] {
			for j := 0; j < 4 && j < len(pg); j++ {
				pg[j] = 0xFF
			}
		}
		// A dropped page leaves a hole in the page table.
		clear(b.Pages[n-min(max(*drop, 0), n):])
		fmt.Printf("injected damage: %d smashed headers, %d dropped pages\n", *corrupt, *drop)
	}

	rep := directgraph.Validate(b)
	fmt.Printf("walked        %d pages, %d sections decoded\n", rep.Pages, rep.Sections)
	fmt.Printf("corrupt       %d sections failed to decode\n", rep.CorruptSections)
	fmt.Printf("dangling      %d addresses leave the allocated pages or miss their section\n", rep.DanglingAddrs)
	for i, issue := range rep.Issues {
		if i >= *maxIssues {
			fmt.Printf("  ... and %d more issues\n", len(rep.Issues)-i)
			break
		}
		fmt.Printf("  %s\n", issue)
	}
	if !rep.OK() {
		fmt.Println("validate      FAILED")
		os.Exit(1)
	}
	fmt.Println("validate      image decodes cleanly, every address resolves ✓")
}

func printNode(inst *dataset.Instance, v graph.NodeID) {
	b := inst.Build
	if int(v) >= len(b.Plans) {
		fatal(fmt.Errorf("node %d out of range", v))
	}
	plan := b.Plans[v]
	sec, err := b.ReadSection(plan.Primary)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("\nnode %d\n", v)
	fmt.Printf("  primary    addr %#x (page %d section %d offset %d), %d B\n",
		uint32(plan.Primary), b.Layout.Page(plan.Primary), b.Layout.Section(plan.Primary),
		plan.PrimaryOffset, plan.PrimarySize)
	fmt.Printf("  degree     %d (%d inline, %d in %d secondary sections)\n",
		sec.NeighborCount, sec.InlineCount, sec.NeighborCount-sec.InlineCount, len(sec.Secondaries))
	fmt.Printf("  feature    %d × FP16\n", len(sec.FeatureBits))
	for i, sa := range sec.Secondaries {
		ss, err := b.ReadSection(sa)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("  secondary[%d] addr %#x: entries %d, base index %d\n",
			i, uint32(sa), ss.Count, ss.BaseIndex)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dgtool:", err)
	os.Exit(1)
}
