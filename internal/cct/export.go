package cct

import (
	"bufio"
	"fmt"
	"io"
	"slices"
	"strings"

	"pathprof/internal/flat"
)

// This file holds what the paper's "Program exit" instrumentation needs:
// "the instrumentation writes the heap containing the CCT to a file from
// which the CCT can be reconstructed". Export snapshots the tree into the
// form the wire-v3 frames of package wire carry (the saved-run file) and
// merges read; WriteText and Dump are human-readable dumps.

// SlotStat is the per-call-site structural state of a decoded record: the
// slot's usage and which intraprocedural path prefixes reached it (the
// Table 3 "One Path" accounting). It is carried by the binary wire format;
// the text dump does not show it.
type SlotStat struct {
	Used       bool
	PathState  uint8 // 0 = no prefix seen, 1 = exactly one, 2 = multiple
	PathPrefix int64 // the unique prefix when PathState == 1
}

// ExportedNode is one record of an exported CCT. PathCounts is a flat
// open-addressing table (see package flat) so that merging many exports
// does not churn per-node Go maps.
type ExportedNode struct {
	ID         int
	ParentID   int
	Proc       int
	Metrics    []int64
	PathCounts *flat.Table
	Children   []*ExportedNode
	Backedges  []int // target node IDs

	// Structural extras carried by the binary wire format (zero / nil when
	// the producer sent none): the record's simulated size and its
	// per-site slot states.
	Size  uint64
	Slots []SlotStat
}

// Export is a CCT as a saved run or a push carries it: a snapshot of a
// live tree (Tree.Export), a decoded wire item, or a merge of those.
type Export struct {
	NumProcs         int
	DistinguishSites bool
	NumMetrics       int
	Root             *ExportedNode // synthetic root with ID 0
	Nodes            map[int]*ExportedNode

	// Program names the profiled program; set by Tree.Export and the wire
	// codec.
	Program string

	// HasStructure reports whether the structural extras below (and the
	// per-node Size/Slots) are populated, making Stats exact rather than
	// shape-only.
	HasStructure bool
	SizeBytes    uint64 // simulated profile heap (records + lists)
	ListElems    int
}

// Export snapshots the live tree, including the structural detail the
// text dump leaves out (record sizes, slot usage, one-path states, the
// heap footprint). An export taken with Export renders
// Table 3 statistics byte-identical to the tree's own ComputeStats, which
// is what lets a collection tier merge uploaded trees and reproduce the
// single-process report exactly.
func (t *Tree) Export(program string) *Export {
	root := &ExportedNode{ID: 0, Proc: -1, PathCounts: flat.New(0)}
	ex := &Export{
		NumProcs:         len(t.procs),
		DistinguishSites: t.opts.DistinguishCallSites,
		NumMetrics:       t.opts.NumMetrics,
		Root:             root,
		Nodes:            map[int]*ExportedNode{0: root},
		Program:          program,
		HasStructure:     true,
		SizeBytes:        t.HeapBytes(),
		ListElems:        t.listElems,
	}
	next := 1
	var rec func(n *Node, en *ExportedNode)
	rec = func(n *Node, en *ExportedNode) {
		tree, backs := n.Children()
		for _, ch := range tree {
			e := &ExportedNode{
				ID:       next,
				ParentID: en.ID,
				Proc:     ch.Proc,
				Metrics:  append([]int64(nil), ch.Metrics...),
				Size:     ch.Size,
				Slots:    make([]SlotStat, len(ch.slots)),
			}
			next++
			for i := range ch.slots {
				s := &ch.slots[i]
				e.Slots[i] = SlotStat{Used: s.tag != TagEmpty, PathState: s.pathState, PathPrefix: s.pathPrefix}
				if s.pathState != 1 {
					e.Slots[i].PathPrefix = 0
				}
			}
			e.PathCounts = flat.New(ch.NumPathCounts())
			ch.RangePathCounts(func(s, c int64) bool {
				e.PathCounts.Set(s, c)
				return true
			})
			en.Children = append(en.Children, e)
			ex.Nodes[e.ID] = e
			rec(ch, e)
		}
		// Backedge targets are ancestors, so their preorder IDs are already
		// assigned; record them on the from-node.
		for _, b := range backs {
			en.Backedges = append(en.Backedges, ex.idOfAncestor(en, b.Proc))
		}
	}
	rec(t.root, root)
	return ex
}

// idOfAncestor resolves the exported ID of the nearest ancestor of n (or n
// itself) recording the given procedure. The recursion rule guarantees each
// procedure appears at most once on a root path, so the match is unique.
func (ex *Export) idOfAncestor(n *ExportedNode, proc int) int {
	for a := n; a != nil && a.ID != 0; a = ex.Nodes[a.ParentID] {
		if a.Proc == proc {
			return a.ID
		}
	}
	return 0
}

// WriteText writes the export as a human-readable text dump:
//
//	cct <numProcs> <distinguishSites> <numMetrics>
//	node <id> <parent-id> <proc> <metrics...>
//	path <node-id> <sum> <count>
//	back <from-id> <to-id>
//
// Node lines come in depth-first preorder over the children lists, each
// followed by its nonzero path counts in ascending sum order; the back
// lines come last, in depth-first postorder of their from-nodes. IDs are
// the export's own; the root is 0 and has no node line. Record sizes,
// slot states and the heap footprint are not shown, and nothing reads the
// dump back: saved runs are wire frames. Tests compare exports through it
// (the wire round trip, merges against MergeExports, TestSimGolden).
func (ex *Export) WriteText(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "cct %d %t %d\n", ex.NumProcs, ex.DistinguishSites, ex.NumMetrics)
	var backedges [][2]int
	var rec func(n *ExportedNode)
	rec = func(n *ExportedNode) {
		for _, ch := range n.Children {
			fmt.Fprintf(bw, "node %d %d %d", ch.ID, n.ID, ch.Proc)
			for _, m := range ch.Metrics {
				fmt.Fprintf(bw, " %d", m)
			}
			fmt.Fprintln(bw)
			sums := make([]int64, 0, ch.PathCounts.Len())
			ch.PathCounts.Range(func(s, c int64) bool {
				if c != 0 {
					sums = append(sums, s)
				}
				return true
			})
			slices.Sort(sums)
			for _, s := range sums {
				c, _ := ch.PathCounts.Get(s)
				fmt.Fprintf(bw, "path %d %d %d\n", ch.ID, s, c)
			}
			rec(ch)
		}
		for _, to := range n.Backedges {
			backedges = append(backedges, [2]int{n.ID, to})
		}
	}
	rec(ex.Root)
	for _, be := range backedges {
		fmt.Fprintf(bw, "back %d %d\n", be[0], be[1])
	}
	return bw.Flush()
}

// NumNodes counts decoded records (excluding the root).
func (ex *Export) NumNodes() int { return len(ex.Nodes) - 1 }

// Stats computes Table 3-style statistics from an export: node count,
// height, out-degree and per-procedure replication. Exports that carry the
// wire format's structural extras (HasStructure) additionally report exact
// sizes and call-site columns, making the result identical to the source
// tree's ComputeStats; exports without them read those columns as zero.
func (ex *Export) Stats() Stats {
	var st Stats
	st.ListElems = ex.ListElems
	st.SizeBytes = ex.SizeBytes
	repl := map[int]int{}
	var sizeSum uint64
	var degSum, interior, leafDepthSum, leaves, maxH int
	var rec func(n *ExportedNode, depth int)
	rec = func(n *ExportedNode, depth int) {
		if n.ID != 0 {
			st.Nodes++
			repl[n.Proc]++
			sizeSum += n.Size
			deg := len(n.Children) + len(n.Backedges)
			if deg > 0 {
				degSum += deg
				interior++
			} else {
				leaves++
				leafDepthSum += depth
			}
			if depth > maxH {
				maxH = depth
			}
			st.CallSitesTotal += len(n.Slots)
			for _, s := range n.Slots {
				if s.Used {
					st.CallSitesUsed++
					if s.PathState == 1 {
						st.OnePathSites++
					}
				}
			}
		}
		for _, c := range n.Children {
			rec(c, depth+1)
		}
	}
	rec(ex.Root, 0)
	st.AvgNodeSize = avgOrZero(float64(sizeSum), float64(st.Nodes))
	st.AvgOutDegree = avgOrZero(float64(degSum), float64(interior))
	st.AvgHeight = avgOrZero(float64(leafDepthSum), float64(leaves))
	if leaves == 0 {
		// Mirror ComputeStats: with no pure leaves (every record has a
		// backedge) fall back to the average depth over all records.
		var depthSum int
		var all func(n *ExportedNode, depth int)
		all = func(n *ExportedNode, depth int) {
			if n.ID != 0 {
				depthSum += depth
			}
			for _, c := range n.Children {
				all(c, depth+1)
			}
		}
		all(ex.Root, 0)
		st.AvgHeight = avgOrZero(float64(depthSum), float64(st.Nodes))
	}
	st.MaxHeight = maxH
	for _, c := range repl {
		if c > st.MaxReplication {
			st.MaxReplication = c
		}
	}
	if st.Nodes == 0 {
		st.AvgHeight = 0
		st.MaxHeight = 0
	}
	return st
}

// Dump renders the tree as an indented listing (procName resolves IDs),
// with per-record metrics; handy for reports and debugging.
func (t *Tree) Dump(w io.Writer, procName func(int) string) {
	var rec func(n *Node, depth int)
	rec = func(n *Node, depth int) {
		indent := strings.Repeat("  ", depth)
		name := procName(n.Proc)
		if n == t.root {
			name = "<root>"
		}
		fmt.Fprintf(w, "%s%s", indent, name)
		if len(n.Metrics) > 0 {
			fmt.Fprintf(w, "  metrics=%v", n.Metrics)
		}
		if pc := n.NumPathCounts(); pc > 0 {
			fmt.Fprintf(w, "  paths=%d", pc)
		}
		fmt.Fprintln(w)
		tree, backs := n.Children()
		for _, ch := range tree {
			rec(ch, depth+1)
		}
		for _, b := range backs {
			fmt.Fprintf(w, "%s  ↻ %s\n", indent, procName(b.Proc))
		}
	}
	rec(t.root, 0)
}
