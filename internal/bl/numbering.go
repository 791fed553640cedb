// Package bl implements Ball-Larus efficient path profiling: the compact
// edge numbering that makes the sum of edge values along every entry→exit
// path a unique identifier in 0..NumPaths-1, the transformation of cyclic
// CFGs into acyclic ones via pseudo edges, path regeneration (identifier →
// block sequence), and the spanning-tree increment optimization.
//
// This is Section 2 of the paper. Given a procedure's CFG the numbering
//
//  1. labels each vertex v with NP(v), the number of paths from v to EXIT in
//     the transformed acyclic graph (NP(EXIT) = 1, NP(v) = Σ NP(wᵢ));
//  2. labels each edge eᵢ = v→wᵢ with Val(eᵢ) = Σ_{j<i} NP(wⱼ), so that path
//     sums are unique and compact;
//  3. replaces each backedge b = v→w with pseudo edges ENTRY→w (whose value
//     becomes the backedge's START) and v→EXIT (its END). At runtime a
//     backedge executes `count[r+END]++; r = START`.
package bl

import (
	"fmt"
	"math"

	"pathprof/internal/cfg"
	"pathprof/internal/ir"
)

// MaxPaths bounds the number of potential paths per procedure; beyond it the
// path sum could overflow practical counter tables. The instrumenter
// switches from an array of counters to a hash table well below this.
const MaxPaths = int64(1) << 40

// EdgeKind distinguishes the edges of the transformed acyclic graph.
type EdgeKind uint8

const (
	// Real is an original CFG edge that is not a backedge.
	Real EdgeKind = iota
	// PseudoStart is a transformed edge ENTRY→w standing for backedge v→w.
	PseudoStart
	// PseudoEnd is a transformed edge v→EXIT standing for backedge v→w.
	PseudoEnd
)

// TEdge is an edge of the transformed (acyclic) graph.
type TEdge struct {
	Kind     EdgeKind
	To       ir.BlockID
	Val      int64
	Slot     int // for Real: successor slot in the source block
	Backedge int // for pseudo edges: index into Numbering.Backedges
}

// Numbering is the complete Ball-Larus numbering of one procedure.
type Numbering struct {
	Proc     *ir.Proc
	NumPaths int64   // NP(ENTRY) of the transformed graph
	NP       []int64 // per block: paths from the block to EXIT

	// Succs is the ordered adjacency of the transformed graph; the order
	// defines the Val assignment and drives path regeneration.
	Succs [][]TEdge

	// Backedges lists the procedure's backedges (DFS from entry) in
	// deterministic order. BStart[i] and BEnd[i] are the values of the
	// pseudo edges that replace Backedges[i].
	Backedges []cfg.Edge
	BStart    []int64
	BEnd      []int64

	// K and NumPathsK describe the k-iteration extension (kpath.go). After
	// New, K == 1 and NumPathsK == NumPaths; ExtendK raises them so ids
	// cover paths spanning up to K loop iterations.
	K         int
	NumPathsK int64

	rto []ir.BlockID // reverse topological order of the transformed graph

	// Layered numbering data, nil while K == 1 (see kpath.go).
	npk     [][]int64   // [layer][block]: k-path completions from block
	valk    [][][]int64 // [layer][block][pos]: layered edge values
	kbstart []int64     // [backedge]: layer-0 PseudoStart value
}

// New computes the Ball-Larus numbering for p. It returns an error if the
// transformed graph has more than MaxPaths paths or if path counting
// overflows.
func New(p *ir.Proc) (*Numbering, error) {
	n := len(p.Blocks)
	nm := &Numbering{
		Proc:  p,
		NP:    make([]int64, n),
		Succs: make([][]TEdge, n),
	}

	// The pseudo-edge transform requires a canonical ENTRY with no incoming
	// edges (a backedge into block 0 would turn its ENTRY→w pseudo edge
	// into a self-loop). Callers normalize by splitting the entry block
	// first, as the instrumenter does.
	for _, b := range p.Blocks {
		for _, s := range b.Succs {
			if s == 0 {
				return nil, fmt.Errorf("bl: proc %s: entry block has an incoming edge from block %d; split the entry first", p.Name, b.ID)
			}
		}
	}

	nm.Backedges = cfg.Backedges(p)
	isBackedge := make(map[cfg.Edge]bool, len(nm.Backedges))
	for _, e := range nm.Backedges {
		isBackedge[e] = true
	}
	nm.BStart = make([]int64, len(nm.Backedges))
	nm.BEnd = make([]int64, len(nm.Backedges))

	// Build the transformed adjacency: real non-backedge edges in slot
	// order, then pseudo end edges (v→EXIT) for backedges sourced at v,
	// then — at ENTRY only — pseudo start edges (ENTRY→w).
	exit := p.ExitBlock
	for _, b := range p.Blocks {
		for slot, s := range b.Succs {
			e := cfg.Edge{From: b.ID, To: s, Slot: slot}
			if isBackedge[e] {
				continue
			}
			nm.Succs[b.ID] = append(nm.Succs[b.ID], TEdge{Kind: Real, To: s, Slot: slot})
		}
	}
	for i, be := range nm.Backedges {
		nm.Succs[be.From] = append(nm.Succs[be.From], TEdge{Kind: PseudoEnd, To: exit, Backedge: i})
	}
	for i, be := range nm.Backedges {
		nm.Succs[0] = append(nm.Succs[0], TEdge{Kind: PseudoStart, To: be.To, Backedge: i})
	}

	// Reverse topological order of the transformed graph.
	order, err := cfg.ReverseTopologicalAdj(n, func(b ir.BlockID) []ir.BlockID {
		es := nm.Succs[b]
		out := make([]ir.BlockID, len(es))
		for i, e := range es {
			out[i] = e.To
		}
		return out
	})
	if err != nil {
		return nil, fmt.Errorf("bl: proc %s: transformed graph is cyclic: %w", p.Name, err)
	}
	nm.rto = order

	// First pass: NP.
	for _, b := range order {
		if b == exit {
			nm.NP[b] = 1
			continue
		}
		var np int64
		for _, e := range nm.Succs[b] {
			np += nm.NP[e.To]
			if np < 0 || np > MaxPaths {
				return nil, fmt.Errorf("bl: proc %s: more than %d paths", p.Name, MaxPaths)
			}
		}
		if np == 0 && b != exit {
			// A non-exit block with no outgoing transformed edges cannot
			// happen in a validated CFG (all blocks reach exit), but guard
			// against it to keep NP well defined.
			return nil, fmt.Errorf("bl: proc %s: block %d has no path to exit", p.Name, b)
		}
		nm.NP[b] = np
	}
	nm.NumPaths = nm.NP[0]
	nm.K = 1
	nm.NumPathsK = nm.NumPaths

	// Second pass: Val(eᵢ) = Σ_{j<i} NP(wⱼ) over each block's ordered
	// successor list.
	for _, b := range p.Blocks {
		var sum int64
		for i := range nm.Succs[b.ID] {
			e := &nm.Succs[b.ID][i]
			e.Val = sum
			sum += nm.NP[e.To]
			switch e.Kind {
			case PseudoStart:
				nm.BStart[e.Backedge] = e.Val
			case PseudoEnd:
				nm.BEnd[e.Backedge] = e.Val
			}
		}
	}
	return nm, nil
}

// CounterSlots returns how many counters a profile of this procedure needs:
// one per potential path.
func (nm *Numbering) CounterSlots() int64 { return nm.NumPaths }

// CompactError reports why a numbering is not compact. For violations found
// on a concrete path (an out-of-range or duplicated sum) Path carries the
// offending entry→exit block sequence of the transformed graph, so callers
// can show exactly which path breaks the bijection.
type CompactError struct {
	Kind       string       // "too-many-paths", "out-of-range", "duplicate", "count-mismatch"
	Sum        int64        // the offending path sum (out-of-range, duplicate)
	Path       []ir.BlockID // offending path, entry..exit; nil when not path-specific
	NumPaths   int64        // NP(entry) — NumPathsK when K > 1
	Enumerated int64        // paths enumerated (count-mismatch)

	// K is the numbering degree the check ran at (0 or 1: the classic
	// single-iteration scheme). Iteration is the 0-based loop-iteration
	// segment of Path in which the violating sum completed — for a k-path
	// that crosses back-edges it pinpoints which iteration boundary broke
	// the bijection.
	K         int
	Iteration int
}

func (e *CompactError) Error() string {
	if e.K > 1 {
		switch e.Kind {
		case "too-many-paths":
			return fmt.Sprintf("bl: too many k=%d paths to enumerate (%d)", e.K, e.NumPaths)
		case "out-of-range":
			return fmt.Sprintf("bl: k=%d path %v sums to %d, out of range [0,%d) (completed in iteration %d)",
				e.K, e.Path, e.Sum, e.NumPaths, e.Iteration)
		case "duplicate":
			return fmt.Sprintf("bl: k=%d path %v duplicates sum %d (completed in iteration %d)",
				e.K, e.Path, e.Sum, e.Iteration)
		}
		return fmt.Sprintf("bl: k=%d enumerated %d paths, NPK(entry)=%d", e.K, e.Enumerated, e.NumPaths)
	}
	switch e.Kind {
	case "too-many-paths":
		return fmt.Sprintf("bl: too many paths to enumerate (%d)", e.NumPaths)
	case "out-of-range":
		return fmt.Sprintf("bl: path %v sums to %d, out of range [0,%d)", e.Path, e.Sum, e.NumPaths)
	case "duplicate":
		return fmt.Sprintf("bl: path %v duplicates sum %d", e.Path, e.Sum)
	}
	return fmt.Sprintf("bl: enumerated %d paths, NP(entry)=%d", e.Enumerated, e.NumPaths)
}

// CheckCompact verifies (by exhaustive enumeration; intended for tests,
// verifiers, and small procedures) that path sums are exactly a bijection
// onto 0..NumPaths-1. The error, when non-nil, is a *CompactError carrying
// the first offending path.
func (nm *Numbering) CheckCompact() error {
	if nm.NumPaths > 1<<20 {
		return &CompactError{Kind: "too-many-paths", NumPaths: nm.NumPaths}
	}
	seen := make([]bool, nm.NumPaths)
	count := int64(0)
	trail := []ir.BlockID{0}
	var walk func(b ir.BlockID, sum int64) error
	walk = func(b ir.BlockID, sum int64) error {
		if b == nm.Proc.ExitBlock {
			if sum < 0 || sum >= nm.NumPaths {
				return &CompactError{Kind: "out-of-range", Sum: sum, Path: append([]ir.BlockID(nil), trail...), NumPaths: nm.NumPaths}
			}
			if seen[sum] {
				return &CompactError{Kind: "duplicate", Sum: sum, Path: append([]ir.BlockID(nil), trail...), NumPaths: nm.NumPaths}
			}
			seen[sum] = true
			count++
			return nil
		}
		for _, e := range nm.Succs[b] {
			trail = append(trail, e.To)
			err := walk(e.To, sum+e.Val)
			trail = trail[:len(trail)-1]
			if err != nil {
				return err
			}
		}
		return nil
	}
	// Paths from ENTRY cover both ordinary paths and those beginning with a
	// pseudo start edge, because pseudo start edges hang off ENTRY.
	if err := walk(0, 0); err != nil {
		return err
	}
	if count != nm.NumPaths {
		return &CompactError{Kind: "count-mismatch", NumPaths: nm.NumPaths, Enumerated: count}
	}
	return nil
}

// MaxVal returns the largest edge value in the numbering, a proxy for how
// large the tracking register can grow between increments.
func (nm *Numbering) MaxVal() int64 {
	max := int64(math.MinInt64)
	found := false
	for _, es := range nm.Succs {
		for _, e := range es {
			if e.Val > max {
				max = e.Val
				found = true
			}
		}
	}
	if !found {
		return 0
	}
	return max
}
