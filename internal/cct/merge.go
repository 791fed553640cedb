package cct

import (
	"pathprof/internal/flat"

	"fmt"
	"sync"
)

// MergeExports combines two CCT exports from runs of the same program,
// summing metrics and path counts over structurally matching records
// (same procedure reached through the same child position of a matching
// parent). Records present in only one tree are kept.
//
// It is the independent reference merge, not a tool path: every merge
// the collector, Session.CollectSharded and ppreport do folds through
// package agg, and the collector's merge tests, the repository's
// integration tests and perfbench's served-table check call MergeExports
// to hold that fold to it record for record.
func MergeExports(a, b *Export) (*Export, error) {
	if a.NumProcs != b.NumProcs || a.DistinguishSites != b.DistinguishSites {
		return nil, fmt.Errorf("cct: merge shape mismatch: %d/%v procs vs %d/%v",
			a.NumProcs, a.DistinguishSites, b.NumProcs, b.DistinguishSites)
	}
	out := &Export{
		NumProcs:         a.NumProcs,
		DistinguishSites: a.DistinguishSites,
		NumMetrics:       a.NumMetrics,
		Nodes:            map[int]*ExportedNode{},
		Program:          a.Program,
		HasStructure:     a.HasStructure && b.HasStructure,
	}
	if out.Program == "" {
		out.Program = b.Program
	}
	nextID := 1
	// graftedBytes accumulates the simulated size of records present only in
	// b; for same-shape inputs (the sharded-collection case) it stays zero
	// and the merged heap footprint equals a's exactly.
	var graftedBytes uint64
	// Backedge targets are node IDs in their source export's numbering, so
	// they are resolved to merged nodes by target procedure (unique along a
	// root path by the recursion rule) and converted back to IDs after the
	// final renumbering.
	type pendingBack struct{ from, to *ExportedNode }
	var pending []pendingBack
	ancestors := map[int]*ExportedNode{}
	var merge func(x, y *ExportedNode) *ExportedNode
	merge = func(x, y *ExportedNode) *ExportedNode {
		n := &ExportedNode{}
		addCounts := func(src *ExportedNode) {
			src.PathCounts.Range(func(s, c int64) bool {
				n.PathCounts.Add(s, c)
				return true
			})
		}
		switch {
		case x != nil && y != nil:
			n.Proc = x.Proc
			n.Metrics = append(make([]int64, 0, max(len(x.Metrics), len(y.Metrics))), x.Metrics...)
			for i, m := range y.Metrics {
				if i < len(n.Metrics) {
					n.Metrics[i] += m
				} else {
					n.Metrics = append(n.Metrics, m)
				}
			}
			n.PathCounts = flat.New(x.PathCounts.Len() + y.PathCounts.Len())
			addCounts(x)
			addCounts(y)
			n.Size = x.Size
			n.Slots = mergeSlotStats(x.Slots, y.Slots)
		case x != nil:
			n.Proc = x.Proc
			n.Metrics = append(make([]int64, 0, len(x.Metrics)), x.Metrics...)
			n.PathCounts = flat.New(x.PathCounts.Len())
			addCounts(x)
			n.Size = x.Size
			n.Slots = append([]SlotStat(nil), x.Slots...)
		default:
			n.Proc = y.Proc
			n.Metrics = append(make([]int64, 0, len(y.Metrics)), y.Metrics...)
			n.PathCounts = flat.New(y.PathCounts.Len())
			addCounts(y)
			n.Size = y.Size
			n.Slots = append([]SlotStat(nil), y.Slots...)
			graftedBytes += y.Size
		}

		// Union the backedges by target procedure with multiplicity (one
		// per originating call site): all of x's, plus y's that have no
		// counterpart in x.
		var backProcs []int
		matched := map[int]int{}
		if x != nil {
			for _, to := range x.Backedges {
				if t, ok := a.Nodes[to]; ok {
					backProcs = append(backProcs, t.Proc)
					matched[t.Proc]++
				}
			}
		}
		if y != nil {
			for _, to := range y.Backedges {
				t, ok := b.Nodes[to]
				if !ok {
					continue
				}
				if matched[t.Proc] > 0 {
					matched[t.Proc]--
				} else {
					backProcs = append(backProcs, t.Proc)
				}
			}
		}

		prev, hadPrev := ancestors[n.Proc]
		ancestors[n.Proc] = n
		defer func() {
			if hadPrev {
				ancestors[n.Proc] = prev
			} else {
				delete(ancestors, n.Proc)
			}
		}()
		for _, p := range backProcs {
			if anc := ancestors[p]; anc != nil {
				pending = append(pending, pendingBack{from: n, to: anc})
			}
		}

		// Children match by procedure within the parent (one record per
		// procedure per context, as the CCT equivalence guarantees).
		var xs, ys []*ExportedNode
		if x != nil {
			xs = x.Children
		}
		if y != nil {
			ys = y.Children
		}
		byProc := map[int]*ExportedNode{}
		for _, c := range ys {
			if _, dup := byProc[c.Proc]; dup {
				// Site-distinguished trees can hold several records of the
				// same procedure under one parent (different sites). Fall
				// back to positional pairing for those.
				byProc = nil
				break
			}
			byProc[c.Proc] = c
		}
		if byProc != nil {
			n.Children = make([]*ExportedNode, 0, max(len(xs), len(ys)))
			seen := map[int]bool{}
			for _, cx := range xs {
				cy := byProc[cx.Proc]
				if cy != nil && !seen[cx.Proc] {
					seen[cx.Proc] = true
				} else {
					cy = nil
				}
				n.Children = append(n.Children, merge(cx, cy))
			}
			for _, cy := range ys {
				if !seen[cy.Proc] {
					n.Children = append(n.Children, merge(nil, cy))
				}
			}
		} else {
			n.Children = make([]*ExportedNode, 0, max(len(xs), len(ys)))
			for i := 0; i < len(xs) || i < len(ys); i++ {
				var cx, cy *ExportedNode
				if i < len(xs) {
					cx = xs[i]
				}
				if i < len(ys) {
					cy = ys[i]
				}
				n.Children = append(n.Children, merge(cx, cy))
			}
		}
		return n
	}
	out.Root = merge(a.Root, b.Root)
	out.Root.ID = 0
	// Re-number depth-first and rebuild the index.
	var index func(n *ExportedNode)
	index = func(n *ExportedNode) {
		out.Nodes[n.ID] = n
		for _, c := range n.Children {
			c.ID = nextID
			c.ParentID = n.ID
			nextID++
			index(c)
		}
	}
	index(out.Root)
	for _, pb := range pending {
		pb.from.Backedges = append(pb.from.Backedges, pb.to.ID)
	}
	if out.HasStructure {
		// Exact for same-shape inputs; for grafted subtrees the footprint
		// grows by the grafted records (list reallocations, which the export
		// does not model per-slot, are not charged).
		out.SizeBytes = a.SizeBytes + graftedBytes
		out.ListElems = a.ListElems
	}
	return out, nil
}

// mergeSlotStats folds y's per-site states into a copy of x's: a site
// stays "one path" only if both sides saw the same single prefix.
func mergeSlotStats(xs, ys []SlotStat) []SlotStat {
	out := make([]SlotStat, max(len(xs), len(ys)))
	copy(out, xs)
	for i := range ys {
		if i >= len(out) {
			break
		}
		s := &out[i]
		s.Used = s.Used || ys[i].Used
		switch ys[i].PathState {
		case 1:
			switch s.PathState {
			case 0:
				s.PathState = 1
				s.PathPrefix = ys[i].PathPrefix
			case 1:
				if s.PathPrefix != ys[i].PathPrefix {
					s.PathState = 2
					s.PathPrefix = 0
				}
			}
		case 2:
			s.PathState = 2
			s.PathPrefix = 0
		}
	}
	return out
}

// MergeAllExports reduces a set of CCT exports into one by a
// tree-structured pairwise MergeExports. Pairs at the same level are
// independent and merge concurrently; the pairing pattern is fixed
// (neighbours at doubling strides), so the result is identical to a
// left-to-right serial fold regardless of scheduling. Like MergeExports it
// is a reference merge; perfbench's served-table check calls it.
func MergeAllExports(exports []*Export) (*Export, error) {
	switch len(exports) {
	case 0:
		return nil, fmt.Errorf("cct: no exports to merge")
	case 1:
		return exports[0], nil
	}
	work := append([]*Export(nil), exports...)
	for stride := 1; stride < len(work); stride *= 2 {
		var wg sync.WaitGroup
		var mu sync.Mutex
		var firstErr error
		for i := 0; i+stride < len(work); i += 2 * stride {
			i := i
			wg.Add(1)
			go func() {
				defer wg.Done()
				m, err := MergeExports(work[i], work[i+stride])
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
				work[i] = m
			}()
		}
		wg.Wait()
		if firstErr != nil {
			return nil, firstErr
		}
	}
	return work[0], nil
}

// TotalMetric sums metric slot i over all records.
func (ex *Export) TotalMetric(i int) int64 {
	var sum int64
	for id, n := range ex.Nodes {
		if id == 0 {
			continue
		}
		if i < len(n.Metrics) {
			sum += n.Metrics[i]
		}
	}
	return sum
}
