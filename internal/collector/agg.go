package collector

import (
	"fmt"
	"slices"

	"pathprof/internal/cct"
	"pathprof/internal/flat"
	"pathprof/internal/profile"
	"pathprof/internal/wire"
)

// This file holds the shard-resident aggregate forms. Instead of keeping
// one merged profile.Profile / cct.Export per program and rebuilding it on
// every push, each shard folds pushes in place into flat aggregates:
//
//   - profAgg keys path entries by sum through a flat.Table, so folding a
//     decoded batch item is hash-probe + add per path, no allocation once
//     the path set is stable;
//   - cctAgg mutates its tree in place (metrics +=, PathCounts.Add,
//     slot-state fold), allocating only when a push grafts records the
//     aggregate has not seen.
//
// The same fold serves every merge the collector does. Reads
// (MergedProfile, MergedExport, and through them store snapshots) and the
// relay's Take merge shard aggregates by folding them into one aggregate
// with foldAgg / foldBatch, the functions pushes go through; a CCT
// aggregate reaches foldBatch by being written back into batch form
// (writeBatch, the inverse of graft). The merged aggregate is then built
// once into a fresh profile.Profile / cct.Export that shares no mutable
// state with any shard. The fold rules match profile.(*Profile).Merge and
// cct.MergeExports on well-formed input — the correctness oracle is
// byte-identity of the rendered tables against Table3Sharded/Table5 at any
// batch size and shard count (see TestBatchIngestMatchesSingles, the relay
// e2e and TestMergedReadsMatchReference).

// --- profile aggregates ---

// procAgg is one procedure's folded path table in column form: row j is
// (sums[j], freqs[j], metrics[j*width:(j+1)*width]), indexed by path sum.
type procAgg struct {
	procID   int
	name     string
	numPaths int64
	k        int         // effective iteration degree; 0 in classic profiles
	index    *flat.Table // path sum -> row
	sums     []int64
	freqs    []uint64
	metrics  []uint64
}

// profAgg is one program's folded flow-sensitive profile.
type profAgg struct {
	program string
	mode    string
	events  []string
	k       int    // iteration degree; 0 when classic (see aggK)
	schema  string // SchemaKey of (k, events)
	procs   []*procAgg
}

// aggK normalizes an iteration degree for aggregation: 0 and 1 both mean
// classic single-iteration paths and must compare (and fold) as equal.
// Degrees >1 are distinct id spaces — a k=2 push into a k=3 aggregate is
// a schema conflict, never a silent merge of unrelated path ids.
func aggK(k int) int {
	if k <= 1 {
		return 0
	}
	return k
}

// newProfAgg adopts a freshly decoded profile as the aggregate seed.
func newProfAgg(p *profile.Profile) *profAgg {
	a := &profAgg{
		program: p.Program,
		mode:    p.Mode,
		events:  append([]string(nil), p.Events...),
		k:       aggK(p.K),
	}
	a.schema = profile.SchemaKeyFor(a.k, a.events)
	w := len(a.events)
	a.procs = make([]*procAgg, len(p.Procs))
	for i, pp := range p.Procs {
		pa := &procAgg{
			procID:   pp.ProcID,
			name:     pp.Name,
			numPaths: pp.NumPaths,
			k:        pp.K,
			index:    flat.New(len(pp.Entries)),
			sums:     make([]int64, 0, len(pp.Entries)),
			freqs:    make([]uint64, 0, len(pp.Entries)),
			metrics:  make([]uint64, 0, len(pp.Entries)*w),
		}
		for j := range pp.Entries {
			e := &pp.Entries[j]
			pa.index.Set(e.Sum, int64(len(pa.sums)))
			pa.sums = append(pa.sums, e.Sum)
			pa.freqs = append(pa.freqs, e.Freq)
			for k := 0; k < w; k++ {
				pa.metrics = append(pa.metrics, e.Metric(k))
			}
		}
		a.procs[i] = pa
	}
	return a
}

// newProfAggBatch seeds an aggregate from a decoded batch item.
func newProfAggBatch(bp *wire.BatchProfile) *profAgg {
	a := &profAgg{
		program: string(bp.Program),
		mode:    string(bp.Mode),
		events:  make([]string, len(bp.Events)),
	}
	for i, ev := range bp.Events {
		a.events[i] = string(ev)
	}
	a.k = aggK(bp.K)
	a.schema = profile.SchemaKeyFor(a.k, a.events)
	w := len(a.events)
	a.procs = make([]*procAgg, len(bp.Procs))
	for i := range bp.Procs {
		pr := &bp.Procs[i]
		pa := &procAgg{
			procID:   pr.ProcID,
			name:     string(pr.Name),
			numPaths: pr.NumPaths,
			k:        pr.K,
			index:    flat.New(pr.N),
			sums:     append([]int64(nil), bp.Sums[pr.Off:pr.Off+pr.N]...),
			freqs:    append([]uint64(nil), bp.Freqs[pr.Off:pr.Off+pr.N]...),
			metrics:  append([]uint64(nil), bp.Metrics[pr.Off*w:(pr.Off+pr.N)*w]...),
		}
		for j, s := range pa.sums {
			pa.index.Set(s, int64(j))
		}
		a.procs[i] = pa
	}
	return a
}

// checkShape validates mode, schema and procedure layout before any
// mutation, reproducing the exact rejection messages of the old
// clone-and-merge path (a rejected push must leave the aggregate
// untouched, which for an in-place fold means validating up front).
func (a *profAgg) checkShape(mode, schema string, numProcs int, procID func(int) int) error {
	if a.mode != mode {
		return &conflictError{fmt.Errorf("profile mode %q conflicts with aggregated mode %q", mode, a.mode)}
	}
	if a.schema != schema {
		return &conflictError{fmt.Errorf("profile metric schema %q conflicts with aggregated schema %q", schema, a.schema)}
	}
	if len(a.procs) != numProcs {
		return &conflictError{fmt.Errorf("profile: merge shape mismatch: %d vs %d procs", len(a.procs), numProcs)}
	}
	for i, pa := range a.procs {
		if pa.procID != procID(i) {
			return &conflictError{fmt.Errorf("profile: merge proc mismatch at %d", i)}
		}
	}
	return nil
}

// foldRow adds one path observation to the procedure (hash hit: pure
// adds; miss: append a row).
func (pa *procAgg) foldRow(sum int64, freq uint64, metrics []uint64) {
	if j, ok := pa.index.Get(sum); ok {
		pa.freqs[j] += freq
		base := int(j) * len(metrics)
		for k, m := range metrics {
			pa.metrics[base+k] += m
		}
		return
	}
	pa.index.Set(sum, int64(len(pa.sums)))
	pa.sums = append(pa.sums, sum)
	pa.freqs = append(pa.freqs, freq)
	pa.metrics = append(pa.metrics, metrics...)
}

// foldBatch merges a decoded batch item in place. Steady state (stable
// path set per program) performs no allocation: the shape check compares
// frame bytes against aggregate strings directly, and every row lands in
// an existing slot.
func (a *profAgg) foldBatch(bp *wire.BatchProfile) error {
	if a.mode != string(bp.Mode) { // comparison does not allocate
		return a.checkShapeBatch(bp)
	}
	if a.k != aggK(bp.K) {
		return a.checkShapeBatch(bp)
	}
	if len(a.events) != len(bp.Events) {
		return a.checkShapeBatch(bp)
	}
	for i, ev := range bp.Events {
		if a.events[i] != string(ev) {
			return a.checkShapeBatch(bp)
		}
	}
	if len(a.procs) != len(bp.Procs) {
		return a.checkShapeBatch(bp)
	}
	for i := range bp.Procs {
		if a.procs[i].procID != bp.Procs[i].ProcID {
			return a.checkShapeBatch(bp)
		}
	}
	w := len(a.events)
	for i := range bp.Procs {
		pr := &bp.Procs[i]
		pa := a.procs[i]
		for j := 0; j < pr.N; j++ {
			row := pr.Off + j
			pa.foldRow(bp.Sums[row], bp.Freqs[row], bp.Metrics[row*w:(row+1)*w])
		}
	}
	return nil
}

// checkShapeBatch rebuilds the failing batch item's identity as strings
// (error paths may allocate) and returns the precise conflict.
func (a *profAgg) checkShapeBatch(bp *wire.BatchProfile) error {
	events := make([]string, len(bp.Events))
	for i, ev := range bp.Events {
		events[i] = string(ev)
	}
	return a.checkShape(string(bp.Mode), profile.SchemaKeyFor(aggK(bp.K), events), len(bp.Procs),
		func(i int) int { return bp.Procs[i].ProcID })
}

// clone deep-copies the aggregate's columns so a reader can fold other
// shards into the copy while the shard keeps folding pushes into its own.
func (a *profAgg) clone() *profAgg {
	c := *a
	c.procs = make([]*procAgg, len(a.procs))
	for i, pa := range a.procs {
		cp := *pa
		cp.index = pa.index.Clone()
		cp.sums = slices.Clone(pa.sums)
		cp.freqs = slices.Clone(pa.freqs)
		cp.metrics = slices.Clone(pa.metrics)
		c.procs[i] = &cp
	}
	return &c
}

// foldAgg folds every row of b into a, after the shape check a push gets;
// on a conflict a is left untouched. Single-envelope profile pushes,
// reads and Take all merge through it.
func (a *profAgg) foldAgg(b *profAgg) error {
	err := a.checkShape(b.mode, b.schema, len(b.procs), func(i int) int { return b.procs[i].procID })
	if err != nil {
		return err
	}
	w := len(a.events)
	for i, pb := range b.procs {
		pa := a.procs[i]
		for j, sum := range pb.sums {
			pa.foldRow(sum, pb.freqs[j], pb.metrics[j*w:(j+1)*w])
		}
	}
	return nil
}

// materialize builds the aggregate as a fresh profile sharing no storage
// with it: per procedure one Entries slice and one metrics array, sorted
// by path sum — the order every merged profile has (Merge sorts after
// folding, and producers emit sorted profiles).
func (a *profAgg) materialize() *profile.Profile {
	p := &profile.Profile{
		Program: a.program,
		Mode:    a.mode,
		Events:  append([]string(nil), a.events...),
		K:       a.k,
	}
	w := len(a.events)
	p.Procs = make([]*profile.ProcPaths, len(a.procs))
	for i, pa := range a.procs {
		pp := &profile.ProcPaths{ProcID: pa.procID, Name: pa.name, NumPaths: pa.numPaths, K: pa.k}
		pp.Entries = make([]profile.PathEntry, len(pa.sums))
		metrics := slices.Clone(pa.metrics)
		for j := range pp.Entries {
			e := &pp.Entries[j]
			e.Sum = pa.sums[j]
			e.Freq = pa.freqs[j]
			if w > 0 {
				e.Metrics = metrics[j*w : (j+1)*w : (j+1)*w]
			}
		}
		pp.Sort()
		p.Procs[i] = pp
	}
	return p
}

// --- CCT aggregates ---

// aggNode is one record of the folded calling context tree.
type aggNode struct {
	proc      int32
	metrics   []int64
	pc        *flat.Table
	children  []*aggNode
	backedges []*aggNode // resolved targets (ancestors)
	size      uint64
	slots     []cct.SlotStat
	snapID    int // transient preorder id, valid only during snapshot or writeBatch
}

// cctAgg is one program's folded CCT.
type cctAgg struct {
	program          string
	numProcs         int
	distinguishSites bool
	numMetrics       int
	hasStructure     bool
	sizeBytes        uint64
	listElems        int
	root             *aggNode
}

// ancestors is the fold-time proc -> nearest-enclosing-record map,
// reused across folds (procs are dense small integers, so a slice
// replaces cct.MergeExports' map).
type ancestors []*aggNode

func (sc *foldScratch) ancestorsFor(numProcs int) ancestors {
	if cap(sc.anc) < numProcs {
		sc.anc = make([]*aggNode, numProcs)
	}
	sc.anc = sc.anc[:numProcs]
	for i := range sc.anc {
		sc.anc[i] = nil
	}
	return sc.anc
}

// newCCTAgg seeds an aggregate from a decoded batch item by grafting the
// whole tree.
func newCCTAgg(bc *wire.BatchCCT, sc *foldScratch) (*cctAgg, error) {
	a := &cctAgg{
		program:          string(bc.Program),
		numProcs:         bc.NumProcs,
		distinguishSites: bc.DistinguishSites,
		numMetrics:       bc.NumMetrics,
		hasStructure:     bc.HasStructure,
		sizeBytes:        bc.SizeBytes,
		listElems:        bc.ListElems,
	}
	a.root = &aggNode{proc: -1, pc: flat.New(0)}
	anc := sc.ancestorsFor(a.numProcs)
	var grafted uint64
	for _, cid := range bc.Children(0) {
		ch, err := a.graft(bc, cid, anc, &grafted)
		if err != nil {
			return nil, err
		}
		a.root.children = append(a.root.children, ch)
	}
	return a, nil
}

// graft deep-copies the batch subtree rooted at node id into new
// aggregate records, resolving backedges against anc.
func (a *cctAgg) graft(bc *wire.BatchCCT, id int32, anc ancestors, grafted *uint64) (*aggNode, error) {
	bn := &bc.Nodes[id-1]
	if bn.Proc < 0 || int(bn.Proc) >= a.numProcs {
		return nil, fmt.Errorf("cct node proc %d out of range (program has %d procs)", bn.Proc, a.numProcs)
	}
	n := &aggNode{proc: bn.Proc, size: bn.Size}
	if bn.MetN > 0 {
		n.metrics = append([]int64(nil), bc.Metrics[bn.MetOff:bn.MetOff+bn.MetN]...)
	}
	n.pc = flat.New(int(bn.PCN))
	for k := int32(0); k < bn.PCN; k++ {
		n.pc.Set(bc.PCSums[bn.PCOff+k], bc.PCCounts[bn.PCOff+k])
	}
	if bn.SlotN > 0 {
		n.slots = append([]cct.SlotStat(nil), bc.Slots[bn.SlotOff:bn.SlotOff+bn.SlotN]...)
	}
	*grafted += bn.Size

	// Install self before resolving backedges: a self-recursive edge
	// targets this record (as in MergeExports, which installs the node in
	// ancestors before resolving).
	prev := anc[n.proc]
	anc[n.proc] = n
	for _, be := range bc.Backedges {
		if be.From != id {
			continue
		}
		tp := bc.Nodes[be.To-1].Proc
		if tp < 0 || int(tp) >= a.numProcs {
			continue
		}
		if t := anc[tp]; t != nil {
			n.backedges = append(n.backedges, t)
		}
		// No matching ancestor: drop the backedge, as MergeExports does.
	}
	for _, cid := range bc.Children(id) {
		ch, err := a.graft(bc, cid, anc, grafted)
		if err != nil {
			anc[n.proc] = prev
			return nil, err
		}
		n.children = append(n.children, ch)
	}
	anc[n.proc] = prev
	return n, nil
}

// foldBatch merges a decoded batch item into the aggregate in place,
// replicating cct.MergeExports record for record. Same-shape pushes (the
// sharded-collection steady state) allocate nothing: metrics and path
// counts fold into existing storage and no records are grafted.
func (a *cctAgg) foldBatch(bc *wire.BatchCCT, sc *foldScratch) error {
	if a.numProcs != bc.NumProcs || a.distinguishSites != bc.DistinguishSites {
		return &conflictError{fmt.Errorf("cct: merge shape mismatch: %d/%v procs vs %d/%v",
			a.numProcs, a.distinguishSites, bc.NumProcs, bc.DistinguishSites)}
	}
	if a.program == "" {
		a.program = string(bc.Program)
	}
	a.hasStructure = a.hasStructure && bc.HasStructure
	anc := sc.ancestorsFor(a.numProcs)
	var grafted uint64
	if err := a.foldNode(a.root, bc, 0, anc, &grafted); err != nil {
		return err
	}
	a.sizeBytes += grafted
	return nil
}

// foldNode merges batch node yID (0 = the implicit root) into x.
func (a *cctAgg) foldNode(x *aggNode, bc *wire.BatchCCT, yID int32, anc ancestors, grafted *uint64) error {
	if yID > 0 {
		bn := &bc.Nodes[yID-1]
		for k := int32(0); k < bn.MetN; k++ {
			m := bc.Metrics[bn.MetOff+k]
			if int(k) < len(x.metrics) {
				x.metrics[k] += m
			} else {
				x.metrics = append(x.metrics, m)
			}
		}
		for k := int32(0); k < bn.PCN; k++ {
			x.pc.Add(bc.PCSums[bn.PCOff+k], bc.PCCounts[bn.PCOff+k])
		}
		// x.size stays (merge keeps x's record size).
		x.slots = foldSlots(x.slots, bc.Slots[bn.SlotOff:bn.SlotOff+bn.SlotN])
	}

	// Install self before backedge resolution and child folds.
	var prev *aggNode
	if x.proc >= 0 && int(x.proc) < len(anc) {
		prev = anc[x.proc]
		anc[x.proc] = x
		defer func() { anc[x.proc] = prev }()
	}

	// Union backedges by target procedure with multiplicity: x's stay as
	// they are; each of y's either consumes one of x's with the same
	// target proc or appends a new edge resolved against the ancestors.
	if yID > 0 {
		nxBack := len(x.backedges)
		for bi, be := range bc.Backedges {
			if be.From != yID {
				continue
			}
			tp := bc.Nodes[be.To-1].Proc
			if tp < 0 || int(tp) >= a.numProcs {
				continue
			}
			matched := 0
			for _, xb := range x.backedges[:nxBack] {
				if xb.proc == tp {
					matched++
				}
			}
			seen := 0
			for _, pe := range bc.Backedges[:bi] {
				if pe.From == yID && bc.Nodes[pe.To-1].Proc == tp {
					seen++
				}
			}
			if seen < matched {
				continue // paired with one of x's edges
			}
			if t := anc[tp]; t != nil {
				x.backedges = append(x.backedges, t)
			}
		}
	}

	// Children match by procedure within the parent; site-distinguished
	// trees can repeat a procedure under one parent, which falls back to
	// positional pairing (both rules exactly as MergeExports).
	ys := bc.Children(yID)
	nx := len(x.children)
	xs := x.children[:nx]
	dup := false
	for i := 1; i < len(ys) && !dup; i++ {
		pi := bc.Nodes[ys[i]-1].Proc
		for j := 0; j < i; j++ {
			if bc.Nodes[ys[j]-1].Proc == pi {
				dup = true
				break
			}
		}
	}
	if !dup {
		for i, cx := range xs {
			first := true
			for _, p := range xs[:i] {
				if p.proc == cx.proc {
					first = false
					break
				}
			}
			if !first {
				continue // a later duplicate-proc x child merges with nothing
			}
			for _, cid := range ys {
				if bc.Nodes[cid-1].Proc == cx.proc {
					if err := a.foldNode(cx, bc, cid, anc, grafted); err != nil {
						return err
					}
					break
				}
			}
		}
		for _, cid := range ys {
			cp := bc.Nodes[cid-1].Proc
			found := false
			for _, cx := range xs {
				if cx.proc == cp {
					found = true
					break
				}
			}
			if !found {
				ch, err := a.graft(bc, cid, anc, grafted)
				if err != nil {
					return err
				}
				x.children = append(x.children, ch)
			}
		}
	} else {
		for i := 0; i < len(xs) || i < len(ys); i++ {
			switch {
			case i < len(xs) && i < len(ys):
				if err := a.foldNode(xs[i], bc, ys[i], anc, grafted); err != nil {
					return err
				}
			case i < len(ys):
				ch, err := a.graft(bc, ys[i], anc, grafted)
				if err != nil {
					return err
				}
				x.children = append(x.children, ch)
			}
		}
	}
	return nil
}

// foldSlots folds y's per-site states into x's in place, with the same
// one-path rules as cct.mergeSlotStats: a site stays "one path" only if
// both sides saw the same single prefix.
func foldSlots(xs []cct.SlotStat, ys []cct.SlotStat) []cct.SlotStat {
	for len(xs) < len(ys) {
		xs = append(xs, cct.SlotStat{})
	}
	for i := range ys {
		s := &xs[i]
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
	return xs
}

// writeBatch writes the aggregate into sc.bc in preorder — the inverse of
// graft — so that another aggregate can fold it with foldBatch. Node
// sizes and slots are written even when the aggregate has no structure,
// as snapshot carries them.
func (a *cctAgg) writeBatch(sc *foldScratch) {
	bc := &sc.bc
	sc.name = append(sc.name[:0], a.program...)
	bc.Program = sc.name
	bc.NumProcs = a.numProcs
	bc.DistinguishSites = a.distinguishSites
	bc.NumMetrics = a.numMetrics
	bc.HasStructure = a.hasStructure
	bc.SizeBytes = a.sizeBytes
	bc.ListElems = a.listElems
	bc.Nodes = bc.Nodes[:0]
	bc.Metrics = bc.Metrics[:0]
	bc.PCSums = bc.PCSums[:0]
	bc.PCCounts = bc.PCCounts[:0]
	bc.Slots = bc.Slots[:0]
	bc.Backedges = bc.Backedges[:0]
	writeChildren(bc, a.root, 0)
	bc.IndexChildren()
}

// writeChildren appends the subtrees under an, whose batch ID is parent.
// Backedge targets are ancestors, so their IDs are assigned before the
// records that reference them.
func writeChildren(bc *wire.BatchCCT, an *aggNode, parent int32) {
	for _, ch := range an.children {
		id := int32(len(bc.Nodes) + 1)
		ch.snapID = int(id)
		bc.Nodes = append(bc.Nodes, wire.BatchNode{
			Parent:  parent,
			Proc:    ch.proc,
			MetOff:  int32(len(bc.Metrics)),
			MetN:    int32(len(ch.metrics)),
			PCOff:   int32(len(bc.PCSums)),
			PCN:     int32(ch.pc.Len()),
			SlotOff: int32(len(bc.Slots)),
			SlotN:   int32(len(ch.slots)),
			Size:    ch.size,
		})
		bc.Metrics = append(bc.Metrics, ch.metrics...)
		ch.pc.Range(func(sum, count int64) bool {
			bc.PCSums = append(bc.PCSums, sum)
			bc.PCCounts = append(bc.PCCounts, count)
			return true
		})
		bc.Slots = append(bc.Slots, ch.slots...)
		for _, t := range ch.backedges {
			bc.Backedges = append(bc.Backedges, wire.BatchBackedge{From: id, To: int32(t.snapID)})
		}
		writeChildren(bc, ch, id)
	}
}

// snapshot materializes the aggregate as a fresh export with preorder
// node IDs, sharing no mutable state with the aggregate.
func (a *cctAgg) snapshot() *cct.Export {
	ex := &cct.Export{
		NumProcs:         a.numProcs,
		DistinguishSites: a.distinguishSites,
		NumMetrics:       a.numMetrics,
		Program:          a.program,
		HasStructure:     a.hasStructure,
		Nodes:            map[int]*cct.ExportedNode{},
	}
	if a.hasStructure {
		ex.SizeBytes = a.sizeBytes
		ex.ListElems = a.listElems
	}
	next := 1
	var walk func(an *aggNode, parentID int) *cct.ExportedNode
	walk = func(an *aggNode, parentID int) *cct.ExportedNode {
		id := 0
		if parentID >= 0 {
			id = next
			next++
		}
		an.snapID = id
		n := &cct.ExportedNode{
			ID:         id,
			ParentID:   max(parentID, 0),
			Proc:       int(an.proc),
			PathCounts: an.pc.Clone(),
			Size:       an.size,
		}
		if len(an.metrics) > 0 {
			n.Metrics = append([]int64(nil), an.metrics...)
		}
		if len(an.slots) > 0 {
			n.Slots = append([]cct.SlotStat(nil), an.slots...)
		}
		// Backedge targets are ancestors, so their preorder IDs are
		// already assigned when the referencing node is walked.
		for _, t := range an.backedges {
			n.Backedges = append(n.Backedges, t.snapID)
		}
		ex.Nodes[id] = n
		for _, ch := range an.children {
			n.Children = append(n.Children, walk(ch, id))
		}
		return n
	}
	ex.Root = walk(a.root, -1)
	return ex
}
