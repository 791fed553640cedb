package collector

import (
	"slices"
	"strconv"
	"sync"

	"pathprof/internal/analysis"
	"pathprof/internal/experiments"
)

// Table queries answer from per-program views: the rows one merge of a
// program's aggregates yields, keyed by the fold stamps (Gen) that
// merge read under each shard's lock, and served while every shard still
// holds those stamps for the program. Stamps read after the merge could
// pair old rows with newer data. DESIGN.md §6 has the whole rule.

// profView holds one program's rows derived from its merged profile:
// Tables 4 and 5 and the named-metric totals. The hot-path and
// hot-procedure lists no table prints are dropped. The named-metric
// numbers are formatted when the view is built; the Table 4 and Table 5
// cells on the first read of that table from the view, each under its
// own Once, so a read of one table formats nothing for the others. Apart
// from those once-filled cells a view is immutable once stored.
type profView struct {
	stamps []uint64 // per shard; 0 where the shard held no aggregate
	table4 experiments.Table4Result
	table5 analysis.ProcReport
	execs  string   // path executions
	events []string // distinct metric names, in schema order
	totals []string // per metric name in events order, summed over paths

	t4once  sync.Once
	t4cells [][]string
	t5once  sync.Once
	t5cells []string
}

// table4Cells returns the view's Table 4 rows, formatting them once.
func (v *profView) table4Cells() [][]string {
	v.t4once.Do(func() { v.t4cells = experiments.Table4Cells(v.table4) })
	return v.t4cells
}

// table5Cells returns the view's Table 5 row, formatting it once.
func (v *profView) table5Cells() []string {
	v.t5once.Do(func() { v.t5cells = experiments.Table5Cells(v.table5) })
	return v.t5cells
}

// cctView holds one program's Table 3 row, formatted, keyed as in
// profView.
type cctView struct {
	stamps []uint64
	cells  []string
}

// fresh reports whether program's aggregates of one kind, CCTs when ccts
// is set and profiles otherwise, still carry stamps.
func (c *Collector) fresh(stamps []uint64, program string, ccts bool) bool {
	for i, sh := range c.shards {
		var gen uint64
		sh.mu.Lock()
		if ccts {
			if a := sh.CCTs[program]; a != nil {
				gen = a.Gen()
			}
		} else if a := sh.Profiles[program]; a != nil {
			gen = a.Gen()
		}
		sh.mu.Unlock()
		if gen != stamps[i] {
			return false
		}
	}
	return true
}

// profileView returns program's profile view, deriving and storing a new
// one when a fold has changed its profile aggregates since the last. It
// returns false when no shard holds a profile aggregate for program.
func (c *Collector) profileView(program string) (*profView, bool) {
	c.viewMu.Lock()
	v := c.profViews[program]
	c.viewMu.Unlock()
	if v != nil && c.fresh(v.stamps, program, false) {
		c.viewHits.Add(1)
		return v, true
	}
	c.viewMisses.Add(1)
	m, stamps := c.mergeProfile(program)
	if m == nil {
		return nil, false
	}
	p := m.Materialize()
	v = &profView{
		stamps: stamps,
		table4: experiments.Table4FromProfile(program, p),
		table5: analysis.ClassifyProcs(p, analysis.DefaultHotThreshold),
	}
	v.table4.Std.HotPaths = nil
	if v.table4.Low != nil {
		v.table4.Low.HotPaths = nil
	}
	v.table5.HotProcs = nil
	execs, ms := p.Totals()
	v.execs = strconv.FormatUint(execs, 10)
	var sums []uint64
	for i, ev := range p.Events {
		if ev == "" {
			ev = "slot" + strconv.Itoa(i)
		}
		j := slices.Index(v.events, ev)
		if j < 0 {
			j = len(v.events)
			v.events = append(v.events, ev)
			sums = append(sums, 0)
		}
		sums[j] += ms[i]
	}
	v.totals = make([]string, len(sums))
	for j, x := range sums {
		v.totals[j] = strconv.FormatUint(x, 10)
	}
	c.viewMu.Lock()
	c.profViews[program] = v
	c.viewMu.Unlock()
	return v, true
}

// exportView is profileView for program's CCT aggregates.
func (c *Collector) exportView(program string) (*cctView, bool) {
	c.viewMu.Lock()
	v := c.cctViews[program]
	c.viewMu.Unlock()
	if v != nil && c.fresh(v.stamps, program, true) {
		c.viewHits.Add(1)
		return v, true
	}
	c.viewMisses.Add(1)
	m, stamps := c.mergeExport(program)
	if m == nil {
		return nil, false
	}
	row := experiments.Table3Row{Name: program, Stats: m.Snapshot().Stats()}
	v = &cctView{stamps: stamps, cells: experiments.Table3Cells(row)}
	c.viewMu.Lock()
	c.cctViews[program] = v
	c.viewMu.Unlock()
	return v, true
}
