package collector

import (
	"slices"
	"strconv"
	"sync"

	"pathprof/internal/analysis"
	"pathprof/internal/experiments"
)

// Table queries answer from per-program views: the rows one read of a
// program's aggregate yields, keyed by the fold stamp (Gen) that read
// saw under the home shard's lock, and served while the home shard still
// holds an aggregate with that stamp for the program. A stamp read after
// the copy could pair old rows with newer data. DESIGN.md §6 has the
// whole rule.

// profView holds one program's rows derived from its merged profile:
// Tables 4 and 5 and the named-metric totals. The hot-path and
// hot-procedure lists no table prints are dropped. The named-metric
// numbers are formatted when the view is built; the Table 4 and Table 5
// cells on the first read of that table from the view, each under its
// own Once, so a read of one table formats nothing for the others. Apart
// from those once-filled cells a view is immutable once stored.
type profView struct {
	gen    uint64 // fold stamp of the aggregate the rows came from
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
	gen   uint64
	cells []string
}

// fresh reports whether program's aggregate of one kind, its CCT when
// ccts is set and its profile otherwise, still carries stamp gen.
func (c *Collector) fresh(gen uint64, program string, ccts bool) bool {
	sh := c.home(program)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if ccts {
		a := sh.CCTs[program]
		return a != nil && a.Gen() == gen
	}
	a := sh.Profiles[program]
	return a != nil && a.Gen() == gen
}

// profileView returns program's profile view, deriving and storing a new
// one when a fold has changed its profile aggregate since the last. It
// returns false when program has no profile aggregate.
func (c *Collector) profileView(program string) (*profView, bool) {
	c.viewMu.Lock()
	v := c.profViews[program]
	c.viewMu.Unlock()
	if v != nil && c.fresh(v.gen, program, false) {
		c.viewHits.Add(1)
		return v, true
	}
	c.viewMisses.Add(1)
	p, gen := c.readProfile(program)
	if p == nil {
		return nil, false
	}
	v = &profView{
		gen:    gen,
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

// exportView is profileView for program's CCT aggregate.
func (c *Collector) exportView(program string) (*cctView, bool) {
	c.viewMu.Lock()
	v := c.cctViews[program]
	c.viewMu.Unlock()
	if v != nil && c.fresh(v.gen, program, true) {
		c.viewHits.Add(1)
		return v, true
	}
	c.viewMisses.Add(1)
	ex, gen := c.readExport(program)
	if ex == nil {
		return nil, false
	}
	row := experiments.Table3Row{Name: program, Stats: ex.Stats()}
	v = &cctView{gen: gen, cells: experiments.Table3Cells(row)}
	c.viewMu.Lock()
	c.cctViews[program] = v
	c.viewMu.Unlock()
	return v, true
}
