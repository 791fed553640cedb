package collector

import (
	"strconv"

	"pathprof/internal/analysis"
	"pathprof/internal/cct"
	"pathprof/internal/experiments"
)

// Table queries answer from per-program views: the rows one merge of a
// program's aggregates yields, keyed by the fold stamps (shard.gen) that
// merge read under each shard's lock, and served while every shard still
// holds those stamps for the program. Stamps read after the merge could
// pair old rows with newer data. DESIGN.md §6 has the whole rule.

// profView holds one program's rows derived from its merged profile:
// Tables 4 and 5 and the named-metric totals. The hot-path and
// hot-procedure lists no table prints are dropped. Immutable once
// stored.
type profView struct {
	stamps []uint64 // per shard; 0 where the shard held no aggregate
	table4 experiments.Table4Result
	table5 analysis.ProcReport
	execs  uint64            // path executions
	events []string          // distinct metric names, in schema order
	totals map[string]uint64 // per metric name, summed over paths
}

// cctView holds one program's Table 3 row, keyed as in profView.
type cctView struct {
	stamps []uint64
	stats  cct.Stats
}

// fresh reports whether program's aggregates of one kind, CCTs when ccts
// is set and profiles otherwise, still carry stamps.
func (c *Collector) fresh(stamps []uint64, program string, ccts bool) bool {
	for i, sh := range c.shards {
		var gen uint64
		sh.mu.Lock()
		if ccts {
			if a := sh.exports[program]; a != nil {
				gen = a.gen
			}
		} else if a := sh.profiles[program]; a != nil {
			gen = a.gen
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
	p := m.materialize()
	v = &profView{
		stamps: stamps,
		table4: experiments.Table4FromProfile(program, p),
		table5: analysis.ClassifyProcs(p, analysis.DefaultHotThreshold),
		totals: make(map[string]uint64, len(p.Events)),
	}
	v.table4.Std.HotPaths = nil
	if v.table4.Low != nil {
		v.table4.Low.HotPaths = nil
	}
	v.table5.HotProcs = nil
	var ms []uint64
	v.execs, ms = p.Totals()
	for i, ev := range p.Events {
		if ev == "" {
			ev = "slot" + strconv.Itoa(i)
		}
		if _, ok := v.totals[ev]; !ok {
			v.events = append(v.events, ev)
		}
		v.totals[ev] += ms[i]
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
	v = &cctView{stamps: stamps, stats: m.snapshot().Stats()}
	c.viewMu.Lock()
	c.cctViews[program] = v
	c.viewMu.Unlock()
	return v, true
}
