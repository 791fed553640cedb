package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pathprof/internal/cct"
	"pathprof/internal/experiments"
	"pathprof/internal/hpm"
	"pathprof/internal/instrument"
	"pathprof/internal/ir"
	"pathprof/internal/profile"
	"pathprof/internal/sim"
	"pathprof/internal/workload"
)

// The profile workload is the paper's own use: every program of the suite
// runs uninstrumented and in the paper's three instrumented modes (plus
// flow+hw at k=2 for k-iteration programs) in a closed loop of workers
// workers. Each run goes instrument.Instrument (at set-up) → sim.New +
// Plan.Wire → Machine.Run → ExtractProfile / Tree.Export.

// profileSet is the workload's programs: CINT and CFP programs from
// workload.Suite, whose Table 1 rows are checked, and k-iteration programs
// from workload.KSuite.
type profileSet struct {
	suite []workload.Workload
	kiter []workload.Workload
}

// allPrograms is the set every profile run times: the whole of
// workload.Suite and workload.KSuite. It does not depend on the seed, so
// every run of every seed times the same cells and op_p50_ms is a median
// over the same programs; the seed only draws the order the workers take
// the cells in (profileOrder). Every run makes at least one pass over the
// cells, so every run checks every Table 1 row.
func allPrograms() profileSet {
	return profileSet{suite: workload.Suite(), kiter: workload.KSuite()}
}

// profilePasses is how many passes over every cell a profile run makes
// at least. A cell is deterministic, so each of its runs does the same
// work, and its time is its fastest run: on a shared host whose speed
// dips by up to 1.8x for seconds at a time, the fastest of runs a pass
// (about ten seconds) apart is the one least disturbed. The untraced and
// the traced pass of a traced run each go over the cells once, so that
// the run ends well within three minutes when the host runs the
// simulator at half speed.
const profilePasses = 3

// profileSetups is how many set-ups a profile untraced pass makes on each
// side of its timed section. A set-up takes about ten milliseconds, so it
// repeats more often than the service workloads' for a steady median.
const profileSetups = 8

// profileOrder is the seeded order in which the workers take n cells.
func profileOrder(seed int64, n int) []int {
	return rand.New(rand.NewSource(seed)).Perm(n)
}

// cellSpec is one (program, mode) run; plan is nil for the base run.
type cellSpec struct {
	w     workload.Workload
	mode  string
	suite bool // from workload.Suite: has a Table 1 row
	prog  *ir.Program
	plan  *instrument.Plan
}

// cellResult is the latest completed run of a cell, kept until the end of
// the timed section as the system's state.
type cellResult struct {
	res  sim.Result
	prof *profile.Profile
	ex   *cct.Export
	runs int
}

func modeOf(m string) (instrument.Mode, int) {
	switch m {
	case "flowhw":
		return instrument.ModePathHW, 1
	case "ctxhw":
		return instrument.ModeContextHW, 1
	case "ctxflow":
		return instrument.ModeContextFlow, 1
	case "flowhw_k2":
		return instrument.ModePathHW, 2
	}
	return instrument.ModeNone, 1
}

// buildCells builds the programs of d and their instrumentation plans,
// timing each call into workload and instrument.
func buildCells(d profileSet, scale workload.Scale, tr *tracer, o *outcome) ([]cellSpec, error) {
	var cells []cellSpec
	var buildT, planT time.Duration
	add := func(w workload.Workload, suite bool, kinds []string) error {
		op := tr.newOp()
		s := tr.begin(op, 0, "workload.build")
		t0 := time.Now()
		prog := w.Build(scale)
		buildT += time.Since(t0)
		s.end()
		for _, m := range kinds {
			c := cellSpec{w: w, mode: m, suite: suite, prog: prog}
			if m != "base" {
				mode, k := modeOf(m)
				opts := instrument.DefaultOptions(mode)
				opts.NumCounters = len(experiments.StandardEvents)
				if k > 1 {
					opts.K = k
				}
				s := tr.begin(op, 0, "instrument.plan")
				t0 := time.Now()
				plan, err := instrument.Instrument(prog, opts)
				planT += time.Since(t0)
				s.end()
				if err != nil {
					return fmt.Errorf("instrumenting %s %s: %w", w.Name, m, err)
				}
				c.plan = plan
			}
			cells = append(cells, c)
		}
		return nil
	}
	for _, w := range d.suite {
		if err := add(w, true, modes[:4]); err != nil {
			return nil, err
		}
	}
	for _, w := range d.kiter {
		if err := add(w, false, modes); err != nil {
			return nil, err
		}
	}
	o.set("workload.build_ms", ms(buildT))
	o.set("instrument.plan_ms", ms(planT))
	return cells, nil
}

// cellTimes splits one cell run's host time by stage.
type cellTimes struct {
	run, extract time.Duration
}

// runCell executes one cell: sim.New (+ Plan.Wire) → Machine.Run →
// ExtractProfile / Tree.Export.
func runCell(c *cellSpec, tr *tracer, op, parent int64) (cellResult, cellTimes, *cct.Tree, error) {
	var t cellTimes
	prog := c.prog
	if c.plan != nil {
		prog = c.plan.Prog
	}
	s := tr.begin(op, parent, "sim.new")
	m := sim.New(prog, sim.DefaultConfig())
	m.PMU().SelectAll(experiments.StandardEvents[:])
	var rt *instrument.Runtime
	if c.plan != nil {
		rt = c.plan.Wire(m)
	}
	s.end()
	s = tr.begin(op, parent, "sim.run")
	t0 := time.Now()
	res, err := m.Run()
	t.run = time.Since(t0)
	s.end()
	if err != nil {
		return cellResult{}, t, nil, fmt.Errorf("%s %s: %w", c.w.Name, c.mode, err)
	}
	out := cellResult{res: res}
	if rt == nil {
		return out, t, nil, nil
	}
	s = tr.begin(op, parent, "instrument.extract")
	t0 = time.Now()
	if c.plan.Mode.UsesPaths() {
		out.prof = rt.ExtractProfile()
	}
	if rt.Tree != nil {
		out.ex = rt.Tree.Export(c.w.Name)
	}
	t.extract = time.Since(t0)
	s.end()
	return out, t, rt.Tree, nil
}

// modeAgg accumulates one mode's measurements over the timed section.
type modeAgg struct {
	runNs, instrs float64
}

func runProfile(cfg config, tr *tracer) (*outcome, error) {
	o := newOutcome()
	scale := workload.Ref
	if cfg.small {
		scale = workload.Test
	}

	// Set-up builds and instruments every program; the timed section runs
	// each resulting cell.
	var cells []cellSpec
	sc := newSetupClock(profileSetups, tr)
	if err := sc.setUp(func() (err error) {
		cells, err = buildCells(allPrograms(), scale, tr, o)
		return err
	}); err != nil {
		return nil, err
	}
	o.note("%d cells", len(cells))

	// Closed loop: workers take cells in a seeded cyclic order until the
	// deadline, and at least for profilePasses passes. Each worker stays on
	// one OS thread, so a cell's CPU time is its thread's.
	passes := profilePasses
	if cfg.trace {
		passes = 1
	}
	order := profileOrder(cfg.seed, len(cells))
	results := make([]cellResult, len(cells))
	var (
		mu       sync.Mutex
		next     atomic.Int64
		firstErr error
		bestWall = make([]time.Duration, len(cells))
		bestCPU  = make([]time.Duration, len(cells))
		busy     time.Duration
		agg      = map[string]*modeAgg{}
		extract  time.Duration
		extracts int
		nodes    int
		heapKB   float64
		attempts atomic.Int64
		failures atomic.Int64
	)
	for _, m := range modes {
		agg[m] = &modeAgg{}
	}
	g0 := readGoStats()
	start := time.Now()
	deadline := cfg.deadline()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			for {
				i := next.Add(1) - 1
				if int(i) >= passes*len(cells) && time.Now().After(deadline) {
					return
				}
				ci := order[int(i)%len(cells)]
				c := &cells[ci]
				op := tr.newOp()
				root := tr.begin(op, 0, "bench.cell")
				attempts.Add(1)
				cpu0, t0 := threadCPU(), time.Now()
				r, ct, tree, err := runCell(c, tr, op, root.id)
				wall, cpu := time.Since(t0), threadCPU()-cpu0
				root.end()
				if err != nil {
					failures.Add(1)
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
				mu.Lock()
				prev := results[ci]
				if prev.runs > 0 && (prev.res.Cycles != r.res.Cycles || !slices.Equal(prev.res.Output, r.res.Output)) {
					if firstErr == nil {
						firstErr = fmt.Errorf("%s %s: run %d differs from run 1 (cycles %d vs %d)",
							c.w.Name, c.mode, prev.runs+1, r.res.Cycles, prev.res.Cycles)
					}
				}
				r.runs = prev.runs + 1
				results[ci] = r
				if r.runs == 1 || wall < bestWall[ci] {
					bestWall[ci] = wall
				}
				if r.runs == 1 || cpu < bestCPU[ci] {
					bestCPU[ci] = cpu
				}
				busy += wall
				a := agg[c.mode]
				a.runNs += float64(ct.run)
				a.instrs += float64(r.res.Instrs)
				if c.plan != nil {
					extract += ct.extract
					extracts++
				}
				if tree != nil && r.runs == 1 {
					nodes += tree.NumNodes()
					heapKB += float64(tree.HeapBytes()) / 1024
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	if firstErr != nil {
		return nil, firstErr
	}
	// The state held: every plan, and the latest result of every cell.
	o.set("live_heap_mb", liveHeapMB())
	runtime.KeepAlive(cells)
	var instrs float64
	for _, a := range agg {
		instrs += a.instrs
	}
	minstr := instrs / 1e6
	// go.* per Minstr; cpu_us_per_op is reset below to the cells' fastest
	// thread CPU times.
	g0.report(o, minstr)
	o.attempted, o.failed = attempts.Load(), failures.Load()

	// End-to-end: an op is a million simulated instructions. op_p50_ms is
	// the median over cells of a cell's fastest run per op, cpu_us_per_op
	// the cells' fastest thread CPU times over their instructions.
	// Throughput is over the workers' busy time, so a worker idling while
	// the other finishes the last cell after the deadline does not count.
	perCell := make([]float64, len(cells))
	var cellMinstr, cellCPU float64
	for i, r := range results {
		mi := float64(r.res.Instrs) / 1e6
		perCell[i] = ms(bestWall[i]) / mi
		cellMinstr += mi
		cellCPU += us(bestCPU[i])
	}
	rate := minstr / (busy.Seconds() / float64(workers))
	o.note("process CPU %.1f us per Minstr over every run", o.metrics["cpu_us_per_op"])
	o.set("cpu_us_per_op", cellCPU/cellMinstr)
	o.set("op_p50_ms", median(perCell))
	o.set("sim_minstr_per_s", rate)
	o.set("failed_frac", ratio(float64(o.failed), float64(o.attempted)))
	o.note("attempted %d cell runs, failed %d, failed_frac %g", o.attempted, o.failed, ratio(float64(o.failed), float64(o.attempted)))
	o.note("timed: %d runs of %d cells in %.2fs, %.1f Minstr at %.1f Minstr/s; fastest ms per Minstr p50 %.2f (n=%d cells)",
		o.attempted, len(cells), elapsed.Seconds(), minstr, rate, median(perCell), len(perCell))

	if err := checkOutputs(cells, results); err != nil {
		return nil, err
	}
	if !cfg.small {
		ref, err := os.ReadFile(filepath.Join(cfg.root, "ref_results.txt"))
		if err != nil {
			return nil, fmt.Errorf("reading reference Table 1: %w", err)
		}
		if err := checkTable1(table1Rows(cells, results), string(ref)); err != nil {
			return nil, err
		}
		o.note("check: %d Table 1 rows match ref_results.txt; every instrumented output equals its base output", len(allPrograms().suite))
	} else {
		o.note("check: every instrumented output equals its base output (Table 1 rows exist only at ref scale)")
	}

	// Per-layer: simulated counts from one run of each cell, host time per
	// instruction over every run.
	overheads := map[string][]float64{}
	growth := map[string][]float64{}
	rows := map[string]float64{}
	counts := map[string]float64{}
	base := map[string]sim.Result{}
	for i, c := range cells {
		if c.mode == "base" {
			base[c.w.Name] = results[i].res
		}
	}
	for i, c := range cells {
		r := results[i]
		for _, ev := range simEvents {
			counts["sim."+ev+"."+c.mode] += simCount(r.res, ev)
		}
		if c.mode == "base" {
			continue
		}
		over := float64(r.res.Cycles) / float64(base[c.w.Name].Cycles)
		if c.suite || c.mode == "flowhw_k2" {
			overheads[c.mode] = append(overheads[c.mode], over)
		}
		growth[c.mode] = append(growth[c.mode], float64(c.plan.Prog.NumInstrs())/float64(c.prog.NumInstrs()))
		if r.prof != nil {
			rows[c.mode] += float64(r.prof.TotalExecutedPaths())
		}
	}
	for name, v := range counts {
		o.set(name, v)
	}
	for _, m := range modes[1:] {
		o.set("overhead_"+m+"_x", geomean(overheads[m]))
		o.set("instrument.static_growth."+m, geomean(growth[m]))
	}
	for _, m := range []string{"flowhw", "ctxflow", "flowhw_k2"} {
		o.set("profile.rows."+m, rows[m])
	}
	for _, m := range modes {
		o.set("sim.ns_per_instr."+m, ratio(agg[m].runNs, agg[m].instrs))
	}
	o.set("instrument.extract_ms", ratio(ms(extract), float64(extracts)))
	o.set("cct.nodes", float64(nodes))
	o.set("cct.heap_kb", heapKB)
	o.note("Table 1 over the suite: flow+hw %.2fx, ctx+hw %.2fx, ctx+flow %.2fx; flow+hw k=2 %.2fx",
		o.metrics["overhead_flowhw_x"], o.metrics["overhead_ctxhw_x"], o.metrics["overhead_ctxflow_x"], o.metrics["overhead_flowhw_k2_x"])
	if err := sc.finish(o, func() error {
		_, err := buildCells(allPrograms(), scale, nil, newOutcome())
		return err
	}); err != nil {
		return nil, err
	}
	return o, nil
}

// simCount reads one reported event from a run's result.
func simCount(r sim.Result, ev string) float64 {
	switch ev {
	case "instrs":
		return float64(r.Instrs)
	case "cycles":
		return float64(r.Cycles)
	}
	e, ok := hpm.EventByName(ev)
	if !ok {
		return 0
	}
	return float64(r.Totals[e])
}

// checkOutputs requires every instrumented run's program output to equal
// its base run's output.
func checkOutputs(cells []cellSpec, results []cellResult) error {
	base := map[string][]int64{}
	for i, c := range cells {
		if c.mode == "base" {
			base[c.w.Name] = results[i].res.Output
		}
	}
	for i, c := range cells {
		if c.mode != "base" && !slices.Equal(results[i].res.Output, base[c.w.Name]) {
			return fmt.Errorf("check: %s %s output differs from the base run's", c.w.Name, c.mode)
		}
	}
	return nil
}

// table1Rows assembles the suite programs' Table 1 rows.
func table1Rows(cells []cellSpec, results []cellResult) []experiments.Table1Row {
	byName := map[string]*experiments.Table1Row{}
	var rows []*experiments.Table1Row
	for i, c := range cells {
		if !c.suite {
			continue
		}
		r := byName[c.w.Name]
		if r == nil {
			r = &experiments.Table1Row{Name: c.w.Name, Class: c.w.Class}
			byName[c.w.Name] = r
			rows = append(rows, r)
		}
		cyc := results[i].res.Cycles
		switch c.mode {
		case "base":
			r.BaseCycles = cyc
		case "flowhw":
			r.FlowHW = cyc
		case "ctxhw":
			r.ContextHW = cyc
		case "ctxflow":
			r.ContextFlow = cyc
		}
	}
	out := make([]experiments.Table1Row, len(rows))
	for i, r := range rows {
		out[i] = *r
	}
	return out
}

// checkTable1 renders rows with experiments.RenderTable1 and requires each
// program's row to match, field by field, its row in the reference text
// (the committed ref_results.txt).
func checkTable1(rows []experiments.Table1Row, ref string) error {
	var buf bytes.Buffer
	experiments.RenderTable1(rows, &buf)
	got := table1Fields(buf.String())
	want := table1Fields(ref)
	for _, r := range rows {
		g, w := got[r.Name], want[r.Name]
		if w == nil {
			return fmt.Errorf("check: Table 1 reference has no row for %s", r.Name)
		}
		if !slices.Equal(g, w) {
			return fmt.Errorf("check: Table 1 row for %s is %q, reference has %q", r.Name, strings.Join(g, " "), strings.Join(w, " "))
		}
	}
	return nil
}

// table1Fields splits the rows of the first Table 1 in text into fields,
// keyed by benchmark name.
func table1Fields(text string) map[string][]string {
	out := map[string][]string{}
	in := false
	for _, line := range strings.Split(text, "\n") {
		switch {
		case strings.HasPrefix(line, "Table 1:"):
			in = true
			continue
		case !in:
			continue
		case strings.HasPrefix(line, "Table "):
			return out
		}
		f := strings.Fields(line)
		if len(f) == 8 && f[0] != "Benchmark" {
			if _, seen := out[f[0]]; !seen {
				out[f[0]] = f
			}
		}
	}
	return out
}
