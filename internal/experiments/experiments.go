// Package experiments regenerates every table of the paper's evaluation
// (Section 6): profiling overhead (Table 1), metric perturbation (Table 2),
// CCT statistics (Table 3), and the hot-path and hot-procedure analyses of
// L1 data-cache misses (Tables 4 and 5). The same entry points back the
// cmd/experiments binary and the repository's benchmark harness.
package experiments

import (
	"context"
	"fmt"
	"io"
	"strconv"
	"sync"
	"time"

	"pathprof/internal/analysis"
	"pathprof/internal/bl"
	"pathprof/internal/cct"
	"pathprof/internal/hpm"
	"pathprof/internal/instrument"
	"pathprof/internal/profile"
	"pathprof/internal/report"
	"pathprof/internal/sim"
	"pathprof/internal/workload"
)

// Session caches runs so tables sharing a configuration (e.g. Tables 4 and
// 5 both need the flow+HW miss profile) execute each workload once. A
// Session is safe for concurrent use: cells are deduplicated singleflight
// style, and each workload's built program and each (workload, mode)
// instrumentation plan are computed once and shared across cells.
type Session struct {
	Scale     workload.Scale
	Workloads []workload.Workload
	SimConfig sim.Config

	// Parallel bounds the engine's worker pool (see RunAll); <= 0 means
	// GOMAXPROCS. Table output is identical for every value.
	Parallel int

	// K is the path iteration degree applied to path-mode plans (see
	// bl.ExtendK); 0 or 1 selects classic acyclic paths. Set it before the
	// first Run: cached cells are not invalidated by later changes.
	K int

	mu       sync.Mutex
	cells    map[cellKey]*Cell
	inflight map[cellKey]*flight
	progs    map[string]*progEntry
	plans    map[planKey]*planEntry
	timings  []CellTiming
}

type cellKey struct {
	workload string
	mode     instrument.Mode
	events   string // MetricSet.Key of the cell's schema
}

// Cell is one completed (workload, mode, metric-set) run.
type Cell struct {
	Workload string
	Mode     instrument.Mode
	Events   hpm.MetricSet
	Result   sim.Result
	Profile  *profile.Profile // nil for ModeNone / ModeEdgeCount
	Tree     *cct.Tree        // nil unless a context mode
	Plan     *instrument.Plan

	// Estimates holds the multiplexed scaled per-event estimates when the
	// cell's schema was wider than the counter bank and ran behind the
	// time-multiplexing scheduler (ModeNone only); nil otherwise.
	Estimates []uint64
}

// NewSession prepares a session over the full suite at the given scale.
func NewSession(scale workload.Scale) *Session {
	return &Session{
		Scale:     scale,
		Workloads: workload.Suite(),
		SimConfig: sim.DefaultConfig(),
		cells:     make(map[cellKey]*Cell),
		inflight:  make(map[cellKey]*flight),
		progs:     make(map[string]*progEntry),
		plans:     make(map[planKey]*planEntry),
	}
}

// StandardEvents is the counter selection used by the main experiments:
// PIC0 counts L1 D-cache misses, PIC1 counts instructions.
var StandardEvents = [2]hpm.Event{hpm.EvDCacheMiss, hpm.EvInsts}

// standardSet returns StandardEvents as a metric set of its own.
func standardSet() hpm.MetricSet { return hpm.NewMetricSet(StandardEvents[0], StandardEvents[1]) }

// PerturbationPairs covers the eight Table 2 metrics, two per run.
var PerturbationPairs = [][2]hpm.Event{
	{hpm.EvCycles, hpm.EvInsts},
	{hpm.EvDCacheReadMiss, hpm.EvDCacheWriteMiss},
	{hpm.EvICacheMiss, hpm.EvMispredictStalls},
	{hpm.EvStoreBufStalls, hpm.EvFPStalls},
}

// Run executes (or returns the cached) classic two-counter cell. It is
// safe for concurrent use; see RunSetCtx for the cancellable form and
// RunSet for wider metric schemas.
func (s *Session) Run(w workload.Workload, mode instrument.Mode, ev0, ev1 hpm.Event) (*Cell, error) {
	return s.RunSetCtx(context.Background(), w, mode, hpm.NewMetricSet(ev0, ev1))
}

// RunSet executes (or returns the cached) cell under an arbitrary metric
// set. Instrumented modes get a counter bank and instrumentation plan as
// wide as the set; under ModeNone a set wider than the configured bank runs
// behind the multiplexing scheduler and fills Cell.Estimates.
func (s *Session) RunSet(w workload.Workload, mode instrument.Mode, set hpm.MetricSet) (*Cell, error) {
	return s.RunSetCtx(context.Background(), w, mode, set)
}

// RunFresh executes the classic two-counter cell without consulting or
// populating the session cache; see RunFreshSet.
func (s *Session) RunFresh(ctx context.Context, w workload.Workload, mode instrument.Mode, ev0, ev1 hpm.Event) (*Cell, error) {
	return s.RunFreshSet(ctx, w, mode, hpm.NewMetricSet(ev0, ev1))
}

// RunFreshSet executes the cell without consulting or populating the
// session cache: every call is an independent instrumented run (the
// workload build and the instrumentation plan are still shared). Collection
// clients use it so repeated pushes upload genuinely re-collected trees
// rather than one cached pointer.
func (s *Session) RunFreshSet(ctx context.Context, w workload.Workload, mode instrument.Mode, set hpm.MetricSet) (*Cell, error) {
	return s.simulate(ctx, w, mode, set)
}

// simulate performs the actual cell run (no caching; RunSetCtx layers the
// singleflight cache on top).
func (s *Session) simulate(ctx context.Context, w workload.Workload, mode instrument.Mode, set hpm.MetricSet) (*Cell, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if set.Len() == 0 {
		set = hpm.DefaultMetricSet()
	}
	start := time.Now()
	cell := &Cell{Workload: w.Name, Mode: mode, Events: set}
	cfg := s.SimConfig
	bank := cfg.NumCounters
	if bank <= 0 {
		bank = 2
	}
	if mode == instrument.ModeNone {
		m := sim.New(s.builtProg(w), cfg)
		var sched *hpm.Scheduler
		if set.Len() <= bank {
			m.PMU().SelectAll(set.Events)
		} else {
			sched = m.AttachScheduler(set, 0)
		}
		res, err := m.Run()
		if err != nil {
			return nil, fmt.Errorf("experiments: %s base: %w", w.Name, err)
		}
		cell.Result = res
		if sched != nil {
			cell.Estimates = sched.Estimates()
		}
	} else {
		// Instrumented probes read the counters directly, so the schema
		// must fit in dedicated counters: widen the simulated bank (and the
		// plan) rather than multiplex.
		if set.Len() > bank {
			cfg.NumCounters = set.Len()
		}
		plan, err := s.sharedPlanN(w, mode, set.Len())
		if err != nil {
			return nil, fmt.Errorf("experiments: %s %v: %w", w.Name, mode, err)
		}
		m := sim.New(plan.Prog, cfg)
		m.PMU().SelectAll(set.Events)
		rt := plan.Wire(m)
		res, err := m.Run()
		if err != nil {
			return nil, fmt.Errorf("experiments: %s %v: %w", w.Name, mode, err)
		}
		cell.Result = res
		cell.Plan = plan
		cell.Tree = rt.Tree
		if mode.UsesPaths() || mode == instrument.ModePathHW || mode == instrument.ModeBlockHW {
			cell.Profile = rt.ExtractProfile()
		}
		if mode == instrument.ModeContextHW {
			cell.Profile = contextProfile(rt)
		}
	}
	s.recordTiming(CellTiming{
		Workload: w.Name,
		Mode:     mode.String(),
		Events:   set.Key(),
		Wall:     time.Since(start),
		Instrs:   cell.Result.Instrs,
	})
	return cell, nil
}

// contextProfile summarizes a context+HW run: the recorded metrics are the
// root (main) record's inclusive deltas, standing for "what the profiler
// measured for the whole program". One metric column per selected counter.
func contextProfile(rt *instrument.Runtime) *profile.Profile {
	p := &profile.Profile{Program: rt.Plan.Prog.Name, Mode: rt.Plan.Mode.String()}
	nc := rt.Plan.Opts.NumCounters
	sel := rt.Machine.PMU().SelectedAll()
	p.Events = make([]string, nc)
	for k := 0; k < nc; k++ {
		ev := hpm.EvNone
		if k < len(sel) {
			ev = sel[k]
		}
		p.Events[k] = ev.String()
	}
	sums := make([]uint64, nc)
	mainID := rt.Plan.Prog.Main
	rt.Tree.Walk(func(n *cct.Node) {
		if n.Proc == mainID && len(n.Metrics) >= 1+nc {
			for k := 0; k < nc; k++ {
				sums[k] += uint64(n.Metrics[1+k])
			}
		}
	})
	pp := &profile.ProcPaths{ProcID: mainID, Name: "main", NumPaths: 1}
	en := profile.PathEntry{Sum: 0, Freq: 1, Metrics: pp.NewMetrics(nc)}
	copy(en.Metrics, sums)
	pp.Entries = []profile.PathEntry{en}
	p.Procs = append(p.Procs, pp)
	return p
}

// --- Table 1: overhead ---

// Table1Row holds one benchmark's overhead measurements (simulated cycles
// stand in for wall-clock seconds).
type Table1Row struct {
	Name        string
	Class       workload.Class
	BaseCycles  uint64
	FlowHW      uint64
	ContextHW   uint64
	ContextFlow uint64
}

// Overheads returns the three cycle ratios (x base).
func (r Table1Row) Overheads() (flowHW, ctxHW, ctxFlow float64) {
	b := float64(r.BaseCycles)
	return float64(r.FlowHW) / b, float64(r.ContextHW) / b, float64(r.ContextFlow) / b
}

// table1Modes are the four cells Table 1 needs per workload.
var table1Modes = []instrument.Mode{
	instrument.ModeNone, instrument.ModePathHW,
	instrument.ModeContextHW, instrument.ModeContextFlow,
}

// Table1 measures profiling overhead for every workload. The cells are
// executed through the parallel engine; rows are assembled from the cache
// in suite order, so output is independent of completion order.
func (s *Session) Table1() ([]Table1Row, error) {
	var specs []CellSpec
	for _, w := range s.Workloads {
		for _, mode := range table1Modes {
			specs = append(specs, CellSpec{Workload: w, Mode: mode, Events: standardSet()})
		}
	}
	if _, err := s.RunAll(context.Background(), specs); err != nil {
		return nil, err
	}
	var rows []Table1Row
	for _, w := range s.Workloads {
		base, err := s.Run(w, instrument.ModeNone, StandardEvents[0], StandardEvents[1])
		if err != nil {
			return nil, err
		}
		fhw, err := s.Run(w, instrument.ModePathHW, StandardEvents[0], StandardEvents[1])
		if err != nil {
			return nil, err
		}
		chw, err := s.Run(w, instrument.ModeContextHW, StandardEvents[0], StandardEvents[1])
		if err != nil {
			return nil, err
		}
		cfl, err := s.Run(w, instrument.ModeContextFlow, StandardEvents[0], StandardEvents[1])
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table1Row{
			Name: w.Name, Class: w.Class,
			BaseCycles:  base.Result.Cycles,
			FlowHW:      fhw.Result.Cycles,
			ContextHW:   chw.Result.Cycles,
			ContextFlow: cfl.Result.Cycles,
		})
	}
	return rows, nil
}

// RenderTable1 writes the Table 1 report.
func RenderTable1(rows []Table1Row, w io.Writer) {
	t := &report.Table{
		Title: "Table 1: Overhead of profiling (simulated cycles; ratios are x base)",
		Cols:  []string{"Benchmark", "Base", "Flow+HW", "x", "Ctx+HW", "x", "Ctx+Flow", "x"},
		Note: "Base is the uninstrumented run. Flow+HW records hardware metrics along " +
			"intraprocedural paths; Ctx+HW records them per calling context; Ctx+Flow records " +
			"path frequencies per calling context without hardware counters. " +
			"(Paper: SPEC95 averages 1.8x / 1.6x / 1.7x.)",
	}
	addAvg := func(label string, rs []Table1Row) {
		if len(rs) == 0 {
			return
		}
		var b, f, c, cf float64
		for _, r := range rs {
			fo, co, cfo := r.Overheads()
			b += float64(r.BaseCycles)
			f += fo
			c += co
			cf += cfo
		}
		n := float64(len(rs))
		t.AddSeparator()
		t.AddRow(label, report.SI(uint64(b/n)), "", report.Ratio(f/n), "", report.Ratio(c/n), "", report.Ratio(cf/n))
	}
	var ints, fps []Table1Row
	for _, r := range rows {
		fo, co, cfo := r.Overheads()
		t.AddRow(r.Name, report.SI(r.BaseCycles),
			report.SI(r.FlowHW), report.Ratio(fo),
			report.SI(r.ContextHW), report.Ratio(co),
			report.SI(r.ContextFlow), report.Ratio(cfo))
		if r.Class == workload.CINT {
			ints = append(ints, r)
		} else {
			fps = append(fps, r)
		}
	}
	addAvg("CINT avg", ints)
	addAvg("CFP avg", fps)
	addAvg("Suite avg", rows)
	t.Render(w)
}

// --- Table 2: perturbation ---

// MetricNames lists the eight Table 2 metrics in column order.
var MetricNames = []string{
	"Cycles", "Insts", "DC-RdMiss", "DC-WrMiss",
	"IC-Miss", "MispStall", "StBufStall", "FPStall",
}

var metricEvents = []hpm.Event{
	hpm.EvCycles, hpm.EvInsts, hpm.EvDCacheReadMiss, hpm.EvDCacheWriteMiss,
	hpm.EvICacheMiss, hpm.EvMispredictStalls, hpm.EvStoreBufStalls, hpm.EvFPStalls,
}

// Table2Row is one benchmark's F and C ratios per metric: the value the
// profiler recorded divided by the metric in the uninstrumented program.
type Table2Row struct {
	Name  string
	Class workload.Class
	F     [8]float64
	C     [8]float64
}

// Table2 measures perturbation: four counter selections per mode, each
// covering two metrics. All 9 cells per workload (one base + four pairs x
// two modes) go through the parallel engine up front.
func (s *Session) Table2() ([]Table2Row, error) {
	var specs []CellSpec
	for _, w := range s.Workloads {
		specs = append(specs, CellSpec{Workload: w, Mode: instrument.ModeNone, Events: standardSet()})
		for _, pair := range PerturbationPairs {
			set := hpm.NewMetricSet(pair[0], pair[1])
			specs = append(specs, CellSpec{Workload: w, Mode: instrument.ModePathHW, Events: set})
			specs = append(specs, CellSpec{Workload: w, Mode: instrument.ModeContextHW, Events: set})
		}
	}
	if _, err := s.RunAll(context.Background(), specs); err != nil {
		return nil, err
	}
	var rows []Table2Row
	for _, w := range s.Workloads {
		base, err := s.Run(w, instrument.ModeNone, StandardEvents[0], StandardEvents[1])
		if err != nil {
			return nil, err
		}
		row := Table2Row{Name: w.Name, Class: w.Class}
		for pi, pair := range PerturbationPairs {
			fcell, err := s.Run(w, instrument.ModePathHW, pair[0], pair[1])
			if err != nil {
				return nil, err
			}
			ccell, err := s.Run(w, instrument.ModeContextHW, pair[0], pair[1])
			if err != nil {
				return nil, err
			}
			_, fm := fcell.Profile.Totals()
			_, cm := ccell.Profile.Totals()
			for half := 0; half < 2; half++ {
				mi := pi*2 + half
				baseVal := base.Result.Totals[metricEvents[mi]]
				// Resolve each metric's column through the profile's
				// schema rather than assuming slot order.
				fv := totalFor(fcell.Profile, fm, metricEvents[mi], half)
				cv := totalFor(ccell.Profile, cm, metricEvents[mi], half)
				row.F[mi] = ratioOrZero(fv, baseVal)
				row.C[mi] = ratioOrZero(cv, baseVal)
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// totalFor picks the totals column recording ev, found via the profile's
// metric schema; fallback is the legacy slot for profiles without one.
func totalFor(p *profile.Profile, totals []uint64, ev hpm.Event, fallback int) uint64 {
	slot := p.MetricIndex(ev.String())
	if slot < 0 {
		slot = fallback
	}
	if slot >= len(totals) {
		return 0
	}
	return totals[slot]
}

func ratioOrZero(a, b uint64) float64 {
	if b == 0 {
		if a == 0 {
			return 1
		}
		return 0
	}
	return float64(a) / float64(b)
}

// RenderTable2 writes the Table 2 report.
func RenderTable2(rows []Table2Row, w io.Writer) {
	cols := []string{"Benchmark"}
	for _, m := range MetricNames {
		cols = append(cols, m+" F", m+" C")
	}
	t := &report.Table{
		Title: "Table 2: Perturbation of hardware metrics from profiling (recorded / uninstrumented)",
		Cols:  cols,
		Note: "F = metric recorded by flow sensitive profiling (sum over paths); C = metric " +
			"recorded by context sensitive profiling (root context's inclusive delta). Values near " +
			"1.00 mean the profiler's measurement matches the uninstrumented program; deviations " +
			"are instrumentation perturbation. (Paper: most SPEC95 averages within 0.9-1.2, with " +
			"outliers on rare events.)",
	}
	addAvg := func(label string, rs []Table2Row) {
		if len(rs) == 0 {
			return
		}
		vals := make([]interface{}, 0, 17)
		vals = append(vals, label)
		for m := 0; m < 8; m++ {
			var f, c float64
			for _, r := range rs {
				f += r.F[m]
				c += r.C[m]
			}
			vals = append(vals, report.Ratio(f/float64(len(rs))), report.Ratio(c/float64(len(rs))))
		}
		t.AddSeparator()
		t.AddRow(vals...)
	}
	var ints, fps []Table2Row
	for _, r := range rows {
		vals := make([]interface{}, 0, 17)
		vals = append(vals, r.Name)
		for m := 0; m < 8; m++ {
			vals = append(vals, report.Ratio(r.F[m]), report.Ratio(r.C[m]))
		}
		t.AddRow(vals...)
		if r.Class == workload.CINT {
			ints = append(ints, r)
		} else {
			fps = append(fps, r)
		}
	}
	addAvg("CINT avg", ints)
	addAvg("CFP avg", fps)
	addAvg("Suite avg", rows)
	t.Render(w)
}

// --- Table 3: CCT statistics ---

// Table3Row is one benchmark's CCT shape (built with per-path counters in
// the records, as the paper's Table 3 measures).
type Table3Row struct {
	Name  string
	Stats cct.Stats
}

// Table3 builds the combined flow+context CCT for every workload.
func (s *Session) Table3() ([]Table3Row, error) {
	if _, err := s.runSuite(instrument.ModeContextFlow); err != nil {
		return nil, err
	}
	var rows []Table3Row
	for _, w := range s.Workloads {
		cell, err := s.Run(w, instrument.ModeContextFlow, StandardEvents[0], StandardEvents[1])
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table3Row{Name: w.Name, Stats: cell.Tree.ComputeStats()})
	}
	return rows, nil
}

// RenderTable3 writes the Table 3 report.
func RenderTable3(rows []Table3Row, w io.Writer) {
	cells := make([][]string, len(rows))
	for i, r := range rows {
		cells[i] = Table3Cells(r)
	}
	Table3Of(cells).Render(w)
}

// Table3Cells formats one Table 3 row.
func Table3Cells(r Table3Row) []string {
	st := r.Stats
	return []string{r.Name, report.SI(st.SizeBytes), strconv.Itoa(st.Nodes),
		oneDecimal(st.AvgNodeSize), oneDecimal(st.AvgOutDegree),
		oneDecimal(st.AvgHeight), strconv.Itoa(st.MaxHeight), strconv.Itoa(st.MaxReplication),
		strconv.Itoa(st.CallSitesTotal), strconv.Itoa(st.CallSitesUsed), strconv.Itoa(st.OnePathSites)}
}

// Table3Of is Table 3 over rows formatted by Table3Cells.
func Table3Of(rows [][]string) *report.Table {
	return &report.Table{
		Title: "Table 3: Calling context tree statistics (CCT with intraprocedural path tables in the records)",
		Cols: []string{"Benchmark", "Size(B)", "Nodes", "AvgNode(B)", "AvgOutDeg",
			"HtAvg", "HtMax", "MaxRepl", "Sites", "Used", "OnePath"},
		Note: "Size is the simulated profile heap (records + lists). Height is bounded by the " +
			"number of procedures; Max Replication is the most records any one procedure has. " +
			"One Path counts used call sites reached by exactly one intraprocedural path, where " +
			"flow+context profiling equals full interprocedural path profiling.",
		Rows: rows,
	}
}

// --- Tables 4 and 5: hot paths and hot procedures ---

// Table4Result pairs the standard-threshold report with an optional
// low-threshold rerun for path-rich programs.
type Table4Result struct {
	Name string
	Std  analysis.PathReport
	Low  *analysis.PathReport // non-nil when the 1% threshold covers poorly
}

// Table4 classifies each workload's paths by D-cache misses.
func (s *Session) Table4() ([]Table4Result, error) {
	if _, err := s.runSuite(instrument.ModePathHW); err != nil {
		return nil, err
	}
	var out []Table4Result
	for _, w := range s.Workloads {
		cell, err := s.Run(w, instrument.ModePathHW, StandardEvents[0], StandardEvents[1])
		if err != nil {
			return nil, err
		}
		out = append(out, Table4FromProfile(w.Name, cell.Profile))
	}
	return out, nil
}

// Table4FromProfile classifies one flow+HW profile exactly as Table4 does:
// the standard 1% threshold, with a 0.1% rerun when the hot paths cover
// less than half the misses (the paper's go/gcc adjustment). The collection
// daemon renders Table 4 rows from merged profiles through this helper.
func Table4FromProfile(name string, p *profile.Profile) Table4Result {
	res := Table4Result{Name: name, Std: analysis.ClassifyPaths(p, analysis.DefaultHotThreshold)}
	if res.Std.Hot.MissFrac(res.Std.TotalMisses) < 0.5 {
		low := analysis.ClassifyPaths(p, analysis.LowHotThreshold)
		res.Low = &low
	}
	return res
}

// RenderTable4 writes the Table 4 report.
func RenderTable4(results []Table4Result, w io.Writer) {
	var cells [][]string
	for _, res := range results {
		cells = append(cells, Table4Cells(res)...)
	}
	Table4Of(cells).Render(w)
}

// Table4Cells formats one result's Table 4 rows: the standard row, then
// the @0.1% row when Low is set.
func Table4Cells(res Table4Result) [][]string {
	rows := [][]string{table4Row(res.Name, res.Std)}
	if res.Low != nil {
		rows = append(rows, table4Row(res.Name+" @0.1%", *res.Low))
	}
	return rows
}

// table4Row formats r as one Table 4 row headed name.
func table4Row(name string, r analysis.PathReport) []string {
	return []string{name, strconv.Itoa(r.NumPaths), report.SI(r.TotalInsts), report.SI(r.TotalMisses),
		strconv.Itoa(r.Hot.Num), report.Pct(r.Hot.InstFrac(r.TotalInsts)), report.Pct(r.Hot.MissFrac(r.TotalMisses)),
		strconv.Itoa(r.Dense.Num), report.Pct(r.Dense.MissFrac(r.TotalMisses)),
		strconv.Itoa(r.Sparse.Num), report.Pct(r.Sparse.MissFrac(r.TotalMisses)),
		strconv.Itoa(r.Cold.Num), report.Pct(r.Cold.MissFrac(r.TotalMisses))}
}

// Table4Of is Table 4 over rows formatted by Table4Cells.
func Table4Of(rows [][]string) *report.Table {
	return &report.Table{
		Title: "Table 4: L1 data cache misses by path (hot >= 1% of misses; dense = above-average miss ratio)",
		Cols: []string{"Benchmark", "Paths", "Insts", "Misses",
			"Hot#", "HotInst", "HotMiss", "Dense#", "DnsMiss", "Sparse#", "SprMiss", "Cold#", "ColdMiss"},
		Note: "Rows marked @0.1% rerun the classification at the paper's reduced threshold for " +
			"path-rich programs. (Paper: 3-28 hot paths cover 59-98% of misses except 099.go and " +
			"126.gcc, which need the 0.1% threshold.)",
		Rows: rows,
	}
}

// Table5 classifies procedures by D-cache misses.
func (s *Session) Table5() ([]analysis.ProcReport, error) {
	if _, err := s.runSuite(instrument.ModePathHW); err != nil {
		return nil, err
	}
	var out []analysis.ProcReport
	for _, w := range s.Workloads {
		cell, err := s.Run(w, instrument.ModePathHW, StandardEvents[0], StandardEvents[1])
		if err != nil {
			return nil, err
		}
		out = append(out, analysis.ClassifyProcs(cell.Profile, analysis.DefaultHotThreshold))
	}
	return out, nil
}

// RenderTable5 writes the Table 5 report.
func RenderTable5(reports []analysis.ProcReport, w io.Writer) {
	cells := make([][]string, len(reports))
	for i, r := range reports {
		cells[i] = Table5Cells(r)
	}
	Table5Of(cells).Render(w)
}

// Table5Cells formats one Table 5 row.
func Table5Cells(r analysis.ProcReport) []string {
	return []string{r.Program,
		strconv.Itoa(r.Hot.Num), oneDecimal(r.Hot.PathsPerProc), report.Pct(frac(r.Hot.Misses, r.TotalMisses)),
		strconv.Itoa(r.Dense.Num), oneDecimal(r.Dense.PathsPerProc), report.Pct(frac(r.Dense.Misses, r.TotalMisses)),
		strconv.Itoa(r.Sparse.Num), oneDecimal(r.Sparse.PathsPerProc), report.Pct(frac(r.Sparse.Misses, r.TotalMisses)),
		strconv.Itoa(r.Cold.Num), oneDecimal(r.Cold.PathsPerProc), report.Pct(frac(r.Cold.Misses, r.TotalMisses))}
}

// Table5Of is Table 5 over rows formatted by Table5Cells.
func Table5Of(rows [][]string) *report.Table {
	return &report.Table{
		Title: "Table 5: L1 data cache misses per procedure (hot >= 1% of misses)",
		Cols: []string{"Benchmark", "Hot#", "Path/Proc", "Misses",
			"Dense#", "DnsPath/Proc", "DnsMiss", "Sparse#", "SprPath/Proc", "SprMiss",
			"Cold#", "ColdPath/Proc", "ColdMiss"},
		Note: "Path/Proc is the average number of executed paths per procedure in the class. " +
			"(Paper: hot procedures execute roughly ten times as many paths as cold ones and " +
			"cover 44-99% of misses.)",
		Rows: rows,
	}
}

// oneDecimal formats x as %.1f does.
func oneDecimal(x float64) string { return strconv.FormatFloat(x, 'f', 1, 64) }

func frac(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// MultiplicityRow is the Section 6.4.3 statement-level argument: blocks on
// hot paths execute along many distinct paths, so block-level metric
// attribution cannot isolate the behaviour.
type MultiplicityRow struct {
	Name   string
	Report analysis.MultiplicityReport
}

// Multiplicity computes block-path multiplicity from the flow+HW profiles.
func (s *Session) Multiplicity() ([]MultiplicityRow, error) {
	if _, err := s.runSuite(instrument.ModePathHW); err != nil {
		return nil, err
	}
	var rows []MultiplicityRow
	for _, w := range s.Workloads {
		cell, err := s.Run(w, instrument.ModePathHW, StandardEvents[0], StandardEvents[1])
		if err != nil {
			return nil, err
		}
		numberings := map[int]*bl.Numbering{}
		for _, pp := range cell.Plan.Procs {
			if pp.Numbering != nil {
				numberings[pp.ProcID] = pp.Numbering
			}
		}
		rows = append(rows, MultiplicityRow{
			Name:   w.Name,
			Report: analysis.BlockMultiplicity(cell.Profile, numberings, analysis.DefaultHotThreshold),
		})
	}
	return rows, nil
}

// RenderMultiplicity writes the block-path multiplicity summary.
func RenderMultiplicity(rows []MultiplicityRow, w io.Writer) {
	t := &report.Table{
		Title: "Block-path multiplicity (Section 6.4.3: why statement-level attribution fails)",
		Cols:  []string{"Benchmark", "HotBlocks", "Paths/HotBlock", "Paths/Block", "Max"},
		Note: "Paths/HotBlock is the average number of distinct executed paths containing each " +
			"basic block that lies on a hot path. (Paper: basic blocks along hot paths execute " +
			"along an average of 16 different paths, so block- or statement-level miss counts " +
			"cannot isolate the behaviour that path profiles expose.)",
	}
	for _, r := range rows {
		t.AddRow(r.Name, r.Report.HotBlocks,
			fmt.Sprintf("%.1f", r.Report.HotBlockAvg),
			fmt.Sprintf("%.1f", r.Report.AllBlockAvg),
			r.Report.MaxMultiplicity)
	}
	t.Render(w)
}

// Table1ExtRow extends the overhead comparison with the profiling styles
// the paper positions path profiling against: qpt-style edge counting
// (cheaper, less informative) and statement-level block metrics (far more
// expensive, Section 6.4.3).
type Table1ExtRow struct {
	Name       string
	Class      workload.Class
	BaseCycles uint64
	EdgeCount  uint64
	PathFreq   uint64
	BlockHW    uint64
}

// Table1Ext measures the extended overhead spectrum.
func (s *Session) Table1Ext() ([]Table1ExtRow, error) {
	var specs []CellSpec
	for _, w := range s.Workloads {
		for _, mode := range []instrument.Mode{
			instrument.ModeNone, instrument.ModeEdgeCount,
			instrument.ModePathFreq, instrument.ModeBlockHW,
		} {
			specs = append(specs, CellSpec{Workload: w, Mode: mode, Events: standardSet()})
		}
	}
	if _, err := s.RunAll(context.Background(), specs); err != nil {
		return nil, err
	}
	var rows []Table1ExtRow
	for _, w := range s.Workloads {
		base, err := s.Run(w, instrument.ModeNone, StandardEvents[0], StandardEvents[1])
		if err != nil {
			return nil, err
		}
		edge, err := s.Run(w, instrument.ModeEdgeCount, StandardEvents[0], StandardEvents[1])
		if err != nil {
			return nil, err
		}
		pf, err := s.Run(w, instrument.ModePathFreq, StandardEvents[0], StandardEvents[1])
		if err != nil {
			return nil, err
		}
		blk, err := s.Run(w, instrument.ModeBlockHW, StandardEvents[0], StandardEvents[1])
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table1ExtRow{
			Name: w.Name, Class: w.Class,
			BaseCycles: base.Result.Cycles,
			EdgeCount:  edge.Result.Cycles,
			PathFreq:   pf.Result.Cycles,
			BlockHW:    blk.Result.Cycles,
		})
	}
	return rows, nil
}

// RenderTable1Ext writes the extended overhead report.
func RenderTable1Ext(rows []Table1ExtRow, w io.Writer) {
	t := &report.Table{
		Title: "Table 1b (extension): the profiling-granularity overhead spectrum",
		Cols:  []string{"Benchmark", "Edge x", "PathFreq x", "Block+HW x"},
		Note: "Edge counting is the qpt baseline ([BL94]; the paper reports path profiling at " +
			"roughly twice its overhead); per-block hardware metrics are the statement-level " +
			"attribution Section 6.4.3 calls far more expensive than path profiling.",
	}
	var e, p, bk float64
	for _, r := range rows {
		base := float64(r.BaseCycles)
		eo, po, bo := float64(r.EdgeCount)/base, float64(r.PathFreq)/base, float64(r.BlockHW)/base
		e += eo
		p += po
		bk += bo
		t.AddRow(r.Name, report.Ratio(eo), report.Ratio(po), report.Ratio(bo))
	}
	n := float64(len(rows))
	if n > 0 {
		t.AddSeparator()
		t.AddRow("Suite avg", report.Ratio(e/n), report.Ratio(p/n), report.Ratio(bk/n))
	}
	t.Render(w)
}
