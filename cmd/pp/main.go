// Command pp is the path profiler tool (the repository's analogue of the
// paper's PP): it instruments one or more workloads, runs them on the
// simulated machine, and reports flow sensitive and/or context sensitive
// profiles, including regenerated hot-path block sequences.
//
// Usage:
//
//	pp -workload compress[,go,...] [-mode flow|flowhw|context|combined|edge]
//	   [-scale ref|test] [-events dcache-miss,insts] [-top 10]
//	   [-out run.frame] [-cct] [-parallel N]
//	   [-optimize] [-dot procname]
//
// -out saves the run: every named workload's path profile and calling
// context tree (whichever the mode collects) go into one wire-v3 frame,
// the paper's program-exit file. cmd/ppreport reloads such frames and
// merges the runs they hold.
//
// -optimize closes the profiling loop: each workload is profiled,
// rewritten by the profile-guided optimizer (internal/pgo), verified
// behaviorally equivalent, and re-measured; the report lists every
// candidate option set and the winning rewrite's deltas. -dot writes the
// named procedure's CFG as Graphviz DOT with blocks shaded by measured
// execution frequency and hot branch edges (taken probability >= 0.5)
// highlighted.
//
// -events takes any number of comma-separated event names (the metric
// schema); instrumented runs get a counter bank as wide as the set, and
// every profile column is labelled with its event name.
//
// Runs go through the concurrent experiment engine: with several
// workloads, simulations execute on a bounded worker pool (-parallel, 0 =
// GOMAXPROCS) while reports are printed in the order the workloads were
// named.
package main

import (
	"cmp"
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"slices"
	"strings"

	"pathprof/internal/analysis"
	"pathprof/internal/bl"
	"pathprof/internal/cct"
	"pathprof/internal/experiments"
	"pathprof/internal/hpm"
	"pathprof/internal/instrument"
	"pathprof/internal/ir"
	"pathprof/internal/pgo"
	"pathprof/internal/report"
	"pathprof/internal/sim"
	"pathprof/internal/wire"
	"pathprof/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("pp: ")

	names := flag.String("workload", "", "comma-separated workloads to profile (see cmd/specgen -list)")
	modeStr := flag.String("mode", "flowhw", "flow | flowhw | context | combined | edge | block")
	scaleStr := flag.String("scale", "test", "workload scale: ref or test")
	events := flag.String("events", "dcache-miss,insts", "comma-separated event selection (any number of names)")
	top := flag.Int("top", 10, "hot paths to list")
	out := flag.String("out", "", "save every workload's profile and calling context tree to this frame (read by ppreport)")
	showCCT := flag.Bool("cct", false, "print calling context tree statistics")
	cctDump := flag.Bool("cctdump", false, "print the calling context tree as an indented listing")
	parallel := flag.Int("parallel", 0, "worker pool size for multi-workload runs (0 = GOMAXPROCS)")
	optimize := flag.Bool("optimize", false, "profile, optimize and re-measure each workload (the PGO round trip)")
	dotProc := flag.String("dot", "", "write a profile-annotated DOT graph of the named procedure to stdout")
	k := flag.Int("k", 1, "path iteration degree: ids span up to k loop iterations (path modes)")
	flag.Parse()

	if *names == "" {
		log.Fatal("no workload given (try -workload compress)")
	}
	var suite []workload.Workload
	for _, name := range strings.Split(*names, ",") {
		w, ok := workload.ByName(strings.TrimSpace(name))
		if !ok {
			log.Fatalf("unknown workload %q (try cmd/specgen -list)", name)
		}
		suite = append(suite, w)
	}
	scale := workload.Test
	if *scaleStr == "ref" {
		scale = workload.Ref
	}
	var mode instrument.Mode
	switch *modeStr {
	case "flow":
		mode = instrument.ModePathFreq
	case "flowhw":
		mode = instrument.ModePathHW
	case "context":
		mode = instrument.ModeContextHW
	case "combined":
		mode = instrument.ModeContextFlow
	case "edge":
		mode = instrument.ModeEdgeCount
	case "block":
		mode = instrument.ModeBlockHW
	default:
		log.Fatalf("unknown mode %q", *modeStr)
	}

	set, err := hpm.ParseMetricSet(*events)
	if err != nil {
		log.Fatal(err)
	}

	s := experiments.NewSession(scale)
	s.Workloads = suite
	s.Parallel = *parallel
	s.K = *k

	if *dotProc != "" {
		dotReport(suite, scale, *dotProc)
		return
	}
	if *optimize {
		optimizeReport(s, suite)
		return
	}
	specs := make([]experiments.CellSpec, len(suite))
	for i, w := range suite {
		specs[i] = experiments.CellSpec{Workload: w, Mode: mode, Events: set}
	}
	cells, err := s.RunAll(context.Background(), specs)
	if err != nil {
		log.Fatal(err)
	}

	for i, w := range suite {
		if i > 0 {
			fmt.Println()
		}
		reportWorkload(w, mode, set, cells[i], *top, *showCCT, *cctDump)
	}
	if *out != "" {
		save(*out, suite, cells)
	}
}

// save writes every cell's profile and calling context tree into one
// frame at path.
func save(path string, suite []workload.Workload, cells []*experiments.Cell) {
	bw := wire.NewBatchWriter()
	for i, cell := range cells {
		if cell.Profile != nil {
			if err := bw.AddProfile(cell.Profile); err != nil {
				log.Fatal(err)
			}
		}
		if cell.Tree != nil {
			if err := bw.AddExport(cell.Tree.Export(suite[i].Name)); err != nil {
				log.Fatal(err)
			}
		}
	}
	if err := os.WriteFile(path, bw.Frame(), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%d profiles and calling context trees written to %s\n", bw.Items(), path)
}

// optimizeReport runs the full PGO round trip on every named workload and
// prints the before/after comparison plus each candidate's measurements.
func optimizeReport(s *experiments.Session, suite []workload.Workload) {
	var recs []experiments.PGORecord
	for _, w := range suite {
		prog := w.Build(s.Scale)
		res, err := pgo.RoundTrip(prog, s.SimConfig, pgo.DefaultOptions())
		if err != nil {
			log.Fatal(err)
		}
		rec := experiments.PGORecord{
			Workload:      w.Name,
			Winner:        res.Winner,
			Before:        res.Before,
			After:         res.After,
			ProfileBefore: res.ProfileBefore,
			ProfileAfter:  res.ProfileAfter,
			Transforms:    "none (identity)",
		}
		if res.Stats != nil {
			rec.Transforms = res.Stats.String()
		}
		recs = append(recs, rec)

		fmt.Printf("workload %s: candidates\n", w.Name)
		t := &report.Table{Cols: []string{"Candidate", "Cycles", "Instrs", "IMiss", "Mispredict", "Transforms"}}
		t.AddRow("baseline", res.Before.Cycles, res.Before.Instrs,
			res.Before.ICacheMiss, res.Before.Mispredicts, "-")
		for _, c := range res.Candidates {
			t.AddRow(c.Name, c.Metrics.Cycles, c.Metrics.Instrs,
				c.Metrics.ICacheMiss, c.Metrics.Mispredicts, c.Stats.String())
		}
		t.Render(os.Stdout)
		fmt.Printf("re-profile (path-frequency instrumented cycles): %d -> %d\n\n",
			res.ProfileBefore, res.ProfileAfter)
	}
	experiments.RenderPGO(recs, os.Stdout)
}

// dotReport acquires a profile for each workload and writes the named
// procedure's CFG as DOT, blocks shaded by execution frequency and hot
// branch edges highlighted.
func dotReport(suite []workload.Workload, scale workload.Scale, procName string) {
	found := false
	for _, w := range suite {
		prog := w.Build(scale)
		p := prog.ProcByName(procName)
		if p == nil {
			continue
		}
		found = true
		data, err := pgo.Acquire(prog, sim.DefaultConfig())
		if err != nil {
			log.Fatal(err)
		}
		var ef analysis.EdgeFreq
		if p.ID < len(data.Edges) {
			ef = data.Edges[p.ID]
		}
		ir.FprintDotAnnotated(os.Stdout, p, analysis.HeatAnnotations(p, ef))
	}
	if !found {
		log.Fatalf("no procedure %q in the selected workloads", procName)
	}
}

// reportWorkload prints one workload's profile report from its cached cell.
func reportWorkload(w workload.Workload, mode instrument.Mode, set hpm.MetricSet,
	cell *experiments.Cell, top int, showCCT bool, cctDump bool) {
	res := cell.Result
	plan := cell.Plan

	fmt.Printf("workload %s (%s analogue), mode %v, events %s\n",
		w.Name, w.Analogue, mode, set)
	fmt.Printf("run: %d instructions, %d cycles, %d L1D misses, %d I-misses\n\n",
		res.Instrs, res.Cycles, res.Totals[hpm.EvDCacheMiss], res.Totals[hpm.EvICacheMiss])

	if mode.UsesPaths() || mode == instrument.ModePathHW || mode == instrument.ModeBlockHW {
		prof := cell.Profile
		numberings := map[int]*bl.Numbering{}
		for _, pp := range plan.Procs {
			if pp.Numbering != nil {
				numberings[pp.ProcID] = pp.Numbering
			}
		}
		rep := analysis.ClassifyPaths(prof, analysis.DefaultHotThreshold)
		if rep.TotalMisses > 0 {
			fmt.Printf("executed paths: %d; hot paths (>=1%% of misses): %d covering %s of misses\n\n",
				rep.NumPaths, rep.Hot.Num, report.Pct(rep.Hot.MissFrac(rep.TotalMisses)))
			listings := analysis.ResolveHotPaths(rep, numberings, top)
			slotName := func(i int) string {
				if i < len(prof.Events) {
					return prof.Events[i]
				}
				return fmt.Sprintf("m%d", i)
			}
			t := &report.Table{
				Title: fmt.Sprintf("Top %d hot paths", len(listings)),
				Cols:  []string{"Proc", "PathID", "Freq", slotName(0), slotName(1), "Ratio", "Blocks"},
			}
			for _, l := range listings {
				t.AddRow(l.Stat.Proc, l.Stat.Sum, l.Stat.Freq, l.Stat.Misses, l.Stat.Insts,
					fmt.Sprintf("%.4f", l.Stat.MissRatio()), l.Path.String())
			}
			t.Render(os.Stdout)
		} else {
			// Frequency-only profile (e.g. combined mode): list by count.
			fmt.Printf("executed paths: %d (frequency-only profile)\n\n", rep.NumPaths)
			type row struct {
				proc string
				sum  int64
				freq uint64
			}
			var rows []row
			for _, pp := range prof.Procs {
				for _, e := range pp.Entries {
					rows = append(rows, row{pp.Name, e.Sum, e.Freq})
				}
			}
			slices.SortFunc(rows, func(a, b row) int {
				if c := cmp.Compare(b.freq, a.freq); c != 0 {
					return c
				}
				if c := cmp.Compare(a.proc, b.proc); c != 0 {
					return c
				}
				return cmp.Compare(a.sum, b.sum)
			})
			if len(rows) > top {
				rows = rows[:top]
			}
			t := &report.Table{
				Title: fmt.Sprintf("Top %d paths by frequency", len(rows)),
				Cols:  []string{"Proc", "PathID", "Freq", "Blocks"},
			}
			for _, r := range rows {
				blocks := ""
				for _, pp := range plan.Procs {
					if pp.Name == r.proc && pp.Numbering != nil {
						if p, err := pp.Numbering.RegenerateK(r.sum); err == nil {
							blocks = p.String()
						}
					}
				}
				t.AddRow(r.proc, r.sum, r.freq, blocks)
			}
			t.Render(os.Stdout)
		}
	}

	if cell.Tree != nil && (showCCT || mode == instrument.ModeContextHW) {
		st := cell.Tree.ComputeStats()
		fmt.Printf("CCT: %d records, %d bytes, height max %d, max replication %d\n",
			st.Nodes, st.SizeBytes, st.MaxHeight, st.MaxReplication)
		if mode == instrument.ModeContextHW {
			printTopContexts(cell.Tree, plan, top)
		}
	}
	if cell.Tree != nil && cctDump {
		cell.Tree.Dump(os.Stdout, func(id int) string {
			if id < 0 || id >= len(plan.Prog.Procs) {
				return "T"
			}
			return plan.Prog.Procs[id].Name
		})
	}
}

// printTopContexts lists the calling contexts with the highest recorded
// PIC0 metric.
func printTopContexts(tree *cct.Tree, plan *instrument.Plan, top int) {
	type ctxRow struct {
		path   string
		m0, m1 int64
		calls  int64
	}
	var rows []ctxRow
	tree.Walk(func(n *cct.Node) {
		if len(n.Metrics) < 3 {
			return
		}
		var parts []string
		for a := n; a != nil && a.Proc >= 0; a = a.Parent {
			parts = append([]string{plan.Prog.Procs[a.Proc].Name}, parts...)
		}
		rows = append(rows, ctxRow{
			path:  strings.Join(parts, "→"),
			calls: n.Metrics[0], m0: n.Metrics[1], m1: n.Metrics[2],
		})
	})
	for i := 0; i < len(rows); i++ {
		for j := i + 1; j < len(rows); j++ {
			if rows[j].m0 > rows[i].m0 {
				rows[i], rows[j] = rows[j], rows[i]
			}
		}
	}
	if len(rows) > top {
		rows = rows[:top]
	}
	t := &report.Table{
		Title: "Hottest calling contexts (by PIC0 metric, inclusive)",
		Cols:  []string{"Calls", "PIC0", "PIC1", "Context"},
	}
	for _, r := range rows {
		t.AddRow(r.calls, r.m0, r.m1, r.path)
	}
	t.Render(os.Stdout)
}
