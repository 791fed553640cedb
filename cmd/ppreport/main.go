// Command ppreport analyzes saved runs: wire-v3 frames written by cmd/pp
// -out (or by ppreport -out). It folds every frame named by -in through
// the aggregate fold the collector uses (package agg), so runs of the
// same program merge, and reports each program in the result: its path
// profile's Table 4/5-style classifications (or, with -sweep, a hot-path
// threshold sweep) and its calling context tree's shape and hottest
// records.
//
// Usage:
//
//	ppreport -in run.frame [-threshold 0.01] [-top 15]
//	ppreport -in a.frame,b.frame -out merged.frame
//	ppreport -in run.frame -sweep
package main

import (
	"cmp"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"slices"
	"strings"

	"pathprof/internal/agg"
	"pathprof/internal/analysis"
	"pathprof/internal/cct"
	"pathprof/internal/profile"
	"pathprof/internal/report"
	"pathprof/internal/wire"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ppreport: ")

	in := flag.String("in", "", "comma-separated saved runs to merge and analyze (frames from pp -out or ppreport -out)")
	out := flag.String("out", "", "write the merged runs to this frame instead of reporting")
	threshold := flag.Float64("threshold", analysis.DefaultHotThreshold, "hot-path miss threshold")
	top := flag.Int("top", 15, "hot paths to list")
	sweep := flag.Bool("sweep", false, "sweep thresholds 10%..0.1% and report coverage")
	flag.Parse()

	if *in == "" {
		flag.Usage()
		os.Exit(2)
	}
	paths := strings.Split(*in, ",")
	set, err := load(paths)
	if err != nil {
		log.Fatal(err)
	}
	if *out != "" {
		data, err := encode(set)
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%d programs from %d frames written to %s\n", len(programs(set)), len(paths), *out)
		return
	}
	for i, name := range programs(set) {
		if i > 0 {
			fmt.Println()
		}
		if a, ok := set.Profiles[name]; ok {
			reportProfile(os.Stdout, a.Materialize(), *threshold, *top, *sweep)
		}
		if a, ok := set.CCTs[name]; ok {
			reportCCT(os.Stdout, a.Snapshot())
		}
	}
}

// load folds the frames at paths, in order, into one aggregate set.
func load(paths []string) (*agg.Set, error) {
	set := &agg.Set{}
	var sc agg.Scratch
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		if err := set.FoldFrame(&sc, data); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
	}
	return set, nil
}

// encode writes every program of set into one frame, in program order,
// its profile before its CCT.
func encode(set *agg.Set) ([]byte, error) {
	bw := wire.NewBatchWriter()
	for _, name := range programs(set) {
		if a, ok := set.Profiles[name]; ok {
			if err := bw.AddProfile(a.Materialize()); err != nil {
				return nil, err
			}
		}
		if a, ok := set.CCTs[name]; ok {
			if err := bw.AddExport(a.Snapshot()); err != nil {
				return nil, err
			}
		}
	}
	return bw.Frame(), nil
}

// programs returns every program set holds an aggregate of, sorted.
func programs(set *agg.Set) []string {
	var names []string
	for name := range set.Profiles {
		names = append(names, name)
	}
	for name := range set.CCTs {
		if _, ok := set.Profiles[name]; !ok {
			names = append(names, name)
		}
	}
	slices.Sort(names)
	return names
}

// reportProfile prints a path profile's totals and either its path and
// procedure classifications at threshold or a threshold sweep. A
// frequency-only profile (path-freq, or combined mode's flow projection)
// names no events and has no metric to classify by: its paths are listed
// by frequency instead, as pp lists them.
func reportProfile(w io.Writer, prof *profile.Profile, threshold float64, top int, sweep bool) {
	freq, metrics := prof.Totals()
	if len(prof.Events) == 0 {
		fmt.Fprintf(w, "profile %s (%s), frequency only\n", prof.Program, prof.Mode)
		fmt.Fprintf(w, "%d procedures, %d executed paths, %d path executions\n\n",
			len(prof.Procs), prof.TotalExecutedPaths(), freq)
		rows := analysis.PathsByFrequency(prof, top)
		t := &report.Table{
			Title: fmt.Sprintf("Top %d paths by frequency", len(rows)),
			Cols:  []string{"Proc", "PathID", "Freq"},
		}
		for _, p := range rows {
			t.AddRow(p.Proc, p.Sum, p.Freq)
		}
		t.Render(w)
		return
	}
	fmt.Fprintf(w, "profile %s (%s), events %s\n", prof.Program, prof.Mode, strings.Join(prof.Events, "/"))
	totals := make([]string, len(metrics))
	for i, m := range metrics {
		totals[i] = fmt.Sprint(m)
	}
	fmt.Fprintf(w, "%d procedures, %d executed paths, %d path executions, %s metric totals\n\n",
		len(prof.Procs), prof.TotalExecutedPaths(), freq, strings.Join(totals, "/"))

	if sweep {
		t := &report.Table{
			Title: "Hot-path threshold sweep",
			Cols:  []string{"Threshold", "Hot paths", "Miss coverage", "Inst coverage"},
		}
		for _, th := range []float64{0.10, 0.05, 0.02, 0.01, 0.005, 0.002, 0.001} {
			r := analysis.ClassifyPaths(prof, th)
			t.AddRow(report.Pct(th), r.Hot.Num,
				report.Pct(r.Hot.MissFrac(r.TotalMisses)),
				report.Pct(r.Hot.InstFrac(r.TotalInsts)))
		}
		t.Render(w)
		return
	}

	rep := analysis.ClassifyPaths(prof, threshold)
	t := &report.Table{
		Title: fmt.Sprintf("Path classification at %s (dense = above-average miss ratio %.5f)",
			report.Pct(threshold), rep.AvgRatio),
		Cols: []string{"Class", "Paths", "Insts", "Misses", "MissShare"},
	}
	add := func(name string, c analysis.ClassTotals) {
		t.AddRow(name, c.Num, report.SI(c.Insts), report.SI(c.Misses),
			report.Pct(c.MissFrac(rep.TotalMisses)))
	}
	add("hot", rep.Hot)
	add("  dense", rep.Dense)
	add("  sparse", rep.Sparse)
	add("cold", rep.Cold)
	t.Render(w)

	t2 := &report.Table{
		Title: fmt.Sprintf("Top %d hot paths", min(top, len(rep.HotPaths))),
		Cols:  []string{"Proc", "PathID", "Freq", "M0", "M1", "M0/M1"},
	}
	for i, p := range rep.HotPaths {
		if i >= top {
			break
		}
		t2.AddRow(p.Proc, p.Sum, p.Freq, p.Misses, p.Insts, fmt.Sprintf("%.4f", p.MissRatio()))
	}
	t2.Render(w)

	pr := analysis.ClassifyProcs(prof, threshold)
	t3 := &report.Table{
		Title: "Procedure classification",
		Cols:  []string{"Class", "Procs", "Paths/Proc", "MissShare"},
	}
	addP := func(name string, c analysis.ProcClass) {
		t3.AddRow(name, c.Num, fmt.Sprintf("%.1f", c.PathsPerProc),
			report.Pct(frac(c.Misses, pr.TotalMisses)))
	}
	addP("hot", pr.Hot)
	addP("  dense", pr.Dense)
	addP("  sparse", pr.Sparse)
	addP("cold", pr.Cold)
	t3.Render(w)
}

// reportCCT prints a calling context tree's shape and its records with
// the highest metric slot 1 (the PIC0 delta), or with the most calls when
// slot 1 is 0 in every record, as in combined mode's trees.
func reportCCT(w io.Writer, ex *cct.Export) {
	st := ex.Stats()
	fmt.Fprintf(w, "calling context tree of %s: %d procedures declared, %d records\n", ex.Program, ex.NumProcs, st.Nodes)
	fmt.Fprintf(w, "height: avg %.1f max %d; avg out-degree %.1f; max replication %d\n",
		st.AvgHeight, st.MaxHeight, st.AvgOutDegree, st.MaxReplication)

	type row struct {
		id    int
		m     int64
		calls int64
	}
	var rows []row
	byCalls := true
	for id, n := range ex.Nodes {
		if id == 0 || len(n.Metrics) == 0 {
			continue
		}
		r := row{id: id, calls: n.Metrics[0]}
		if len(n.Metrics) > 1 {
			r.m = n.Metrics[1]
		}
		byCalls = byCalls && r.m == 0
		rows = append(rows, r)
	}
	key := func(r row) int64 { return r.m }
	t := &report.Table{
		Title: "Records by metric slot 1",
		Cols:  []string{"Node", "Proc", "Calls", "Metric1", "Paths"},
	}
	if byCalls {
		key = func(r row) int64 { return r.calls }
		t = &report.Table{Title: "Records by calls", Cols: []string{"Node", "Proc", "Calls", "Paths"}}
	}
	slices.SortFunc(rows, func(a, b row) int {
		// rows come from map iteration; break ties by node ID so the
		// listing is fully determined.
		if c := cmp.Compare(key(b), key(a)); c != 0 {
			return c
		}
		return cmp.Compare(a.id, b.id)
	})
	for i, r := range rows {
		if i >= 12 {
			break
		}
		n := ex.Nodes[r.id]
		if byCalls {
			t.AddRow(r.id, n.Proc, r.calls, n.PathCounts.Len())
		} else {
			t.AddRow(r.id, n.Proc, r.calls, r.m, n.PathCounts.Len())
		}
	}
	t.Render(w)
}

func frac(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
