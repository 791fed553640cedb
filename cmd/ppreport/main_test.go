package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pathprof/internal/experiments"
	"pathprof/internal/hpm"
	"pathprof/internal/instrument"
	"pathprof/internal/wire"
	"pathprof/internal/workload"
)

// saveCombinedRun runs w once in combined (flow+context) mode and saves
// the run's profile and CCT to a frame file the way pp -out does.
func saveCombinedRun(t *testing.T, s *experiments.Session, w workload.Workload, path string) {
	t.Helper()
	cell, err := s.RunFreshSet(context.Background(), w, instrument.ModeContextFlow, hpm.DefaultMetricSet())
	if err != nil {
		t.Fatal(err)
	}
	bw := wire.NewBatchWriter()
	if err := bw.AddProfile(cell.Profile); err != nil {
		t.Fatal(err)
	}
	if err := bw.AddExport(cell.Tree.Export(w.Name)); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, bw.Frame(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestLoadMergesFrames: given a.frame,b.frame, one combined-mode run
// each, the loader reports every count doubled and the tree's shape
// unchanged, and the merged frame -out writes reloads to the same
// aggregates.
func TestLoadMergesFrames(t *testing.T) {
	w, ok := workload.ByName("objdb")
	if !ok {
		t.Fatal("no objdb workload")
	}
	s := experiments.NewSession(workload.Test)
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.frame"), filepath.Join(dir, "b.frame")
	saveCombinedRun(t, s, w, a)
	saveCombinedRun(t, s, w, b)

	one, err := load([]string{a})
	if err != nil {
		t.Fatal(err)
	}
	two, err := load([]string{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if got := programs(two); len(got) != 1 || got[0] != w.Name {
		t.Fatalf("merged programs %v, want [%s]", got, w.Name)
	}

	p1, p2 := one.Profiles[w.Name].Materialize(), two.Profiles[w.Name].Materialize()
	f1, _ := p1.Totals()
	f2, _ := p2.Totals()
	if f1 == 0 || f2 != 2*f1 || p2.TotalExecutedPaths() != p1.TotalExecutedPaths() {
		t.Fatalf("merged profile: %d executions over %d paths, one run %d over %d",
			f2, p2.TotalExecutedPaths(), f1, p1.TotalExecutedPaths())
	}
	x1, x2 := one.CCTs[w.Name].Snapshot(), two.CCTs[w.Name].Snapshot()
	if c1 := x1.TotalMetric(0); c1 == 0 || x2.TotalMetric(0) != 2*c1 || x2.NumNodes() != x1.NumNodes() {
		t.Fatalf("merged CCT: %d calls in %d records, one run %d in %d",
			x2.TotalMetric(0), x2.NumNodes(), c1, x1.NumNodes())
	}

	var rep bytes.Buffer
	reportProfile(&rep, p2, 0.01, 5, false)
	reportCCT(&rep, x2)
	for _, want := range []string{
		fmt.Sprintf("%d path executions", 2*f1),
		fmt.Sprintf("%d procedures declared, %d records", x1.NumProcs, x1.NumNodes()),
	} {
		if !strings.Contains(rep.String(), want) {
			t.Errorf("report misses %q:\n%s", want, rep.String())
		}
	}

	merged, err := encode(two)
	if err != nil {
		t.Fatal(err)
	}
	m := filepath.Join(dir, "m.frame")
	if err := os.WriteFile(m, merged, 0o644); err != nil {
		t.Fatal(err)
	}
	again, err := load([]string{m})
	if err != nil {
		t.Fatal(err)
	}
	reencoded, err := encode(again)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reencoded, merged) {
		t.Fatal("the -out frame reloads to different aggregates")
	}
}

// TestLoadRefusesText: a file that is not a frame, such as the text
// profiles older builds saved, is refused with the frame parser's
// positioned error, naming the file.
func TestLoadRefusesText(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.prof")
	if err := os.WriteFile(path, []byte("profile strhash flow+hw dcache-miss insts\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := load([]string{path})
	if err == nil || !strings.Contains(err.Error(), path+": wire: frame offset 0: bad magic") {
		t.Fatalf("load of a text profile: %v", err)
	}
}
