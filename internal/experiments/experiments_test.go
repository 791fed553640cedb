package experiments

import (
	"strings"
	"testing"

	"pathprof/internal/hpm"
	"pathprof/internal/instrument"
	"pathprof/internal/workload"
)

// subsetSession keeps the tests fast: two contrasting workloads.
func subsetSession(t *testing.T) *Session {
	t.Helper()
	s := NewSession(workload.Test)
	var subset []workload.Workload
	for _, name := range []string{"compress", "mesh"} {
		w, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("missing workload %s", name)
		}
		subset = append(subset, w)
	}
	s.Workloads = subset
	return s
}

func TestTable1Shapes(t *testing.T) {
	s := subsetSession(t)
	rows, err := s.Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		f, c, cf := r.Overheads()
		for name, x := range map[string]float64{"flow+hw": f, "ctx+hw": c, "ctx+flow": cf} {
			if x <= 1.0 || x > 6.0 {
				t.Errorf("%s: %s overhead %v out of plausible range", r.Name, name, x)
			}
		}
	}
	var sb strings.Builder
	RenderTable1(rows, &sb)
	for _, want := range []string{"Table 1", "compress", "mesh", "Suite avg"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestTable2Shapes(t *testing.T) {
	s := subsetSession(t)
	rows, err := s.Table2()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		// Cycle and instruction ratios must show plausible perturbation:
		// at least 1 (instrumentation adds work) and below the overhead cap.
		for _, v := range []float64{r.F[0], r.F[1], r.C[0], r.C[1]} {
			if v < 0.9 || v > 6 {
				t.Errorf("%s: cycles/insts ratio %v out of range", r.Name, v)
			}
		}
	}
	var sb strings.Builder
	RenderTable2(rows, &sb)
	if !strings.Contains(sb.String(), "Cycles F") {
		t.Error("render missing metric columns")
	}
}

func TestTable3Shapes(t *testing.T) {
	s := subsetSession(t)
	rows, err := s.Table3()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		st := r.Stats
		if st.Nodes == 0 || st.SizeBytes == 0 {
			t.Errorf("%s: empty CCT", r.Name)
		}
		if st.CallSitesUsed > st.CallSitesTotal || st.OnePathSites > st.CallSitesUsed {
			t.Errorf("%s: inconsistent call-site stats %+v", r.Name, st)
		}
	}
	var sb strings.Builder
	RenderTable3(rows, &sb)
	if !strings.Contains(sb.String(), "MaxRepl") {
		t.Error("render missing columns")
	}
}

func TestTables4And5Consistent(t *testing.T) {
	s := subsetSession(t)
	t4, err := s.Table4()
	if err != nil {
		t.Fatal(err)
	}
	t5, err := s.Table5()
	if err != nil {
		t.Fatal(err)
	}
	for i, r4 := range t4 {
		std := r4.Std
		if std.Hot.Num+std.Cold.Num != std.NumPaths {
			t.Errorf("%s: hot+cold != all paths", r4.Name)
		}
		if std.Dense.Num+std.Sparse.Num != std.Hot.Num {
			t.Errorf("%s: dense+sparse != hot", r4.Name)
		}
		if std.Hot.Misses+std.Cold.Misses != std.TotalMisses {
			t.Errorf("%s: class misses do not sum", r4.Name)
		}
		// Tables 4 and 5 come from the same profile: total misses agree.
		if t5[i].TotalMisses != std.TotalMisses {
			t.Errorf("%s: Table4 misses %d != Table5 misses %d", r4.Name, std.TotalMisses, t5[i].TotalMisses)
		}
		// The central claim: hot paths concentrate the misses.
		if std.Hot.MissFrac(std.TotalMisses) < 0.5 && r4.Low == nil {
			t.Errorf("%s: poor hot coverage without a low-threshold rerun", r4.Name)
		}
	}
	var sb strings.Builder
	RenderTable4(t4, &sb)
	RenderTable5(t5, &sb)
	if !strings.Contains(sb.String(), "Table 4") || !strings.Contains(sb.String(), "Table 5") {
		t.Error("renders incomplete")
	}
}

func TestSessionCaching(t *testing.T) {
	s := subsetSession(t)
	w := s.Workloads[0]
	c1, err := s.RunSet(w, instrument.ModePathHW, standardSet())
	if err != nil {
		t.Fatal(err)
	}
	c2, err := s.RunSet(w, instrument.ModePathHW, standardSet())
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Fatal("identical cells not cached")
	}
	c3, err := s.RunSet(w, instrument.ModePathHW, hpm.NewMetricSet(PerturbationPairs[0][:]...))
	if err != nil {
		t.Fatal(err)
	}
	if c3 == c1 {
		t.Fatal("different counter selection must not share a cell")
	}
}

// TestContextProfileMatchesRun: the context+HW "recorded" totals (main's
// inclusive deltas) track the instrumented run's own totals closely.
func TestContextProfileMatchesRun(t *testing.T) {
	s := subsetSession(t)
	w := s.Workloads[0]
	cell, err := s.RunSet(w, instrument.ModeContextHW, standardSet())
	if err != nil {
		t.Fatal(err)
	}
	_, ms := cell.Profile.Totals()
	m0, m1 := ms[0], ms[1]
	if m1 == 0 {
		t.Fatal("no instructions recorded")
	}
	runInsts := cell.Result.Instrs
	if m1 > runInsts || m1 < runInsts/2 {
		t.Fatalf("recorded insts %d vs run insts %d", m1, runInsts)
	}
	_ = m0
}

// TestSpectrumShape: the Figure 4 spectrum — DCG smallest, CCT bounded,
// DCT proportional to calls.
func TestSpectrumShape(t *testing.T) {
	s := subsetSession(t)
	w, _ := workload.ByName("objdb")
	s.Workloads = append(s.Workloads, w)
	rows, err := s.Spectrum(500)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if uint64(r.DCTNodes) != r.Calls+1 {
			t.Errorf("%s: DCT nodes %d != calls+1 %d", r.Name, r.DCTNodes, r.Calls+1)
		}
		if r.CCTNodes > r.DCTNodes {
			t.Errorf("%s: CCT (%d) larger than DCT (%d)", r.Name, r.CCTNodes, r.DCTNodes)
		}
		if r.DCGArcs > r.CCTNodes+1 {
			t.Errorf("%s: DCG arcs %d exceed CCT nodes+1 %d", r.Name, r.DCGArcs, r.CCTNodes+1)
		}
	}
	// objdb: heavy call volume makes the DCT far larger than the CCT.
	last := rows[len(rows)-1]
	if last.DCTNodes < 20*last.CCTNodes {
		t.Errorf("objdb: DCT %d not much larger than CCT %d", last.DCTNodes, last.CCTNodes)
	}
	var sb strings.Builder
	RenderSpectrum(rows, &sb)
	if !strings.Contains(sb.String(), "Table 6") {
		t.Error("render missing title")
	}
}

// TestDeterministicRendering: two independent sessions over the same
// workloads render byte-identical tables (the whole stack is deterministic).
func TestDeterministicRendering(t *testing.T) {
	render := func() string {
		s := subsetSession(t)
		var sb strings.Builder
		t1, err := s.Table1()
		if err != nil {
			t.Fatal(err)
		}
		RenderTable1(t1, &sb)
		t4, err := s.Table4()
		if err != nil {
			t.Fatal(err)
		}
		RenderTable4(t4, &sb)
		t3, err := s.Table3()
		if err != nil {
			t.Fatal(err)
		}
		RenderTable3(t3, &sb)
		return sb.String()
	}
	a := render()
	b := render()
	if a != b {
		t.Fatal("experiment rendering is nondeterministic")
	}
}
