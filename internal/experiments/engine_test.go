package experiments

import (
	"context"
	"reflect"
	"strings"
	"sync"
	"testing"

	"pathprof/internal/hpm"
	"pathprof/internal/instrument"
)

// TestRunSetCtxDeduplicates hammers one cell key from many goroutines:
// exactly one simulation may run, and every caller must get the same *Cell.
func TestRunSetCtxDeduplicates(t *testing.T) {
	s := subsetSession(t)
	w := s.Workloads[0]
	const callers = 32
	cells := make([]*Cell, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := s.RunSetCtx(context.Background(), w, instrument.ModePathHW, standardSet())
			if err != nil {
				t.Error(err)
				return
			}
			cells[i] = c
		}(i)
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if cells[i] != cells[0] {
			t.Fatalf("caller %d got a different cell", i)
		}
	}
	if n := len(s.Timings()); n != 1 {
		t.Fatalf("simulated %d cells for one key (dedup failed)", n)
	}
}

// TestRunAllDuplicateSpecs: duplicate specs in one batch resolve to one
// simulation and identical cell pointers, in spec order.
func TestRunAllDuplicateSpecs(t *testing.T) {
	s := subsetSession(t)
	s.Parallel = 8
	spec := CellSpec{Workload: s.Workloads[0], Mode: instrument.ModeContextFlow,
		Events: standardSet()}
	specs := make([]CellSpec, 16)
	for i := range specs {
		specs[i] = spec
	}
	cells, err := s.RunAll(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range cells {
		if c == nil || c != cells[0] {
			t.Fatalf("spec %d: cell not deduplicated", i)
		}
	}
	if n := len(s.Timings()); n != 1 {
		t.Fatalf("simulated %d cells for 16 duplicate specs", n)
	}
}

// renderEverything regenerates every table the CLI can print through one
// session and returns the concatenated rendering.
func renderEverything(t *testing.T, s *Session) string {
	t.Helper()
	var sb strings.Builder
	t1, err := s.Table1()
	if err != nil {
		t.Fatal(err)
	}
	RenderTable1(t1, &sb)
	ext, err := s.Table1Ext()
	if err != nil {
		t.Fatal(err)
	}
	RenderTable1Ext(ext, &sb)
	t2, err := s.Table2()
	if err != nil {
		t.Fatal(err)
	}
	RenderTable2(t2, &sb)
	t3, err := s.Table3()
	if err != nil {
		t.Fatal(err)
	}
	RenderTable3(t3, &sb)
	t4, err := s.Table4()
	if err != nil {
		t.Fatal(err)
	}
	RenderTable4(t4, &sb)
	mult, err := s.Multiplicity()
	if err != nil {
		t.Fatal(err)
	}
	RenderMultiplicity(mult, &sb)
	t5, err := s.Table5()
	if err != nil {
		t.Fatal(err)
	}
	RenderTable5(t5, &sb)
	t6, err := s.Spectrum(2000)
	if err != nil {
		t.Fatal(err)
	}
	RenderSpectrum(t6, &sb)
	return sb.String()
}

// TestParallelRenderingIdentical is the engine's central guarantee: the
// full table suite renders byte-identically at any worker count.
func TestParallelRenderingIdentical(t *testing.T) {
	serial := subsetSession(t)
	serial.Parallel = 1
	wide := subsetSession(t)
	wide.Parallel = 8
	a := renderEverything(t, serial)
	b := renderEverything(t, wide)
	if a != b {
		t.Fatal("parallel rendering differs from serial")
	}
	if len(serial.Timings()) != len(wide.Timings()) {
		t.Fatalf("cell counts differ: serial %d, parallel %d",
			len(serial.Timings()), len(wide.Timings()))
	}
}

// TestRunAllCancelsOnError: a failing cell cancels the batch and surfaces
// its error, not a cancellation error.
func TestRunAllCancelsOnError(t *testing.T) {
	s := subsetSession(t)
	s.Parallel = 4
	s.SimConfig.MaxSteps = 100 // every simulation exhausts its budget
	var specs []CellSpec
	for _, w := range s.Workloads {
		for _, mode := range []instrument.Mode{instrument.ModeNone, instrument.ModePathHW} {
			specs = append(specs, CellSpec{Workload: w, Mode: mode,
				Events: standardSet()})
		}
	}
	cells, err := s.RunAll(context.Background(), specs)
	if err == nil {
		t.Fatal("expected a step-budget error")
	}
	if !strings.Contains(err.Error(), "step budget") {
		t.Fatalf("unexpected error: %v", err)
	}
	if cells != nil {
		t.Fatal("cells returned alongside an error")
	}
}

// TestRunAllRespectsCancel: an already-cancelled context fails fast without
// simulating anything.
func TestRunAllRespectsCancel(t *testing.T) {
	s := subsetSession(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := s.RunAll(ctx, []CellSpec{{Workload: s.Workloads[0], Mode: instrument.ModeNone,
		Events: standardSet()}})
	if err == nil {
		t.Fatal("expected context error")
	}
}

// TestTimings: the observability records cover exactly the simulated cells
// and carry plausible instruction counts.
func TestTimings(t *testing.T) {
	s := subsetSession(t)
	if _, err := s.Table1(); err != nil {
		t.Fatal(err)
	}
	ts := s.Timings()
	// Table 1: 4 modes x 2 workloads.
	if len(ts) != 8 {
		t.Fatalf("timings = %d, want 8", len(ts))
	}
	for _, tm := range ts {
		if tm.Instrs == 0 {
			t.Errorf("%s/%s: zero instructions", tm.Workload, tm.Mode)
		}
		if tm.Wall > 0 && tm.InstrsPerSec() <= 0 {
			t.Errorf("%s/%s: bad throughput", tm.Workload, tm.Mode)
		}
	}
	// Re-running a cached table adds no new records.
	if _, err := s.Table1(); err != nil {
		t.Fatal(err)
	}
	if len(s.Timings()) != 8 {
		t.Fatal("cache hits re-recorded timings")
	}
}

// TestSharedPlanIsolation: cells sharing one instrumentation plan must not
// perturb each other — the cached cell equals one from a fresh session.
func TestSharedPlanIsolation(t *testing.T) {
	shared := subsetSession(t)
	w := shared.Workloads[0]
	// Force the shared plan to be wired twice for the same (workload, mode).
	c1, err := shared.RunSet(w, instrument.ModePathHW, standardSet())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := shared.RunSet(w, instrument.ModePathHW, hpm.NewMetricSet(PerturbationPairs[0][:]...)); err != nil {
		t.Fatal(err)
	}

	fresh := subsetSession(t)
	c2, err := fresh.RunSet(w, instrument.ModePathHW, standardSet())
	if err != nil {
		t.Fatal(err)
	}
	if c1.Result.Instrs != c2.Result.Instrs || c1.Result.Cycles != c2.Result.Cycles ||
		!reflect.DeepEqual(c1.Result.Totals, c2.Result.Totals) {
		t.Fatalf("shared-plan cell diverged:\nshared: %+v\nfresh:  %+v", c1.Result, c2.Result)
	}
}
