package pathprof

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"strings"
	"testing"

	"pathprof/internal/experiments"
	"pathprof/internal/hpm"
	"pathprof/internal/instrument"
	"pathprof/internal/sim"
	"pathprof/internal/workload"
)

// simGoldenPath pins every simulated statistic of the profile workload's
// cells at test scale. To regenerate it after a deliberate change to the
// simulated machine, delete the file and run TestSimGolden: the test writes
// the current rendering and fails, and the diff goes up for review.
const simGoldenPath = "testdata/sim_golden.txt"

// simGoldenCell renders one (program, mode) run: the cycle and instruction
// counts, every shadow event total, the L1 cache stats, the memory
// footprint, the output, and the extracted path profile and CCT text.
func simGoldenCell(t *testing.T, buf *bytes.Buffer, w workload.Workload, mode instrument.Mode, k int) {
	t.Helper()
	prog := w.Build(workload.Test)
	name := "base"
	var plan *instrument.Plan
	if mode != instrument.ModeNone {
		opts := instrument.DefaultOptions(mode)
		opts.NumCounters = len(experiments.StandardEvents)
		opts.K = k
		var err error
		if plan, err = instrument.Instrument(prog, opts); err != nil {
			t.Fatalf("%s %s k=%d: %v", w.Name, mode, k, err)
		}
		prog = plan.Prog
		name = fmt.Sprintf("%s k=%d", mode, k)
	}
	m := sim.New(prog, sim.DefaultConfig())
	m.PMU().SelectAll(experiments.StandardEvents[:])
	var rt *instrument.Runtime
	if plan != nil {
		rt = plan.Wire(m)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatalf("%s %s: %v", w.Name, name, err)
	}
	fmt.Fprintf(buf, "== %s %s\n", w.Name, name)
	fmt.Fprintf(buf, "cycles %d instrs %d mem %d\n", res.Cycles, res.Instrs, res.MemBytes)
	for ev := hpm.Event(1); ev < hpm.NumEvents; ev++ {
		fmt.Fprintf(buf, "total %s %d\n", ev, res.Totals[ev])
	}
	fmt.Fprintf(buf, "l1d %+v\nl1i %+v\n", res.L1D, res.L1I)
	fmt.Fprintf(buf, "output %v\n", res.Output)
	if rt == nil {
		return
	}
	if mode.UsesPaths() {
		if err := rt.ExtractProfile().Write(buf); err != nil {
			t.Fatal(err)
		}
	}
	if rt.Tree != nil {
		if err := rt.Tree.Export(w.Name).WriteText(buf); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSimGolden runs every Suite and KSuite program at test scale
// uninstrumented, flow+hw, context+hw and context+flow, plus flow+hw at
// k=2 for the k-iteration programs, and demands that every simulated
// number match the committed golden rendering exactly. The simulator's
// host-side fast paths must never move a simulated count.
func TestSimGolden(t *testing.T) {
	modes := []instrument.Mode{instrument.ModeNone, instrument.ModePathHW, instrument.ModeContextHW, instrument.ModeContextFlow}
	var buf bytes.Buffer
	for _, w := range workload.Suite() {
		for _, mode := range modes {
			simGoldenCell(t, &buf, w, mode, 1)
		}
	}
	for _, w := range workload.KSuite() {
		for _, mode := range modes {
			simGoldenCell(t, &buf, w, mode, 1)
		}
		simGoldenCell(t, &buf, w, instrument.ModePathHW, 2)
	}
	want, err := os.ReadFile(simGoldenPath)
	if errors.Is(err, fs.ErrNotExist) {
		if err := os.WriteFile(simGoldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("wrote missing %s; review and commit it", simGoldenPath)
	}
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(buf.Bytes(), want) {
		return
	}
	got, exp := strings.Split(buf.String(), "\n"), strings.Split(string(want), "\n")
	cell := ""
	for i := 0; i < len(got) && i < len(exp); i++ {
		if strings.HasPrefix(exp[i], "== ") {
			cell = exp[i]
		}
		if got[i] != exp[i] {
			t.Fatalf("%s: line %d differs in cell %q:\n got  %s\n want %s", simGoldenPath, i+1, cell, got[i], exp[i])
		}
	}
	t.Fatalf("%s: rendering has %d lines, golden has %d", simGoldenPath, len(got), len(exp))
}
