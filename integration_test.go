package pathprof

// Repository-level integration tests: cross-mode invariants that no single
// package can check alone.

import (
	"reflect"
	"strings"
	"testing"

	"pathprof/internal/agg"
	"pathprof/internal/cct"
	"pathprof/internal/hpm"
	"pathprof/internal/instrument"
	"pathprof/internal/profile"
	"pathprof/internal/sim"
	"pathprof/internal/wire"
	"pathprof/internal/workload"
)

// runMode instruments and runs one workload, returning the profile and the
// runtime.
func runMode(t *testing.T, name string, mode instrument.Mode) (*profile.Profile, *instrument.Runtime) {
	t.Helper()
	w, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("unknown workload %s", name)
	}
	plan, err := instrument.Instrument(w.Build(workload.Test), instrument.DefaultOptions(mode))
	if err != nil {
		t.Fatal(err)
	}
	m := sim.New(plan.Prog, sim.DefaultConfig())
	m.PMU().Select(hpm.EvDCacheMiss, hpm.EvInsts)
	rt := plan.Wire(m)
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	return rt.ExtractProfile(), rt
}

// TestPathFrequenciesAgreeAcrossModes: the three path-tracking modes run
// the same deterministic program, so their per-procedure path frequency
// tables must be identical — flow-only, flow+HW, and the flow projection
// of the combined flow+context profile.
func TestPathFrequenciesAgreeAcrossModes(t *testing.T) {
	for _, name := range []string{"compress", "interp", "objdb", "parser"} {
		name := name
		t.Run(name, func(t *testing.T) {
			freqTable := func(p *profile.Profile) map[int]map[int64]uint64 {
				out := map[int]map[int64]uint64{}
				for _, pp := range p.Procs {
					m := map[int64]uint64{}
					for _, e := range pp.Entries {
						if e.Freq != 0 {
							m[e.Sum] = e.Freq
						}
					}
					out[pp.ProcID] = m
				}
				return out
			}
			flow, _ := runMode(t, name, instrument.ModePathFreq)
			flowHW, _ := runMode(t, name, instrument.ModePathHW)
			combined, _ := runMode(t, name, instrument.ModeContextFlow)

			a, b, c := freqTable(flow), freqTable(flowHW), freqTable(combined)
			if !reflect.DeepEqual(a, b) {
				t.Fatal("path-freq and flow+HW frequency tables differ")
			}
			if !reflect.DeepEqual(a, c) {
				t.Fatal("path-freq and combined-mode frequency tables differ")
			}
		})
	}
}

// saveRun writes one run's profile and CCT export (either may be nil)
// into a frame, the saved-run file pp -out writes.
func saveRun(t *testing.T, prof *profile.Profile, ex *cct.Export) []byte {
	t.Helper()
	bw := wire.NewBatchWriter()
	if prof != nil {
		if err := bw.AddProfile(prof); err != nil {
			t.Fatal(err)
		}
	}
	if ex != nil {
		if err := bw.AddExport(ex); err != nil {
			t.Fatal(err)
		}
	}
	return bw.Frame()
}

// foldRuns folds saved frames through the aggregate fold, as ppreport -in
// does.
func foldRuns(t *testing.T, frames ...[]byte) *agg.Set {
	t.Helper()
	var set agg.Set
	var sc agg.Scratch
	for _, f := range frames {
		if err := set.FoldFrame(&sc, f); err != nil {
			t.Fatal(err)
		}
	}
	return &set
}

func cctText(t *testing.T, ex *cct.Export) string {
	t.Helper()
	var b strings.Builder
	if err := ex.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func profileText(t *testing.T, p *profile.Profile) string {
	t.Helper()
	var b strings.Builder
	if err := p.Write(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestCCTFileRoundTripThroughTools: the paper's program-exit flow — save
// the CCT, reload it with statistics intact — plus a two-run merge. Two
// combined-mode runs saved as frames and folded through the aggregate
// must equal cct.MergeExports of their trees byte for byte, with every
// count doubled and the shape unchanged.
func TestCCTFileRoundTripThroughTools(t *testing.T) {
	const name = "objdb"
	prof1, rt1 := runMode(t, name, instrument.ModeContextFlow)
	prof2, rt2 := runMode(t, name, instrument.ModeContextFlow)
	frame1, frame2 := saveRun(t, prof1, rt1.Tree.Export(name)), saveRun(t, prof2, rt2.Tree.Export(name))

	reloaded := foldRuns(t, frame1).CCTs[name].Snapshot()
	if got, want := reloaded.Stats(), rt1.Tree.ComputeStats(); got != want {
		t.Fatalf("reloaded stats diverge: %+v vs %+v", got, want)
	}
	if cctText(t, reloaded) != cctText(t, rt1.Tree.Export(name)) {
		t.Fatal("reloaded CCT differs from the saved tree")
	}

	merged := foldRuns(t, frame1, frame2).CCTs[name].Snapshot()
	ex1 := rt1.Tree.Export(name)
	want, err := cct.MergeExports(ex1, rt2.Tree.Export(name))
	if err != nil {
		t.Fatal(err)
	}
	if cctText(t, merged) != cctText(t, want) {
		t.Fatal("folded CCT differs from cct.MergeExports")
	}
	if merged.Stats() != want.Stats() {
		t.Fatalf("folded CCT stats %+v, cct.MergeExports %+v", merged.Stats(), want.Stats())
	}
	if merged.NumNodes() != ex1.NumNodes() {
		t.Fatalf("merge changed shape: %d vs %d nodes", merged.NumNodes(), ex1.NumNodes())
	}
	if got, wantM := merged.TotalMetric(0), 2*ex1.TotalMetric(0); got != wantM {
		t.Fatalf("merged invocations %d, want %d", got, wantM)
	}
}

// TestProfileFileRoundTripThroughTools: extract, save, reload, merge — the
// multi-run path-profile workflow end to end. Two flow+hw runs saved as
// frames and folded through the aggregate must equal profile.Merge of the
// runs byte for byte, with every total doubled.
func TestProfileFileRoundTripThroughTools(t *testing.T) {
	prof1, _ := runMode(t, "strhash", instrument.ModePathHW)
	prof2, _ := runMode(t, "strhash", instrument.ModePathHW)
	frame1, frame2 := saveRun(t, prof1, nil), saveRun(t, prof2, nil)

	reloaded := foldRuns(t, frame1).Profiles[prof1.Program].Materialize()
	if profileText(t, reloaded) != profileText(t, prof1) {
		t.Fatal("reloaded profile differs from the saved one")
	}

	merged := foldRuns(t, frame1, frame2).Profiles[prof1.Program].Materialize()
	f0, ms0 := prof1.Totals()
	if err := prof1.Merge(prof2); err != nil {
		t.Fatal(err)
	}
	if profileText(t, merged) != profileText(t, prof1) {
		t.Fatal("folded profile differs from profile.Merge")
	}
	f2, ms2 := merged.Totals()
	if f2 != 2*f0 || ms2[0] != 2*ms0[0] || ms2[1] != 2*ms0[1] {
		t.Fatalf("merged totals not doubled: %d/%v vs %d/%v", f2, ms2, f0, ms0)
	}
}
