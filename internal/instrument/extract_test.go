package instrument_test

import (
	"runtime"
	"testing"

	"pathprof/internal/experiments"
	"pathprof/internal/instrument"
	"pathprof/internal/sim"
	"pathprof/internal/workload"
)

// TestExtractProfileSizedByPaths: what ExtractProfile allocates follows
// what the run recorded. For every Suite and KSuite program at test
// scale, in flow+hw at k=1 and k=2 and in block+hw, one call may allocate
// at most four times the bytes its entries hold: 40 for the PathEntry and
// 8 per metric slot. A metric arena opened at a fixed 8 KiB per procedure
// allocates tens of times that.
func TestExtractProfileSizedByPaths(t *testing.T) {
	const limit = 4.0
	progs := append(workload.Suite(), workload.KSuite()...)
	built := make([]*instrument.Plan, 0, len(progs))
	for _, c := range []struct {
		mode instrument.Mode
		k    int
	}{{instrument.ModePathHW, 1}, {instrument.ModePathHW, 2}, {instrument.ModeBlockHW, 1}} {
		var held, allocated uint64
		worst, worstName := 0.0, ""
		built = built[:0]
		for _, w := range progs {
			opts := instrument.DefaultOptions(c.mode)
			opts.NumCounters = len(experiments.StandardEvents)
			opts.K = c.k
			plan, err := instrument.Instrument(w.Build(workload.Test), opts)
			if err != nil {
				t.Fatalf("%s %s k=%d: %v", w.Name, c.mode, c.k, err)
			}
			built = append(built, plan)
		}
		for i, plan := range built {
			m := sim.New(plan.Prog, sim.DefaultConfig())
			m.PMU().SelectAll(experiments.StandardEvents[:])
			rt := plan.Wire(m)
			if _, err := m.Run(); err != nil {
				t.Fatalf("%s %s k=%d: %v", progs[i].Name, c.mode, c.k, err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			p := rt.ExtractProfile()
			runtime.ReadMemStats(&after)
			got := after.TotalAlloc - before.TotalAlloc
			want := uint64(p.TotalExecutedPaths()) * uint64(40+8*len(p.Events))
			ratio := float64(got) / float64(want)
			if ratio > limit {
				t.Errorf("%s %s k=%d: ExtractProfile allocated %d bytes for %d entries holding %d bytes (%.1fx, limit %.0fx)",
					progs[i].Name, c.mode, c.k, got, p.TotalExecutedPaths(), want, ratio, limit)
			}
			if ratio > worst {
				worst, worstName = ratio, progs[i].Name
			}
			held += want
			allocated += got
		}
		t.Logf("%s k=%d: allocated %.2fx the bytes entries hold over %d programs, worst %.2fx (%s)",
			c.mode, c.k, float64(allocated)/float64(held), len(progs), worst, worstName)
	}
}
