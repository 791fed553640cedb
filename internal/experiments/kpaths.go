package experiments

import (
	"fmt"
	"io"

	"pathprof/internal/hpm"
	"pathprof/internal/instrument"
	"pathprof/internal/profile"
	"pathprof/internal/report"
	"pathprof/internal/workload"
)

// The k-degree comparison: the same workloads profiled under flow+HW at
// k = 1 and at higher path degrees, lined up so the report shows what the
// extra degree buys — hot paths that cross loop back-edges, with event
// attribution the classic profile structurally cannot express. A classic
// profile charges a loop-body path's misses to that path summed over every
// predecessor iteration; the k-profile splits the same events by what the
// previous iteration(s) did, so the per-execution rate of a crossing
// k-path can differ sharply from the k=1 average of its final segment.

// KPathRow is one (workload, degree) line of the comparison.
type KPathRow struct {
	Workload string
	K        int
	Executed int // executed path entries across all procedures

	// The hottest path by D-cache misses — for k>1, the hottest path that
	// crosses at least one iteration boundary.
	Proc      string
	Path      string // bl.Path rendering; "↻" marks iteration boundaries
	Sum       int64
	Crossings int
	Freq      uint64
	Misses    uint64

	// BaseSum is the classic id of the hot k-path's final iteration
	// segment, and BaseFreq/BaseMisses its k=1 profile entry: the same
	// code the k-path ends in, attributed without cross-iteration context.
	// Meaningful only when K > 1 and Crossings > 0.
	BaseSum    int64
	BaseFreq   uint64
	BaseMisses uint64

	// Contexts is the number of distinct executed k-paths sharing the hot
	// path's final segment — the ways the k-profile splits the single k=1
	// entry BaseSum — and RateLo/RateHi the spread of their per-execution
	// miss rates. RateHi > RateLo is attribution the classic profile
	// averages away.
	Contexts int
	RateLo   float64
	RateHi   float64
}

// PerExec returns the hot path's misses per execution.
func (r KPathRow) PerExec() float64 {
	if r.Freq == 0 {
		return 0
	}
	return float64(r.Misses) / float64(r.Freq)
}

// BasePerExec returns the k=1 per-execution miss rate of the hot k-path's
// final segment.
func (r KPathRow) BasePerExec() float64 {
	if r.BaseFreq == 0 {
		return 0
	}
	return float64(r.BaseMisses) / float64(r.BaseFreq)
}

// KPathComparison is the full report: rows grouped by workload, degrees
// ascending, k=1 first as the baseline.
type KPathComparison struct {
	Scale workload.Scale
	Rows  []KPathRow
}

// missIndex locates the D-cache-miss metric column of a profile.
func missIndex(p *profile.Profile) int {
	if i := p.MetricIndex(hpm.EvDCacheMiss.String()); i >= 0 {
		return i
	}
	return 0
}

// hotEntry picks the hottest entry by the given metric, requiring at least
// minCross iteration boundaries, with a deterministic tie-break (higher
// misses, then lower proc id, then lower sum). It returns ok=false when no
// entry qualifies.
func hotEntry(cell *Cell, mi, minCross int) (row KPathRow, ok bool) {
	for _, pp := range cell.Profile.Procs {
		if pp == nil {
			continue
		}
		ppl := cell.Plan.Procs[pp.ProcID]
		if ppl == nil || ppl.Numbering == nil {
			continue
		}
		for _, e := range pp.Entries {
			p, err := ppl.Numbering.RegenerateK(e.Sum)
			if err != nil {
				continue
			}
			if len(p.Boundaries) < minCross {
				continue
			}
			m := e.Metric(mi)
			if ok && m <= row.Misses {
				continue
			}
			row = KPathRow{
				Proc:      pp.Name,
				Path:      p.String(),
				Sum:       e.Sum,
				Crossings: len(p.Boundaries),
				Freq:      e.Freq,
				Misses:    m,
			}
			ok = true
		}
	}
	return row, ok
}

// KPaths runs the comparison for the named workloads over the given
// degrees (1 is implicit and always first). Each degree gets its own
// session so plans and cells cache independently.
func KPaths(scale workload.Scale, names []string, degrees []int) (*KPathComparison, error) {
	ks := []int{1}
	for _, k := range degrees {
		if k > 1 {
			ks = append(ks, k)
		}
	}
	sessions := make(map[int]*Session, len(ks))
	for _, k := range ks {
		s := NewSession(scale)
		s.K = k
		sessions[k] = s
	}

	cmp := &KPathComparison{Scale: scale}
	for _, name := range names {
		w, found := workload.ByName(name)
		if !found {
			return nil, fmt.Errorf("experiments: no workload %q", name)
		}
		// Baseline first: the classic profile the k rows compare against.
		base, err := sessions[1].RunSet(w, instrument.ModePathHW, standardSet())
		if err != nil {
			return nil, err
		}
		bmi := missIndex(base.Profile)
		brow, _ := hotEntry(base, bmi, 0)
		brow.Workload = name
		brow.K = 1
		brow.Executed = base.Profile.TotalExecutedPaths()
		cmp.Rows = append(cmp.Rows, brow)

		for _, k := range ks[1:] {
			cell, err := sessions[k].RunSet(w, instrument.ModePathHW, standardSet())
			if err != nil {
				return nil, err
			}
			mi := missIndex(cell.Profile)
			row, ok := hotEntry(cell, mi, 1)
			row.Workload = name
			row.K = k
			row.Executed = cell.Profile.TotalExecutedPaths()
			if ok {
				// Attribute the hot k-path's final segment under k=1.
				pp := procByName(cell, row.Proc)
				if segs, err := pp.Numbering.SegmentSums(row.Sum); err == nil && len(segs) > 0 {
					row.BaseSum = segs[len(segs)-1]
					if bp := procPathsByName(base.Profile, row.Proc); bp != nil {
						for _, be := range bp.Entries {
							if be.Sum == row.BaseSum {
								row.BaseFreq = be.Freq
								row.BaseMisses = be.Metric(bmi)
								break
							}
						}
					}
					// The context spread: every executed k-path ending in
					// the same segment, and the range of their miss rates.
					if kp := procPathsByName(cell.Profile, row.Proc); kp != nil {
						for _, ke := range kp.Entries {
							ks, err := pp.Numbering.SegmentSums(ke.Sum)
							if err != nil || len(ks) == 0 || ks[len(ks)-1] != row.BaseSum || ke.Freq == 0 {
								continue
							}
							rate := float64(ke.Metric(mi)) / float64(ke.Freq)
							if row.Contexts == 0 || rate < row.RateLo {
								row.RateLo = rate
							}
							if row.Contexts == 0 || rate > row.RateHi {
								row.RateHi = rate
							}
							row.Contexts++
						}
					}
				}
			}
			cmp.Rows = append(cmp.Rows, row)
		}
	}
	return cmp, nil
}

func procByName(cell *Cell, name string) *instrument.ProcPlan {
	for _, pp := range cell.Plan.Procs {
		if pp != nil && cell.Plan.Prog.Procs[pp.ProcID].Name == name {
			return pp
		}
	}
	return nil
}

func procPathsByName(p *profile.Profile, name string) *profile.ProcPaths {
	for _, pp := range p.Procs {
		if pp != nil && pp.Name == name {
			return pp
		}
	}
	return nil
}

// RenderKPaths writes the comparison report.
func RenderKPaths(cmp *KPathComparison, w io.Writer) {
	t := &report.Table{
		Title: "k-iteration path profiles: hottest backedge-crossing path by L1 D-cache misses vs its k=1 attribution",
		Cols: []string{"Benchmark", "k", "Paths", "Hot path (proc)", "↻", "Freq", "Misses",
			"Miss/exec", "k=1 seg", "k=1 rate", "Ctxs", "Ctx rate lo..hi"},
		Note: "A k>1 row's hot path spans ↻ loop iterations. 'k=1 seg' names the classic entry of its " +
			"final iteration segment and 'k=1 rate' that entry's average miss rate; 'Ctxs' counts the " +
			"executed k-paths the k-profile splits that one entry into, and the rate spread across " +
			"them is per-iteration attribution the classic profile averages away.",
	}
	for _, r := range cmp.Rows {
		path := r.Path
		if len([]rune(path)) > 44 {
			path = string([]rune(path)[:43]) + "…"
		}
		hot := fmt.Sprintf("%s (%s)", path, r.Proc)
		if r.K <= 1 {
			t.AddRow(r.Workload, r.K, r.Executed, hot, r.Crossings, report.SI(r.Freq),
				report.SI(r.Misses), fmt.Sprintf("%.3f", r.PerExec()), "-", "-", "-", "-")
			continue
		}
		t.AddRow(r.Workload, r.K, r.Executed, hot, r.Crossings, report.SI(r.Freq),
			report.SI(r.Misses), fmt.Sprintf("%.3f", r.PerExec()),
			fmt.Sprintf("id %d", r.BaseSum), fmt.Sprintf("%.3f", r.BasePerExec()),
			r.Contexts, fmt.Sprintf("%.3f..%.3f", r.RateLo, r.RateHi))
	}
	t.Render(w)
}

// KPathWorkloads is the default workload set for the k-degree comparison:
// the two paper workloads whose inner loops carry state across iterations,
// plus the three k-iteration workloads built for this experiment.
var KPathWorkloads = []string{"interp", "compress", "pipeline", "lexer", "eventloop"}
