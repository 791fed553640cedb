// Package analysis turns flow-sensitive profiles into the paper's
// evaluation artifacts: the hot/cold and dense/sparse path classification
// of Table 4, the per-procedure classification of Table 5, and ranked
// hot-path listings with regenerated block sequences.
//
// Terminology (Section 6.4): a HOT path incurs at least a threshold
// fraction (1% in the paper) of the program's L1 data cache misses; others
// are COLD. A DENSE path is a hot path whose miss ratio (misses per
// instruction) exceeds the program's average; a SPARSE path is a hot path
// below the average — it misses a lot because it executes a lot.
package analysis

import (
	"cmp"
	"slices"

	"pathprof/internal/bl"
	"pathprof/internal/profile"
)

// DefaultHotThreshold is the paper's 1% cutoff.
const DefaultHotThreshold = 0.01

// LowHotThreshold is the 0.1% cutoff the paper uses for the path-rich
// outliers (099.go, 126.gcc).
const LowHotThreshold = 0.001

// metricSlots resolves which metric slots of prof carry D-cache misses and
// instructions. The slots are found by schema lookup, so the classification
// works no matter where a wide MetricSet placed the two events; profiles
// without a schema (or without the named events) fall back to the classic
// positional layout, slots 0 and 1.
func metricSlots(prof *profile.Profile) (miss, insts int) {
	miss, insts = 0, 1
	if i := prof.MetricIndex("dcache-miss"); i >= 0 {
		miss = i
	}
	if i := prof.MetricIndex("insts"); i >= 0 {
		insts = i
	}
	return
}

// PathStat is one executed path with its metrics (misses and instructions
// under the standard experiment counter selection, located by schema
// lookup).
type PathStat struct {
	ProcID int
	Proc   string
	Sum    int64
	Freq   uint64
	Misses uint64
	Insts  uint64
}

// MissRatio returns misses per instruction along the path.
func (p PathStat) MissRatio() float64 {
	if p.Insts == 0 {
		return 0
	}
	return float64(p.Misses) / float64(p.Insts)
}

// ClassTotals aggregates one class of paths (hot/cold/dense/sparse).
type ClassTotals struct {
	Num    int
	Insts  uint64
	Misses uint64
}

// InstFrac returns the class's share of total instructions.
func (c ClassTotals) InstFrac(total uint64) float64 { return frac(c.Insts, total) }

// MissFrac returns the class's share of total misses.
func (c ClassTotals) MissFrac(total uint64) float64 { return frac(c.Misses, total) }

func frac(part, total uint64) float64 {
	if total == 0 {
		return 0
	}
	return float64(part) / float64(total)
}

// PathReport is the Table 4 row for one program at one threshold.
type PathReport struct {
	Program   string
	Threshold float64

	NumPaths    int // executed paths
	TotalInsts  uint64
	TotalMisses uint64
	AvgRatio    float64

	Hot    ClassTotals // dense + sparse
	Dense  ClassTotals
	Sparse ClassTotals
	Cold   ClassTotals

	// HotPaths lists the hot paths, hottest (most misses) first.
	HotPaths []PathStat
}

// ClassifyPaths computes the Table 4 classification from a flow+HW profile
// whose schema includes D-cache misses and instructions.
func ClassifyPaths(prof *profile.Profile, threshold float64) PathReport {
	r := PathReport{Program: prof.Program, Threshold: threshold}
	missSlot, instSlot := metricSlots(prof)
	var all []PathStat
	for _, pp := range prof.Procs {
		for i := range pp.Entries {
			e := &pp.Entries[i]
			all = append(all, PathStat{
				ProcID: pp.ProcID, Proc: pp.Name, Sum: e.Sum,
				Freq: e.Freq, Misses: e.Metric(missSlot), Insts: e.Metric(instSlot),
			})
			r.TotalInsts += e.Metric(instSlot)
			r.TotalMisses += e.Metric(missSlot)
		}
	}
	r.NumPaths = len(all)
	if r.TotalInsts > 0 {
		r.AvgRatio = float64(r.TotalMisses) / float64(r.TotalInsts)
	}
	cut := threshold * float64(r.TotalMisses)
	for _, p := range all {
		if float64(p.Misses) >= cut && p.Misses > 0 {
			r.Hot.Num++
			r.Hot.Insts += p.Insts
			r.Hot.Misses += p.Misses
			if p.MissRatio() > r.AvgRatio {
				r.Dense.Num++
				r.Dense.Insts += p.Insts
				r.Dense.Misses += p.Misses
			} else {
				r.Sparse.Num++
				r.Sparse.Insts += p.Insts
				r.Sparse.Misses += p.Misses
			}
			r.HotPaths = append(r.HotPaths, p)
		} else {
			r.Cold.Num++
			r.Cold.Insts += p.Insts
			r.Cold.Misses += p.Misses
		}
	}
	slices.SortFunc(r.HotPaths, func(a, b PathStat) int {
		if c := cmp.Compare(b.Misses, a.Misses); c != 0 {
			return c
		}
		if c := cmp.Compare(a.ProcID, b.ProcID); c != 0 {
			return c
		}
		return cmp.Compare(a.Sum, b.Sum)
	})
	return r
}

// PathsByFrequency returns prof's n most frequent paths, most frequent
// first, ties broken by procedure name and path sum, with no metrics. It
// ranks frequency-only profiles, which carry no metric to classify paths
// by.
func PathsByFrequency(prof *profile.Profile, n int) []PathStat {
	var all []PathStat
	for _, pp := range prof.Procs {
		for _, e := range pp.Entries {
			all = append(all, PathStat{ProcID: pp.ProcID, Proc: pp.Name, Sum: e.Sum, Freq: e.Freq})
		}
	}
	slices.SortFunc(all, func(a, b PathStat) int {
		if c := cmp.Compare(b.Freq, a.Freq); c != 0 {
			return c
		}
		if c := cmp.Compare(a.Proc, b.Proc); c != 0 {
			return c
		}
		return cmp.Compare(a.Sum, b.Sum)
	})
	return all[:min(n, len(all))]
}

// ProcStat aggregates one procedure (for Table 5).
type ProcStat struct {
	ProcID int
	Proc   string
	Paths  int // executed paths in the procedure
	Freq   uint64
	Misses uint64
	Insts  uint64
}

// ProcClass aggregates one procedure class.
type ProcClass struct {
	Num          int
	Misses       uint64
	PathsPerProc float64 // average executed paths per procedure
}

// ProcReport is the Table 5 row for one program.
type ProcReport struct {
	Program   string
	Threshold float64

	TotalMisses uint64
	AvgRatio    float64

	Hot    ProcClass // dense + sparse
	Dense  ProcClass
	Sparse ProcClass
	Cold   ProcClass

	HotProcs []ProcStat // hottest first
}

// ClassifyProcs computes the Table 5 classification.
func ClassifyProcs(prof *profile.Profile, threshold float64) ProcReport {
	r := ProcReport{Program: prof.Program, Threshold: threshold}
	missSlot, instSlot := metricSlots(prof)
	var all []ProcStat
	var totalInsts uint64
	for _, pp := range prof.Procs {
		if len(pp.Entries) == 0 {
			continue
		}
		st := ProcStat{ProcID: pp.ProcID, Proc: pp.Name, Paths: len(pp.Entries)}
		for i := range pp.Entries {
			e := &pp.Entries[i]
			st.Freq += e.Freq
			st.Misses += e.Metric(missSlot)
			st.Insts += e.Metric(instSlot)
		}
		all = append(all, st)
		r.TotalMisses += st.Misses
		totalInsts += st.Insts
	}
	if totalInsts > 0 {
		r.AvgRatio = float64(r.TotalMisses) / float64(totalInsts)
	}
	cut := threshold * float64(r.TotalMisses)
	addClass := func(c *ProcClass, st ProcStat) {
		c.Num++
		c.Misses += st.Misses
		c.PathsPerProc += float64(st.Paths) // finalized below
	}
	for _, st := range all {
		ratio := 0.0
		if st.Insts > 0 {
			ratio = float64(st.Misses) / float64(st.Insts)
		}
		if float64(st.Misses) >= cut && st.Misses > 0 {
			addClass(&r.Hot, st)
			if ratio > r.AvgRatio {
				addClass(&r.Dense, st)
			} else {
				addClass(&r.Sparse, st)
			}
			r.HotProcs = append(r.HotProcs, st)
		} else {
			addClass(&r.Cold, st)
		}
	}
	for _, c := range []*ProcClass{&r.Hot, &r.Dense, &r.Sparse, &r.Cold} {
		if c.Num > 0 {
			c.PathsPerProc /= float64(c.Num)
		}
	}
	slices.SortFunc(r.HotProcs, func(a, b ProcStat) int {
		if c := cmp.Compare(b.Misses, a.Misses); c != 0 {
			return c
		}
		return cmp.Compare(a.ProcID, b.ProcID)
	})
	return r
}

// HotPathListing resolves the top-k hot paths to their block sequences
// using the per-procedure numberings (keyed by procedure ID).
type HotPathListing struct {
	Stat PathStat
	Path bl.Path
}

// ResolveHotPaths regenerates block sequences for the hottest paths.
func ResolveHotPaths(rep PathReport, numberings map[int]*bl.Numbering, k int) []HotPathListing {
	var out []HotPathListing
	for _, hp := range rep.HotPaths {
		if len(out) >= k {
			break
		}
		nm := numberings[hp.ProcID]
		if nm == nil {
			continue
		}
		p, err := nm.RegenerateK(hp.Sum)
		if err != nil {
			continue
		}
		out = append(out, HotPathListing{Stat: hp, Path: p})
	}
	return out
}

// CoverageAt reports what fraction of misses the top-n paths cover —
// supporting the paper's headline "3-28 hot paths account for 59-98% of the
// misses" claim.
func CoverageAt(rep PathReport, n int) float64 {
	var misses uint64
	for i, p := range rep.HotPaths {
		if i >= n {
			break
		}
		misses += p.Misses
	}
	return frac(misses, rep.TotalMisses)
}
