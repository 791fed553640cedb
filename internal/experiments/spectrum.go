package experiments

import (
	"io"
	"sync"

	"pathprof/internal/baseline"
	"pathprof/internal/hpm"
	"pathprof/internal/instrument"
	"pathprof/internal/report"
	"pathprof/internal/sim"
)

// callsEvent is the dynamic call counter used for the spectrum table.
const callsEvent = hpm.EvCalls

// Table 6 (an extension beyond the paper's tables): the run-time
// representation spectrum of Figure 4, quantified. For each workload it
// compares the dynamic call graph (arcs only — compact but context-blind),
// the calling context tree (bounded, context-exact), the full dynamic call
// tree (exact but proportional to call volume), and Goldberg-Hall stack
// sampling (storage proportional to run length).

// SpectrumRow holds one workload's representation sizes.
type SpectrumRow struct {
	Name  string
	Calls uint64

	DCGArcs  int
	DCGBytes uint64

	CCTNodes int
	CCTBytes uint64

	DCTNodes int
	DCTBytes uint64

	SamplerSamples int
	SamplerBytes   uint64
}

// Spectrum measures all four representations on each workload: the CCT
// from the cached context+flow cell, the rest from one traced
// uninstrumented run. Both halves run through the parallel engine: the CCT
// cells via RunAll, the traced runs on their own bounded worker pool; rows
// are assembled by workload index, so output order is deterministic.
func (s *Session) Spectrum(sampleInterval uint64) ([]SpectrumRow, error) {
	cctCells, err := s.runSuite(instrument.ModeContextFlow)
	if err != nil {
		return nil, err
	}

	rows := make([]SpectrumRow, len(s.Workloads))
	traced := func(i int) error {
		w := s.Workloads[i]
		st := cctCells[i].Tree.ComputeStats()
		m := sim.New(s.builtProg(w), s.SimConfig)
		dct := baseline.NewDCT()
		g := baseline.NewGprof(m.Cycles)
		smp := baseline.NewSampler(m, sampleInterval)
		m.SetTracer(baseline.Combine(dct, g, smp))
		m.OnUnwind(dct.UnwindTo)
		m.OnUnwind(g.UnwindTo)
		res, err := m.Run()
		if err != nil {
			return err
		}
		g.Flush()

		arcs := len(g.Arcs())
		rows[i] = SpectrumRow{
			Name:  w.Name,
			Calls: res.Totals[callsEvent],

			DCGArcs:  arcs,
			DCGBytes: uint64(arcs) * 24, // (caller, callee, count)

			CCTNodes: st.Nodes,
			CCTBytes: st.SizeBytes,

			DCTNodes: dct.NumNodes(),
			DCTBytes: dct.SizeBytes(),

			SamplerSamples: len(smp.Samples),
			SamplerBytes:   smp.SizeBytes(),
		}
		return nil
	}

	n := s.workers()
	if n > len(s.Workloads) {
		n = len(s.Workloads)
	}
	if n <= 1 {
		for i := range s.Workloads {
			if err := traced(i); err != nil {
				return nil, err
			}
		}
		return rows, nil
	}
	var (
		wg      sync.WaitGroup
		errOnce sync.Once
		first   error
	)
	jobs := make(chan int)
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				if first != nil {
					continue
				}
				if err := traced(i); err != nil {
					errOnce.Do(func() { first = err })
				}
			}
		}()
	}
	for i := range s.Workloads {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	if first != nil {
		return nil, first
	}
	return rows, nil
}

// RenderSpectrum writes the Table 6 report.
func RenderSpectrum(rows []SpectrumRow, w io.Writer) {
	t := &report.Table{
		Title: "Table 6 (extension): the Figure 4 representation spectrum, measured",
		Cols: []string{"Benchmark", "Calls", "DCG arcs", "DCG B",
			"CCT nodes", "CCT B", "DCT nodes", "DCT B", "Samples", "Sampler B"},
		Note: "The dynamic call graph is smallest but cannot attribute costs to contexts (the " +
			"gprof problem); the dynamic call tree is exact but grows with every call; stack-sample " +
			"storage grows with run length. The CCT sits between: bounded like the DCG, " +
			"context-exact like the DCT. CCT bytes here include per-record path tables (the " +
			"combined flow+context configuration).",
	}
	for _, r := range rows {
		t.AddRow(r.Name, report.SI(r.Calls),
			r.DCGArcs, report.SI(r.DCGBytes),
			r.CCTNodes, report.SI(r.CCTBytes),
			r.DCTNodes, report.SI(r.DCTBytes),
			r.SamplerSamples, report.SI(r.SamplerBytes))
	}
	t.Render(w)
}
