// The concurrent experiment engine: a bounded worker pool executing
// Session cells in parallel with singleflight-style deduplication, shared
// per-workload builds and per-(workload, mode) instrumentation plans, and
// context-based cancellation on first error. Cell results are cached and
// assembled in deterministic order by the table generators, so rendered
// tables are byte-identical regardless of worker count or completion order.
package experiments

import (
	"cmp"
	"context"
	"runtime"
	"slices"
	"sync"
	"time"

	"pathprof/internal/hpm"
	"pathprof/internal/instrument"
	"pathprof/internal/ir"
	"pathprof/internal/workload"
)

// CellSpec names one (workload, instrumentation-mode, metric-set) cell. An
// empty Events selects hpm.DefaultMetricSet.
type CellSpec struct {
	Workload workload.Workload
	Mode     instrument.Mode
	Events   hpm.MetricSet
}

// flight tracks an in-progress cell so concurrent requests for the same
// key wait for the one simulation instead of duplicating it.
type flight struct {
	done chan struct{}
	cell *Cell
	err  error
}

// progEntry lazily builds a workload's program exactly once per session.
type progEntry struct {
	once sync.Once
	prog *ir.Program
}

// planKey identifies a shared instrumentation plan. counters is the plan's
// normalized counter width (the classic pair is 2), so cells that differ
// only in event selection — not schema width — share one plan.
type planKey struct {
	workload string
	mode     instrument.Mode
	counters int
	k        int // path iteration degree; 0 for non-path modes and classic
}

// planEntry lazily instruments a (workload, mode) pair exactly once.
type planEntry struct {
	once sync.Once
	plan *instrument.Plan
	err  error
}

// CellTiming is one simulated cell's observability record.
type CellTiming struct {
	Workload string
	Mode     string
	Events   string // comma-joined metric schema (MetricSet.Key)
	Wall     time.Duration
	Instrs   uint64 // simulated instructions retired
}

// InstrsPerSec returns the cell's simulation throughput in simulated
// instructions per wall-clock second (0 for a zero-duration cell).
func (t CellTiming) InstrsPerSec() float64 {
	s := t.Wall.Seconds()
	if s <= 0 {
		return 0
	}
	return float64(t.Instrs) / s
}

// workers returns the effective pool size.
func (s *Session) workers() int {
	if s.Parallel > 0 {
		return s.Parallel
	}
	return runtime.GOMAXPROCS(0)
}

// builtProg returns the workload's built program, building it at most once
// per session. Programs are immutable after Build (the simulator reads
// them and the instrumenter clones them), so one build backs every cell.
func (s *Session) builtProg(w workload.Workload) *ir.Program {
	s.mu.Lock()
	e, ok := s.progs[w.Name]
	if !ok {
		e = &progEntry{}
		s.progs[w.Name] = e
	}
	s.mu.Unlock()
	e.once.Do(func() { e.prog = w.Build(s.Scale) })
	return e.prog
}

// sharedPlan returns the classic two-counter (workload, mode) plan; see
// sharedPlanN.
func (s *Session) sharedPlan(w workload.Workload, mode instrument.Mode) (*instrument.Plan, error) {
	return s.sharedPlanN(w, mode, 0)
}

// sharedPlanN returns the (workload, mode, counter-width) instrumentation
// plan, computing it at most once per session (counters <= 0 means the
// classic pair). Plans are immutable after Instrument and Wire allocates
// from a cloned allocator, so cells that differ only in event selection
// share one plan.
func (s *Session) sharedPlanN(w workload.Workload, mode instrument.Mode, counters int) (*instrument.Plan, error) {
	if counters <= 0 {
		counters = 2
	}
	k := 0
	if mode.UsesPaths() && s.K > 1 {
		k = s.K
	}
	key := planKey{w.Name, mode, counters, k}
	s.mu.Lock()
	e, ok := s.plans[key]
	if !ok {
		e = &planEntry{}
		s.plans[key] = e
	}
	s.mu.Unlock()
	e.once.Do(func() {
		opts := instrument.DefaultOptions(mode)
		opts.NumCounters = counters
		if k > 1 {
			opts.K = k
		}
		e.plan, e.err = instrument.Instrument(s.builtProg(w), opts)
	})
	return e.plan, e.err
}

// recordTiming appends one completed cell's observability record.
func (s *Session) recordTiming(t CellTiming) {
	s.mu.Lock()
	s.timings = append(s.timings, t)
	s.mu.Unlock()
}

// Timings returns the per-cell observability records for every cell this
// session actually simulated (cache hits do not re-record), sorted by
// workload, mode and counter selection so output is stable regardless of
// completion order. Wall times are real durations and vary run to run.
func (s *Session) Timings() []CellTiming {
	s.mu.Lock()
	out := make([]CellTiming, len(s.timings))
	copy(out, s.timings)
	s.mu.Unlock()
	slices.SortFunc(out, func(a, b CellTiming) int {
		if c := cmp.Compare(a.Workload, b.Workload); c != 0 {
			return c
		}
		if c := cmp.Compare(a.Mode, b.Mode); c != 0 {
			return c
		}
		return cmp.Compare(a.Events, b.Events)
	})
	return out
}

// RunSetCtx executes (or returns the cached) cell, deduplicating concurrent
// requests for the same key: only one goroutine simulates a given cell,
// the rest wait on its completion or on ctx.
func (s *Session) RunSetCtx(ctx context.Context, w workload.Workload, mode instrument.Mode, set hpm.MetricSet) (*Cell, error) {
	if set.Len() == 0 {
		set = hpm.DefaultMetricSet()
	}
	key := cellKey{w.Name, mode, set.Key()}
	for {
		s.mu.Lock()
		if c, ok := s.cells[key]; ok {
			s.mu.Unlock()
			return c, nil
		}
		if f, ok := s.inflight[key]; ok {
			s.mu.Unlock()
			select {
			case <-f.done:
				if f.err != nil {
					// The owning call failed (possibly only by
					// cancellation); retry so a live caller can
					// re-attempt rather than inheriting a stale error.
					if ctx.Err() != nil {
						return nil, ctx.Err()
					}
					continue
				}
				return f.cell, nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		f := &flight{done: make(chan struct{})}
		s.inflight[key] = f
		s.mu.Unlock()

		cell, err := s.simulate(ctx, w, mode, set)

		s.mu.Lock()
		if err == nil {
			s.cells[key] = cell
		}
		delete(s.inflight, key)
		s.mu.Unlock()
		f.cell, f.err = cell, err
		close(f.done)
		return cell, err
	}
}

// RunAll executes the given cells through a bounded worker pool (Parallel
// workers, default GOMAXPROCS) and returns them in spec order. Duplicate
// specs resolve to the same cell. On the first error the remaining work is
// cancelled and that error returned.
func (s *Session) RunAll(ctx context.Context, specs []CellSpec) ([]*Cell, error) {
	if len(specs) == 0 {
		return nil, nil
	}
	n := s.workers()
	if n > len(specs) {
		n = len(specs)
	}
	cells := make([]*Cell, len(specs))
	if n <= 1 {
		// Serial fast path: no goroutines, identical cell order.
		for i, sp := range specs {
			c, err := s.RunSetCtx(ctx, sp.Workload, sp.Mode, sp.Events)
			if err != nil {
				return nil, err
			}
			cells[i] = c
		}
		return cells, nil
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
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
				if ctx.Err() != nil {
					continue // drain: cancelled
				}
				sp := specs[i]
				c, err := s.RunSetCtx(ctx, sp.Workload, sp.Mode, sp.Events)
				if err != nil {
					errOnce.Do(func() {
						first = err
						cancel()
					})
					continue
				}
				cells[i] = c
			}
		}()
	}
	for i := range specs {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	if first != nil {
		return nil, first
	}
	return cells, nil
}

// runSuite warms the cache for one mode's cell per workload under the
// standard events and returns the cells in suite order — the common
// single-mode table shape.
func (s *Session) runSuite(mode instrument.Mode) ([]*Cell, error) {
	specs := make([]CellSpec, len(s.Workloads))
	for i, w := range s.Workloads {
		specs[i] = CellSpec{Workload: w, Mode: mode, Events: standardSet()}
	}
	return s.RunAll(context.Background(), specs)
}
