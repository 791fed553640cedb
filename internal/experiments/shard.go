package experiments

import (
	"context"
	"fmt"
	"sync"

	"pathprof/internal/agg"
	"pathprof/internal/cct"
	"pathprof/internal/hpm"
	"pathprof/internal/instrument"
	"pathprof/internal/wire"
	"pathprof/internal/workload"
)

// Sharded collection: the paper's instrumentation writes the CCT heap at
// program exit and merges trees from repeated runs offline. CollectSharded
// models that workflow in-process — every shard is an independent
// instrumented run (RunFreshSet) on the session's worker pool, the shards'
// exports are written into one wire-v3 frame as k pushes would carry them,
// and the frame folds through the aggregate fold (package agg) the way a
// collector folds k pushes.
//
// Workloads are deterministic, so all shards build structurally identical
// trees and the merged tree's shape statistics (everything Table 3 renders)
// are byte-identical to a single serial run at any shard count; only the
// accumulated counters scale with the number of shards. See EXPERIMENTS.md.

// CollectSharded executes `shards` instrumented runs of w under mode
// (which must be a CCT-building mode) and set, and returns their CCTs
// merged.
func (s *Session) CollectSharded(ctx context.Context, w workload.Workload, mode instrument.Mode, set hpm.MetricSet, shards int) (*cct.Export, error) {
	if !mode.UsesCCT() {
		return nil, fmt.Errorf("experiments: sharded collection needs a CCT mode, got %v", mode)
	}
	shards = max(shards, 1)
	cells := make([]*Cell, shards)
	errs := make([]error, shards)
	sem := make(chan struct{}, s.workers())
	var wg sync.WaitGroup
	for i := range cells {
		sem <- struct{}{}
		wg.Add(1)
		go func() {
			defer func() { <-sem; wg.Done() }()
			cells[i], errs[i] = s.RunFreshSet(ctx, w, mode, set)
		}()
	}
	wg.Wait()
	bw := wire.NewBatchWriter()
	for i, c := range cells {
		if errs[i] != nil {
			return nil, fmt.Errorf("shard %d: %w", i, errs[i])
		}
		if err := bw.AddExport(c.Tree.Export(w.Name)); err != nil {
			return nil, fmt.Errorf("experiments: %s shard %d: %w", w.Name, i, err)
		}
	}
	var merged agg.Set
	if err := merged.FoldFrame(&agg.Scratch{}, bw.Frame()); err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", w.Name, err)
	}
	return merged.CCTs[w.Name].Snapshot(), nil
}

// Table3Sharded builds Table 3 from sharded collection: every workload's
// combined flow+context CCT is collected over the given shard count and
// merged. The rendered rows are byte-identical to Table3's at any shard
// count (shape statistics are invariant under merging identical runs).
func (s *Session) Table3Sharded(shards int) ([]Table3Row, error) {
	var rows []Table3Row
	// Workloads run serially here; each one's shards already occupy the
	// worker pool.
	for _, w := range s.Workloads {
		ex, err := s.CollectSharded(context.Background(), w, instrument.ModeContextFlow, standardSet(), shards)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table3Row{Name: w.Name, Stats: ex.Stats()})
	}
	return rows, nil
}
