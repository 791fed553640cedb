package collector

import (
	"bytes"
	"context"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"pathprof/internal/experiments"
	"pathprof/internal/hpm"
	"pathprof/internal/instrument"
	"pathprof/internal/workload"
)

// TestEndToEndShardedCollection is the acceptance test for the collection
// tier: k concurrent push clients, each running its own instrumented
// executions and uploading them in wire format to a live collector, must
// yield a Table 3 byte-identical to the in-process sharded collection
// path (Session.CollectSharded via Table3Sharded) with the same shard
// count, and a Table 5 byte-identical to Session.Table5. Both hold
// because the workloads are deterministic — every push carries a
// structurally identical tree/profile, and merging k of them preserves
// shape statistics exactly while scaling only the counters.
func TestEndToEndShardedCollection(t *testing.T) {
	const k = 4 // pushers == shards, matching Table3Sharded(k)
	programs := []string{"compress", "objdb"}

	s := experiments.NewSession(workload.Test)
	var ws []workload.Workload
	for _, name := range programs {
		w, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("unknown workload %q", name)
		}
		ws = append(ws, w)
	}
	s.Workloads = ws

	// Ground truth, computed locally.
	rows, err := s.Table3Sharded(k)
	if err != nil {
		t.Fatal(err)
	}
	var wantT3 bytes.Buffer
	experiments.RenderTable3(rows, &wantT3)
	t5, err := s.Table5()
	if err != nil {
		t.Fatal(err)
	}
	var wantT5 bytes.Buffer
	experiments.RenderTable5(t5, &wantT5)

	// Live collector plus k concurrent push clients. Every pusher runs
	// its own fresh instrumented executions (no shared cached cell) and
	// uploads through the same client code cmd/ppd uses.
	c := New(Config{Shards: k})
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	ctx := context.Background()

	var wg sync.WaitGroup
	errs := make(chan error, k*len(programs)*2)
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := &Client{BaseURL: srv.URL, HTTPClient: srv.Client()}
			for _, w := range ws {
				tree, err := s.RunFreshSet(ctx, w, instrument.ModeContextFlow, hpm.NewMetricSet(experiments.StandardEvents[:]...))
				if err == nil {
					_, err = cl.PushRun(ctx, tree)
				}
				if err != nil {
					errs <- err
					continue
				}
				prof, err := s.RunFreshSet(ctx, w, instrument.ModePathHW, hpm.NewMetricSet(experiments.StandardEvents[:]...))
				if err == nil {
					_, err = cl.PushRun(ctx, prof)
				}
				if err != nil {
					errs <- err
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	cl := &Client{BaseURL: srv.URL, HTTPClient: srv.Client()}
	gotT3, err := cl.Table(ctx, 3, programs)
	if err != nil {
		t.Fatal(err)
	}
	if gotT3 != wantT3.String() {
		t.Errorf("Table 3 from the collector differs from sharded local collection\n--- collector ---\n%s\n--- local ---\n%s",
			gotT3, wantT3.String())
	}
	gotT5, err := cl.Table(ctx, 5, programs)
	if err != nil {
		t.Fatal(err)
	}
	if gotT5 != wantT5.String() {
		t.Errorf("Table 5 from the collector differs from the local session\n--- collector ---\n%s\n--- local ---\n%s",
			gotT5, wantT5.String())
	}
	// Table 4 totals scale with k, so check shape rather than bytes.
	gotT4, err := cl.Table(ctx, 4, programs)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range programs {
		if !strings.Contains(gotT4, name) {
			t.Errorf("Table 4 misses %s:\n%s", name, gotT4)
		}
	}
	m := c.Metrics()
	if want := uint64(k * len(programs)); m.IngestedCCTs != want || m.IngestedProfiles != want {
		t.Fatalf("ingested %d ccts / %d profiles, want %d each", m.IngestedCCTs, m.IngestedProfiles, want)
	}
}
