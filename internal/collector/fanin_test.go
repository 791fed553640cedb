package collector

import (
	"bytes"
	"context"
	"net/http/httptest"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"

	"pathprof/internal/experiments"
	"pathprof/internal/hpm"
	"pathprof/internal/instrument"
	"pathprof/internal/workload"
)

// TestRelayTreeFanIn is the scale acceptance test for batched ingest: a
// large producer population pushes through a two-level relay tree —
// producers batch envelopes into wire-v3 frames and POST them to one of
// two leaf relay collectors, each relay pre-merges and periodically
// pushes batched frames to the root — and the root's tables 3 and 5
// must come out byte-identical to the in-process ground truth
// (Session.Table3Sharded / Session.Table5). That holds at any producer
// count because Table 3's statistics are shape-only and Table 5's
// percentages are scale-invariant, so the oracle checks the full
// topology (batch encode → leaf fold → relay take/merge → root fold)
// without depending on how many producers ran.
//
// PPD_FANIN_PRODUCERS overrides the producer count (ci.sh runs a
// scaled-down smoke; the default exercises the full 10k).
func TestRelayTreeFanIn(t *testing.T) {
	producers := 10000
	if s := os.Getenv("PPD_FANIN_PRODUCERS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 {
			t.Fatalf("bad PPD_FANIN_PRODUCERS %q", s)
		}
		producers = n
	} else if testing.Short() {
		producers = 1000
	}

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
	rows, err := s.Table3Sharded(4)
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

	// What each producer pushes: every producer contributes one envelope,
	// cycling through (program x kind) so all four aggregate streams see
	// producers/4 pushes each. The envelope values are the session's
	// deterministic runs — the same trees and profiles the ground truth
	// was computed from.
	type push struct {
		prog int // index into programs
		cct  bool
	}
	var kinds []push
	envs := make([]envelope, 0, 2*len(programs))
	ctx := context.Background()
	for pi, w := range ws {
		tc, err := s.RunSet(w, instrument.ModeContextFlow, hpm.NewMetricSet(experiments.StandardEvents[:]...))
		if err != nil {
			t.Fatal(err)
		}
		pc, err := s.RunSet(w, instrument.ModePathHW, hpm.NewMetricSet(experiments.StandardEvents[:]...))
		if err != nil {
			t.Fatal(err)
		}
		envs = append(envs, envelope{ex: tc.Tree.Export(w.Name)}, envelope{p: pc.Profile})
		kinds = append(kinds, push{prog: pi, cct: true}, push{prog: pi, cct: false})
	}
	if producers%len(kinds) != 0 {
		t.Fatalf("producer count %d must be a multiple of %d so every stream is covered evenly", producers, len(kinds))
	}

	// The tree: root <- {leaf0, leaf1} <- producers.
	root := New(Config{Shards: 4})
	rootSrv := httptest.NewServer(root.Handler())
	defer rootSrv.Close()

	const fanout = 2
	var leaves []*Relay
	var leafCls []*Client
	for i := 0; i < fanout; i++ {
		leaf := New(Config{Shards: 4})
		srv := httptest.NewServer(leaf.Handler())
		defer srv.Close()
		r := &Relay{
			Local:    leaf,
			Upstream: &Client{BaseURL: rootSrv.URL, HTTPClient: rootSrv.Client(), Retry: &RetryPolicy{}},
			Interval: 50 * time.Millisecond,
			MaxItems: 64,
		}
		r.Start()
		leaves = append(leaves, r)
		leafCls = append(leafCls, &Client{BaseURL: srv.URL, HTTPClient: srv.Client(), Retry: &RetryPolicy{}})
	}

	// Producer fleet: workers simulate producers/workers producers each;
	// every worker batches into wire-v3 frames per leaf, as cmd/ppd push
	// -batch does.
	const workers = 16
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			batchers := make([]*Batcher, fanout)
			for i, cl := range leafCls {
				batchers[i] = NewBatcher(cl, 64, 100*time.Millisecond)
			}
			for i := w; i < producers; i += workers {
				k := kinds[i%len(kinds)]
				e := envs[i%len(kinds)]
				b := batchers[i%fanout]
				var err error
				if k.cct {
					err = b.AddExport(ctx, e.ex)
				} else {
					err = b.AddProfile(ctx, e.p)
				}
				if err != nil {
					errs <- err
					return
				}
			}
			for _, b := range batchers {
				if err := b.Close(ctx); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Drain the tree: final relay flushes push everything upstream.
	for _, r := range leaves {
		if err := r.Stop(ctx); err != nil {
			t.Fatal(err)
		}
	}

	rootCl := &Client{BaseURL: rootSrv.URL, HTTPClient: rootSrv.Client()}
	gotT3, err := rootCl.Table(ctx, 3, programs)
	if err != nil {
		t.Fatal(err)
	}
	if gotT3 != wantT3.String() {
		t.Errorf("Table 3 through the relay tree differs from local ground truth\n--- relay tree ---\n%s\n--- local ---\n%s",
			gotT3, wantT3.String())
	}
	gotT5, err := rootCl.Table(ctx, 5, programs)
	if err != nil {
		t.Fatal(err)
	}
	if gotT5 != wantT5.String() {
		t.Errorf("Table 5 through the relay tree differs from local ground truth\n--- relay tree ---\n%s\n--- local ---\n%s",
			gotT5, wantT5.String())
	}

	// Accounting: every producer's envelope must be represented in the
	// root's merged counters. Producers of each program pushed the same
	// profile producers/4 times, so the merged path-execution total is
	// exactly that multiple of one run's total.
	perStream := uint64(producers / len(kinds))
	for pi, name := range programs {
		merged, ok := root.MergedProfile(name)
		if !ok {
			t.Fatalf("root has no merged profile for %s", name)
		}
		wf, _ := envs[2*pi+1].p.Totals()
		if gf, _ := merged.Totals(); gf != perStream*wf {
			t.Fatalf("%s: merged freq %d, want %d pushes x %d", name, gf, perStream, wf)
		}
	}
	var relayed uint64
	for _, r := range leaves {
		relayed += r.Stats().EnvelopesPushed
	}
	if relayed == 0 {
		t.Fatal("relays pushed nothing upstream")
	}
	t.Logf("%d producers -> %d leaf relays -> root: %d pre-merged envelopes upstream (%.0fx fan-in reduction)",
		producers, fanout, relayed, float64(producers)/float64(relayed))
}
