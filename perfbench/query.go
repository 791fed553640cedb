package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"pathprof/internal/analysis"
	"pathprof/internal/collector"
	"pathprof/internal/experiments"
	"pathprof/internal/wire"
)

// writeRate is the open-loop writer's frames per second: the lowest rate
// at which a 10 s run (run_seconds in BENCHMARK.json) pushes the 1000
// frames a push p99 with ten samples beyond it needs. At the Relay
// defaults, one MaxItems frame per 1 s Interval, it is the upstream
// traffic of 100 relays.
const writeRate = 100

// tableQuery is one reader request: table 3, 4 or 5, or 0 for the
// named-metric table, over the listed programs (nil = the whole table).
type tableQuery struct {
	table    int
	programs []string
}

// queryMix draws the reader's seeded request sequence. No recorded
// traffic gives a mix, so each request draws its table and the number of
// programs it names uniformly: one to all of them, in a seeded choice.
// Naming all of them is the whole-table request, sent without ?programs=
// except for table 3, which always names its programs, because the k=2
// profile programs have no CCT and a whole-table /table/3 would refuse
// them.
type queryMix struct {
	rng        *rand.Rand
	profs, cct []string
}

func (m *queryMix) next() tableQuery {
	q := tableQuery{table: []int{3, 4, 5, 0}[m.rng.Intn(4)]}
	names := m.profs
	if q.table == 3 {
		names = m.cct
	}
	n := 1 + m.rng.Intn(len(names))
	if n == len(names) && q.table != 3 {
		return q
	}
	for _, i := range m.rng.Perm(len(names))[:n] {
		q.programs = append(q.programs, names[i])
	}
	return q
}

func (q tableQuery) do(ctx context.Context, cl *collector.Client) (string, error) {
	if q.table == 0 {
		return cl.MetricTable(ctx, q.programs)
	}
	return cl.Table(ctx, q.table, q.programs)
}

// The query workload reads beside writes. Set-up preloads the aggregate;
// then one closed-loop reader sends the seeded query mix through
// Client.Table and Client.MetricTable while one writer pushes ingest-style
// frames in an open loop at writeRate, each timed from its due time.
func runQuery(cfg config, tr *tracer) (*outcome, error) {
	o := newOutcome()
	d := drawService(cfg.seed, cfg.small)
	o.note("draw: test scale %s; ref scale %s", joinNames(d.test), joinNames(d.ref))
	var (
		pool   []envelope
		c      *collector.Collector
		counts []int64
	)
	sc := newSetupClock(serviceSetups, tr)
	if err := sc.setUp(func() (err error) {
		pool, c, counts, err = setUpQuery(d)
		return err
	}); err != nil {
		return nil, err
	}
	o.note("%d envelopes, each preloaded into all %d shards", len(pool), c.Config().Shards)

	srv, err := startServer(c, tr)
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	t := newTransport()
	defer t.base.CloseIdleConnections()
	cl := newClient(srv.url, t)
	st := newPushStats(len(pool))
	var shadow *collector.Collector
	var smp *sampler
	if tr != nil {
		shadow = collector.New(collector.Config{})
		smp = startSampler(c)
	}
	profs, ccts := tablePrograms(pool, counts)
	mix := &queryMix{rng: rand.New(rand.NewSource(cfg.seed)), profs: profs, cct: ccts}
	writer := &pusher{cl: cl, gen: newFrameGen(cfg.seed, 0, pool), st: st, tr: tr, shadow: shadow}

	ctx := context.Background()
	g0 := readGoStats()
	start := time.Now()
	deadline := cfg.deadline()
	var (
		wg      sync.WaitGroup
		lat     []float64
		badBody int
		rerr    error
	)
	wg.Add(2)
	go func() {
		defer wg.Done()
		for time.Now().Before(deadline) {
			q := mix.next()
			op := tr.newOp()
			s := tr.begin(op, 0, "bench.query")
			t0 := time.Now()
			body, err := q.do(withSpan(ctx, s), cl)
			l := ms(time.Since(t0))
			s.end()
			if err != nil {
				continue // the transport counted the failed attempt
			}
			if !strings.Contains(body, "Benchmark") && !strings.Contains(body, "Program") {
				badBody++
			}
			lat = append(lat, l)
			if tr != nil {
				if err := replayQuery(c, q, tr, op); err != nil && rerr == nil {
					rerr = err
				}
			}
		}
	}()
	go func() {
		defer wg.Done()
		interval := time.Second / writeRate
		for i := 0; ; i++ {
			due := start.Add(time.Duration(i) * interval)
			if due.After(deadline) {
				return
			}
			if wait := time.Until(due); wait > 0 {
				time.Sleep(wait)
			}
			writer.push(ctx, due)
		}
	}()
	wg.Wait()
	elapsed := time.Since(start)
	if smp != nil {
		smp.finish(o)
	}
	queries := len(lat)
	o.set("op_p50_ms", median(lat))
	o.set("query_per_s", float64(queries)/elapsed.Seconds())
	o.set("query_p50_ms", median(lat))
	o.set("query_p99_ms", percentile(lat, 99))
	o.note("queries: %d answered in %.2fs; p50 %.3f ms, p90 %.3f ms, p99 %.3f ms (n=%d)",
		queries, elapsed.Seconds(), median(lat), percentile(lat, 90), percentile(lat, 99), queries)
	reportPushes(o, st, elapsed)
	o.set("bench.gen_late_p99_ms", percentile(st.late, 99))
	o.note("writer: open loop at %d frames/s, generator late p99 %.3f ms", writeRate, percentile(st.late, 99))
	// The latency samples are the load generator's, not the system's
	// state, and grow with throughput: drop them before weighing the heap.
	lat, st.lat, st.late = nil, nil, nil
	o.set("live_heap_mb", liveHeapMB())
	g0.report(o, float64(queries))
	if err := st.fatal(); err != nil {
		return nil, err
	}
	if rerr != nil {
		return nil, rerr
	}
	if badBody > 0 {
		return nil, fmt.Errorf("check: %d query answers were not rendered tables", badBody)
	}

	for i, n := range st.counts {
		counts[i] += n
	}
	if cfg.hooks.counts != nil {
		cfg.hooks.counts(counts)
	}
	if _, _, err := checkServed(ctx, cl, c, pool, counts); err != nil {
		return nil, err
	}
	if err := checkRejections(t, 0, c); err != nil {
		return nil, err
	}
	o.note("check: tables 3, 4 and 5 served equal the local merge of the preload and every acked push")
	reportFailures(o, t)
	if tr != nil {
		reportLayers(o, tr, st)
	}
	if err := sc.finish(o, func() error {
		_, _, _, err := setUpQuery(d)
		return err
	}); err != nil {
		return nil, err
	}
	return o, nil
}

// setUpQuery collects the envelope pool and preloads a new collector.
func setUpQuery(d serviceDraw) ([]envelope, *collector.Collector, []int64, error) {
	pool, err := collectEnvelopes(d)
	if err != nil {
		return nil, nil, nil, err
	}
	c := collector.New(collector.Config{})
	counts, err := preload(c, pool)
	return pool, c, counts, err
}

// preload folds every pool envelope once into every shard of c and
// returns the envelope counts folded. It sends one frame through
// Collector.IngestFrame that repeats each envelope once per shard in a
// row, which the round-robin fold spreads over all shards. The aggregate
// then has its final shape: the writer's pushes only add counts, so a
// query costs the same at the start of the timed section as at its end.
func preload(c *collector.Collector, pool []envelope) ([]int64, error) {
	shards := c.Config().Shards
	var bw wire.BatchWriter
	counts := make([]int64, len(pool))
	for i, e := range pool {
		for range shards {
			if err := addEnvelope(&bw, e); err != nil {
				return nil, err
			}
		}
		counts[i] = int64(shards)
	}
	if _, _, err := c.IngestFrame(bw.Frame()); err != nil {
		return nil, fmt.Errorf("preloading: %w", err)
	}
	return counts, nil
}

// replayQuery re-runs the work behind one query through the narrower
// public calls the handler makes — shard snapshot and cross-shard merge,
// classification, statistics, render — each in its own span.
func replayQuery(c *collector.Collector, q tableQuery, tr *tracer, op int64) error {
	progs := q.programs
	if progs == nil {
		progs = c.Programs()
	}
	var buf bytes.Buffer
	switch q.table {
	case 3:
		var rows []experiments.Table3Row
		for _, name := range progs {
			s := tr.begin(op, 0, "collector.merged_export")
			ex, ok := c.MergedExport(name)
			s.end()
			if !ok {
				return fmt.Errorf("replaying a query: no CCT aggregate for %s", name)
			}
			s = tr.begin(op, 0, "cct.stats")
			rows = append(rows, experiments.Table3Row{Name: name, Stats: ex.Stats()})
			s.end()
		}
		s := tr.begin(op, 0, "experiments.render")
		experiments.RenderTable3(rows, &buf)
		s.end()
	case 4, 5, 0:
		var rows4 []experiments.Table4Result
		var rows5 []analysis.ProcReport
		for _, name := range progs {
			s := tr.begin(op, 0, "collector.merged_profile")
			p, ok := c.MergedProfile(name)
			s.end()
			if !ok {
				return fmt.Errorf("replaying a query: no profile aggregate for %s", name)
			}
			switch q.table {
			case 4:
				s = tr.begin(op, 0, "experiments.table4")
				rows4 = append(rows4, experiments.Table4FromProfile(name, p))
				s.end()
			case 5:
				s = tr.begin(op, 0, "analysis.classify_procs")
				rows5 = append(rows5, analysis.ClassifyProcs(p, analysis.DefaultHotThreshold))
				s.end()
			}
		}
		if q.table == 0 {
			return nil
		}
		s := tr.begin(op, 0, "experiments.render")
		if q.table == 4 {
			experiments.RenderTable4(rows4, &buf)
		} else {
			experiments.RenderTable5(rows5, &buf)
		}
		s.end()
	}
	return nil
}
