package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"pathprof/internal/collector"
	"pathprof/internal/store"
)

// serviceSetups is how many set-ups a service workload's untraced pass
// makes on each side of its timed section.
const serviceSetups = 2

// The ingest workload is a producer fleet draining into an in-memory
// collector: workers closed-loop pushers each encode seeded frames of
// frameItems envelopes and POST them with Client.PushFrame until the
// deadline.
func runIngest(cfg config, tr *tracer) (*outcome, error) {
	o := newOutcome()
	d := drawService(cfg.seed, cfg.small)
	o.note("draw: test scale %s; ref scale %s", joinNames(d.test), joinNames(d.ref))
	var pool []envelope
	sc := newSetupClock(serviceSetups, tr)
	if err := sc.setUp(func() (err error) {
		pool, err = collectEnvelopes(d)
		return err
	}); err != nil {
		return nil, err
	}
	o.note("%d envelopes", len(pool))

	c := collector.New(collector.Config{})
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

	ctx := context.Background()
	g0 := readGoStats()
	start := time.Now()
	deadline := cfg.deadline()
	closedPushers(ctx, func(i int) *pusher {
		return &pusher{cl: cl, gen: newFrameGen(cfg.seed, i, pool), st: st, tr: tr, shadow: shadow}
	}, func(int) bool { return time.Now().After(deadline) })
	elapsed := time.Since(start)
	if smp != nil {
		smp.finish(o)
	}
	o.set("op_p50_ms", median(st.lat))
	reportPushes(o, st, elapsed)
	// The latency samples are the load generator's, not the system's
	// state, and grow with throughput: drop them before weighing the heap.
	st.lat, st.late = nil, nil
	o.set("live_heap_mb", liveHeapMB())
	g0.report(o, float64(st.frames))
	if err := st.fatal(); err != nil {
		return nil, err
	}

	if cfg.hooks.counts != nil {
		cfg.hooks.counts(st.counts)
	}
	if _, _, err := checkServed(ctx, cl, c, pool, st.counts); err != nil {
		return nil, err
	}
	if err := checkRejections(t, 0, c); err != nil {
		return nil, err
	}
	o.note("check: tables 3, 4 and 5 served equal the local merge of every acked envelope")
	reportFailures(o, t)
	if tr != nil {
		reportLayers(o, tr, st)
	}
	if err := sc.finish(o, func() error {
		_, err := collectEnvelopes(d)
		return err
	}); err != nil {
		return nil, err
	}
	return o, nil
}

// durableRoundFrames is the frames every durable round pushes (half per
// pusher at two pushers): about 9 MB of log, well under the four sealed
// segments that would start compaction, so each round logs and replays
// the same work.
const durableRoundFrames = 800

// durableRound is what one durable round measured.
type durableRound struct {
	push   time.Duration // push phase
	heapMB float64       // live heap at the end of the push phase
	rcv    recovery
	store  store.Metrics
}

// The durable workload is the ingest traffic into a collector with a
// store mounted through Collector.OpenStore with the ppd serve -data-dir
// defaults. It runs rounds until the deadline: each round pushes the same
// number of frames into a fresh store, then closes the store and reopens
// it on a fresh collector, which replays the log, and times until tables
// are served again.
//
// Its op is one such recovery. Push latency here is the disk's fsync
// latency, which on a shared host moves by a factor of three within
// minutes, so the push figures are per-layer metrics; replay is CPU work
// on a log the page cache still holds.
func runDurable(cfg config, tr *tracer) (*outcome, error) {
	o := newOutcome()
	d := drawService(cfg.seed, cfg.small)
	o.note("draw: test scale %s; ref scale %s", joinNames(d.test), joinNames(d.ref))
	base := filepath.Join(cfg.out, fmt.Sprintf("durable-%d-%d", cfg.seed, os.Getpid()))
	defer os.RemoveAll(base)

	var (
		pool []envelope
		c    *collector.Collector
		lg   *store.Log
		dir  string
		n    int
	)
	// open mounts a fresh store in a new directory on a fresh collector.
	// The zero store.Options select the ppd serve -data-dir defaults.
	open := func() error {
		n++
		dir = filepath.Join(base, fmt.Sprintf("store%d", n))
		c = collector.New(collector.Config{})
		var err error
		lg, _, err = c.OpenStore(dir, store.Options{})
		return err
	}
	sc := newSetupClock(serviceSetups, tr)
	if err := sc.setUp(func() error {
		if lg != nil {
			if err := lg.Close(); err != nil {
				return fmt.Errorf("closing the previous set-up's store: %w", err)
			}
		}
		var err error
		if pool, err = collectEnvelopes(d); err != nil {
			return err
		}
		return open()
	}); err != nil {
		return nil, err
	}
	o.note("%d envelopes", len(pool))

	frames := durableRoundFrames
	if cfg.small {
		frames = 40
	}
	t := newTransport()
	defer t.base.CloseIdleConnections()
	st := newPushStats(len(pool))
	var shadow *collector.Collector
	if tr != nil {
		shadow = collector.New(collector.Config{})
	}
	ctx := context.Background()
	// round runs one round on the mounted store lg of c: push the round's
	// frames, check the served tables, close, recover, and check the
	// recovered tables.
	round := func(r int) (durableRound, error) {
		var rd durableRound
		srv, err := startServer(c, tr)
		if err != nil {
			lg.Close()
			return rd, err
		}
		cl := newClient(srv.url, t)
		var smp *sampler
		if tr != nil {
			smp = startSampler(c)
		}
		// Each round's frames, acked counts and rejections are its own.
		rs := newPushStats(len(pool))
		rejectedBefore := t.pushRejected.Load()
		per := (frames + workers - 1) / workers
		start := time.Now()
		closedPushers(ctx, func(i int) *pusher {
			return &pusher{cl: cl, gen: newFrameGen(cfg.seed, r*workers+i, pool), st: rs, tr: tr, shadow: shadow}
		}, func(pushed int) bool { return pushed >= per })
		rd.push = time.Since(start)
		if smp != nil {
			smp.finish(o)
		}
		// The earlier rounds' push samples are the load generator's, not
		// the system's state, and grow with the round count.
		rd.heapMB = liveHeapMB() - st.sampleMB()
		rd.store = lg.Metrics()
		st.merge(rs)

		if cfg.hooks.counts != nil {
			cfg.hooks.counts(rs.counts)
		}
		err = rs.fatal()
		var before tableSet
		var local merged
		if err == nil {
			before, local, err = checkServed(ctx, cl, c, pool, rs.counts)
		}
		if err == nil {
			err = checkRejections(t, rejectedBefore, c)
		}
		// Restart: stop serving, drain, close the store, and recover it into a
		// fresh collector.
		if err = errors.Join(err, srv.stop(), c.Shutdown(ctx), lg.Close()); err != nil {
			return rd, err
		}
		if cfg.hooks.log != nil {
			if err := cfg.hooks.log(dir); err != nil {
				return rd, err
			}
		}
		if rd.rcv, err = recoverStore(ctx, dir, tr, t, local); err != nil {
			return rd, err
		}
		return rd, compareTables("after replay vs before the restart", rd.rcv.tables, before)
	}
	g0 := readGoStats()
	deadline := cfg.deadline()
	var rounds []durableRound
	for r := 0; r == 0 || time.Now().Before(deadline); r++ {
		if r > 0 {
			if err := open(); err != nil {
				return nil, err
			}
		}
		rd, err := round(r)
		if err != nil {
			return nil, err
		}
		rounds = append(rounds, rd)
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
	}
	// go.* per frame pushed; cpu_us_per_op is reset below to the
	// recoveries' CPU time, the durable op.
	g0.report(o, float64(st.frames))

	var push, cpu time.Duration
	var recs, replays, heaps []float64
	var sm store.Metrics
	for _, rd := range rounds {
		push += rd.push
		cpu += rd.rcv.cpu
		recs = append(recs, rd.rcv.wall.Seconds())
		heaps = append(heaps, rd.heapMB)
		replays = append(replays, float64(rd.rcv.rec.Nanos)/1e6)
		sm.Appends += rd.store.Appends
		sm.Fsyncs += rd.store.Fsyncs
		sm.FsyncNanos += rd.store.FsyncNanos
		sm.AppendWaitNanos += rd.store.AppendWaitNanos
		sm.AppendedBytes += rd.store.AppendedBytes
	}
	o.set("op_p50_ms", 1000*median(recs))
	o.set("cpu_us_per_op", us(cpu)/float64(len(rounds)))
	o.set("live_heap_mb", median(heaps))
	reportPushes(o, st, push)
	o.set("recover_s", median(recs))
	o.set("store.replay_records", float64(rounds[0].rcv.rec.Records))
	o.set("store.replay_ms", median(replays))
	o.set("store.appends_per_fsync", ratio(float64(sm.Appends), float64(sm.Fsyncs)))
	o.set("store.fsync_us", ratio(float64(sm.FsyncNanos)/1e3, float64(sm.Fsyncs)))
	o.set("store.append_wait_us", ratio(float64(sm.AppendWaitNanos)/1e3, float64(sm.Appends)))
	o.set("store.bytes_per_env", ratio(float64(sm.AppendedBytes), float64(st.frames*frameItems)))
	o.note("rounds: %d of %d frames; store %d appends in %d fsyncs (%.2f per fsync), %.0f us per fsync",
		len(rounds), frames, sm.Appends, sm.Fsyncs, ratio(float64(sm.Appends), float64(sm.Fsyncs)),
		ratio(float64(sm.FsyncNanos)/1e3, float64(sm.Fsyncs)))
	o.note("recovery: %d records replayed in %.1f ms (median); tables served %.1f ms after OpenStore (median of %d)",
		rounds[0].rcv.rec.Records, median(replays), 1000*median(recs), len(recs))
	o.note("check: every round's tables 3, 4 and 5 equal the local merge before the restart and are byte-identical after replay")
	reportFailures(o, t)
	if tr != nil {
		reportLayers(o, tr, st)
	}
	if err := sc.finish(o, func() error {
		if _, err := collectEnvelopes(d); err != nil {
			return err
		}
		if err := open(); err != nil {
			return err
		}
		return lg.Close()
	}); err != nil {
		return nil, err
	}
	return o, nil
}

// recovery is what reopening a store measured.
type recovery struct {
	rec    store.Recovery
	tables tableSet
	wall   time.Duration // OpenStore until the first table was served
	cpu    time.Duration // process CPU time over the same interval
}

// recoverStore opens the closed store on a fresh collector, serves it,
// fetches the tables, and requires the recovered aggregates to equal the
// local merge of what was acknowledged before the restart.
func recoverStore(ctx context.Context, dir string, tr *tracer, t *countingTransport, local merged) (recovery, error) {
	profs, ccts := sortedKeys(local.profs), sortedKeys(local.exps)
	var r recovery
	c := collector.New(collector.Config{})
	cpu0, start := cpuTime(), time.Now()
	lg, rec, err := c.OpenStore(dir, store.Options{})
	if err != nil {
		return r, fmt.Errorf("reopening the store: %w", err)
	}
	defer lg.Close()
	r.rec = rec
	srv, err := startServer(c, tr)
	if err != nil {
		return r, err
	}
	defer srv.stop()
	cl := newClient(srv.url, t)
	if _, err := cl.Table(ctx, 4, profs); err != nil {
		return r, fmt.Errorf("first table after recovery: %w", err)
	}
	r.wall, r.cpu = time.Since(start), cpuTime()-cpu0
	if r.tables, err = fetchTables(ctx, cl, profs, ccts); err != nil {
		return r, err
	}
	return r, local.check(c, "after replay")
}

// fatal returns the producers' errors other than failed pushes, joined.
// Failed pushes are not fatal: the transport counted their attempts.
func (st *pushStats) fatal() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	return errors.Join(st.errs...)
}
