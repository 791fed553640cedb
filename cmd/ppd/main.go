// Command ppd is the profile collection daemon and its push client.
//
// Serve mode runs the collection service: an HTTP daemon that ingests
// wire-format profiles from many concurrent producers into sharded
// in-memory aggregates and renders the paper's tables from the merged
// data:
//
//	ppd serve [-addr :7997] [-shards 4] [-max-body 64MiB]
//	          [-max-concurrent 64] [-max-queue 256] [-retry-after 1s]
//	          [-timeout 30s]
//	          [-data-dir DIR] [-durability none|batch]
//	          [-max-log-bytes N] [-segment-bytes 8MiB]
//	          [-fsync-batch 256] [-fsync-wait 2ms]
//	          [-snapshot-interval 0] [-compact-after 4]
//
// When the concurrency slots and wait queue are full, serve sheds new
// pushes with 429 + Retry-After; push and relay clients back off and
// retry automatically.
//
// Durability: by default (-durability=none) aggregates live only in
// memory — fast, and gone on restart. -data-dir mounts the storage tier
// (internal/store) and switches to -durability=batch: every push is
// appended to a segmented CRC-framed log and group-committed — many
// concurrent pushes coalesce into one fsync — before it is acked, so an
// acked push survives kill -9; startup replays the log (and the newest
// snapshot) back into the aggregates. -max-log-bytes bounds the log's
// disk use (pushes beyond it shed with 503 + Retry-After until
// compaction or a snapshot frees space), -compact-after rewrites that
// many sealed segments as pre-merged frames, and -snapshot-interval
// takes periodic snapshots that bound replay time (POST /store/snapshot
// and /store/compact trigger both on demand). The modes are explicit:
// asking for -durability=batch without -data-dir, or -durability=none
// with one, is a configuration error.
//
// Relay mode runs a local collector that forwards: leaf producers push
// to the relay, which pre-merges their envelopes and periodically
// pushes one batched frame per interval upstream. Chain relays to build
// a fan-in tree whose root sees one pre-merged push stream per child
// instead of one per producer:
//
//	ppd relay -addr :7998 -upstream http://root:7997
//	          [-interval 1s] [-batch 64] [-shards 4]
//	          [-data-dir DIR] [-durability none|batch] [...store flags]
//
// A relay with -data-dir becomes a durable spool: leaf pushes are on
// disk before they are acked, a crash replays everything not yet
// delivered upstream, and each fully flushed batch checkpoints the
// spool. Timed snapshots are forced off in relay mode — the
// post-flush checkpoint replaces them.
//
// Push mode runs instrumented workloads locally and uploads what they
// produce — CCT-building modes contribute their calling context tree,
// profile modes their path profile:
//
//	ppd push -addr http://host:7997 -workload compress[,objdb,...]
//	         [-mode combined|flow|flowhw|context|block] [-scale test|ref]
//	         [-events dcache-miss,insts] [-runs 1] [-parallel N]
//	         [-batch 1] [-max-wait 1s]
//
// -events takes any number of comma-separated event names; the pushed
// profiles carry the schema, and the collector refuses to merge pushes
// whose schemas disagree (HTTP 409). Every POST carries one wire-v3
// frame; -batch > 1 coalesces that many envelopes into each frame
// (flushed early after -max-wait), which is how large producer fleets
// should push.
//
// Query mode fetches a rendered table from a running daemon ("metrics"
// renders per-program totals under the schema's named columns):
//
//	ppd query -addr http://host:7997 -table 3|4|5|metrics
//	          [-programs compress,objdb]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"pathprof/internal/collector"
	"pathprof/internal/experiments"
	"pathprof/internal/hpm"
	"pathprof/internal/instrument"
	"pathprof/internal/store"
	"pathprof/internal/workload"
)

// storeFlags is the flag group shared by serve and relay for mounting
// the durable storage tier.
type storeFlags struct {
	dataDir      *string
	durability   *string
	maxLogBytes  *int64
	segmentBytes *int64
	fsyncBatch   *int
	fsyncWait    *time.Duration
	snapInterval *time.Duration
	compactAfter *int
}

func addStoreFlags(fs *flag.FlagSet) *storeFlags {
	return &storeFlags{
		dataDir:      fs.String("data-dir", "", "store directory; mounts the durable storage tier"),
		durability:   fs.String("durability", "", "ack mode: none (in-memory) or batch (ack after group-committed fsync); default follows -data-dir"),
		maxLogBytes:  fs.Int64("max-log-bytes", 0, "log disk budget; pushes beyond it shed with 503 until space is freed (0 = unbounded)"),
		segmentBytes: fs.Int64("segment-bytes", 8<<20, "seal segments at this size"),
		fsyncBatch:   fs.Int("fsync-batch", 256, "max pushes coalesced into one fsync"),
		fsyncWait:    fs.Duration("fsync-wait", 2*time.Millisecond, "max time the group committer gathers a non-full batch"),
		snapInterval: fs.Duration("snapshot-interval", 0, "periodic snapshot period (0 = manual/ops-endpoint only)"),
		compactAfter: fs.Int("compact-after", 4, "compact once this many sealed segments pend (-1 disables)"),
	}
}

// mount validates the durability flags and, when a data directory is
// configured, opens/recovers the store onto c. Returns nil when running
// in-memory.
func (sf *storeFlags) mount(c *collector.Collector) *store.Log {
	mode, err := collector.ParseAckMode(*sf.durability)
	if err != nil {
		log.Fatal(err)
	}
	switch {
	case *sf.dataDir == "" && *sf.durability == "":
		return nil // explicit default: in-memory
	case *sf.dataDir == "" && mode == collector.AckBatch:
		log.Fatal("-durability=batch needs -data-dir")
	case *sf.dataDir == "":
		return nil
	case mode == collector.AckNone && *sf.durability != "":
		log.Fatal("-durability=none contradicts -data-dir; drop one")
	}
	l, rec, err := c.OpenStore(*sf.dataDir, store.Options{
		SegmentBytes:  *sf.segmentBytes,
		MaxLogBytes:   *sf.maxLogBytes,
		MaxBatch:      *sf.fsyncBatch,
		MaxWait:       *sf.fsyncWait,
		CompactAfter:  *sf.compactAfter,
		SnapshotEvery: *sf.snapInterval,
		Logf:          log.Printf,
	})
	if err != nil {
		log.Fatalf("opening store: %v", err)
	}
	log.Printf("store %s: recovered %d records (%d segments, %d dup, %d rejected by the fold, %d torn bytes dropped) in %.1fms%s",
		*sf.dataDir, rec.Records, rec.Segments, rec.Duplicates, rec.ApplyErrors, rec.TruncatedBytes,
		float64(rec.Nanos)/1e6, snapNote(rec))
	return l
}

func snapNote(rec store.Recovery) string {
	if rec.SnapshotSeq == 0 {
		return ""
	}
	return fmt.Sprintf(" + snapshot@%d (%d bytes)", rec.SnapshotSeq, rec.SnapshotBytes)
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("ppd: ")
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "serve":
		serve(os.Args[2:])
	case "relay":
		relay(os.Args[2:])
	case "push":
		push(os.Args[2:])
	case "query":
		query(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: ppd serve|relay|push|query [flags] (see -h of each subcommand)")
	os.Exit(2)
}

func serve(args []string) {
	fs := flag.NewFlagSet("ppd serve", flag.ExitOnError)
	addr := fs.String("addr", ":7997", "listen address")
	shards := fs.Int("shards", 4, "aggregate shards")
	maxBody := fs.Int64("max-body", 64<<20, "max request body bytes")
	maxConc := fs.Int("max-concurrent", 64, "max concurrent ingests")
	maxQueue := fs.Int("max-queue", 256, "max ingests waiting for a slot before shedding with 429")
	retryAfter := fs.Duration("retry-after", time.Second, "Retry-After hint sent with 429 responses")
	timeout := fs.Duration("timeout", 30*time.Second, "per-ingest request timeout")
	drain := fs.Duration("drain", 30*time.Second, "shutdown drain budget")
	sf := addStoreFlags(fs)
	fs.Parse(args)

	c := collector.New(collector.Config{
		Shards:         *shards,
		MaxBodyBytes:   *maxBody,
		MaxConcurrent:  *maxConc,
		MaxQueue:       *maxQueue,
		RetryAfter:     *retryAfter,
		RequestTimeout: *timeout,
	})
	l := sf.mount(c)
	srv := &http.Server{Addr: *addr, Handler: c.Handler()}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		defer close(done)
		<-stop
		log.Printf("draining (up to %v)...", *drain)
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := c.Shutdown(ctx); err != nil {
			log.Printf("drain incomplete: %v", err)
		}
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("http shutdown: %v", err)
		}
		if l != nil {
			// A parting snapshot makes the next startup replay one frame
			// instead of the whole log tail. Best-effort: the log already
			// holds everything acked.
			if err := c.Checkpoint(); err != nil {
				log.Printf("shutdown snapshot: %v", err)
			}
			if err := l.Close(); err != nil {
				log.Printf("closing store: %v", err)
			}
		}
	}()

	cfg := c.Config()
	log.Printf("collector listening on %s (%d shards, %d concurrent, %s timeout, durability %s)",
		*addr, cfg.Shards, cfg.MaxConcurrent, cfg.RequestTimeout, c.AckMode())
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	<-done
	m := c.Metrics()
	log.Printf("drained: %d profiles, %d ccts, %d bytes ingested",
		m.IngestedProfiles, m.IngestedCCTs, m.IngestedBytes)
	if m.Store != nil {
		log.Printf("store: %d appends in %d fsyncs (max batch %d), %d segments, %d live bytes",
			m.Store.Appends, m.Store.Fsyncs, m.Store.BatchMax, m.Store.Segments, m.Store.LiveBytes)
	}
}

func relay(args []string) {
	fs := flag.NewFlagSet("ppd relay", flag.ExitOnError)
	addr := fs.String("addr", ":7998", "listen address for leaf producers")
	upstream := fs.String("upstream", "", "base URL of the upstream collector (required)")
	interval := fs.Duration("interval", time.Second, "upstream flush period")
	batch := fs.Int("batch", 64, "max envelopes per upstream frame")
	shards := fs.Int("shards", 4, "aggregate shards")
	drain := fs.Duration("drain", 30*time.Second, "shutdown drain budget")
	sf := addStoreFlags(fs)
	fs.Parse(args)

	if *upstream == "" {
		log.Fatal("relay needs -upstream http://host:port")
	}
	// Durable relays checkpoint after each fully flushed batch; a timed
	// snapshot racing a flush could capture the taken-but-unpushed gap,
	// so it is forced off (see collector.Relay).
	*sf.snapInterval = 0
	c := collector.New(collector.Config{Shards: *shards})
	l := sf.mount(c)
	r := &collector.Relay{
		Local:    c,
		Upstream: &collector.Client{BaseURL: strings.TrimRight(*upstream, "/"), Retry: &collector.RetryPolicy{}},
		Interval: *interval,
		MaxItems: *batch,
	}
	srv := &http.Server{Addr: *addr, Handler: c.Handler()}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		defer close(done)
		<-stop
		log.Printf("draining (up to %v)...", *drain)
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := c.Shutdown(ctx); err != nil {
			log.Printf("drain incomplete: %v", err)
		}
		if err := r.Stop(ctx); err != nil {
			log.Printf("final upstream flush: %v", err)
		}
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("http shutdown: %v", err)
		}
		if l != nil {
			// A clean final flush already checkpointed the spool; a failed
			// one left its envelopes in the log for the next incarnation.
			if err := l.Close(); err != nil {
				log.Printf("closing store: %v", err)
			}
		}
	}()

	r.Start()
	log.Printf("relay listening on %s, forwarding to %s every %v (batch %d)",
		*addr, *upstream, *interval, *batch)
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	<-done
	st := r.Stats()
	log.Printf("relayed %d envelopes in %d frames (%d flush failures, %d refused items dropped on refold)",
		st.EnvelopesPushed, st.FramesPushed, st.FlushFailures, st.RefoldDropped)
}

func push(args []string) {
	fs := flag.NewFlagSet("ppd push", flag.ExitOnError)
	addr := fs.String("addr", "http://localhost:7997", "collector base URL")
	names := fs.String("workload", "", "comma-separated workloads to run and push")
	modeStr := fs.String("mode", "combined", "flow | flowhw | context | combined | block")
	scaleStr := fs.String("scale", "test", "workload scale: ref or test")
	events := fs.String("events", "dcache-miss,insts", "comma-separated event selection (any number of names)")
	runs := fs.Int("runs", 1, "independent instrumented runs to push per workload")
	parallel := fs.Int("parallel", 0, "concurrent pushers (0 = one per workload)")
	batch := fs.Int("batch", 1, "envelopes per POST frame (>1 batches them)")
	maxWait := fs.Duration("max-wait", time.Second, "flush a partial batch this long after its first envelope")
	fs.Parse(args)

	if *names == "" {
		log.Fatal("no workload given (try -workload compress)")
	}
	var suite []workload.Workload
	for _, name := range strings.Split(*names, ",") {
		w, ok := workload.ByName(strings.TrimSpace(name))
		if !ok {
			log.Fatalf("unknown workload %q", name)
		}
		suite = append(suite, w)
	}
	scale := workload.Test
	if *scaleStr == "ref" {
		scale = workload.Ref
	}
	mode, err := parseMode(*modeStr)
	if err != nil {
		log.Fatal(err)
	}
	set, err := hpm.ParseMetricSet(*events)
	if err != nil {
		log.Fatal(err)
	}

	s := experiments.NewSession(scale)
	s.Workloads = suite
	cl := &collector.Client{BaseURL: strings.TrimRight(*addr, "/"), Retry: &collector.RetryPolicy{}}
	var batcher *collector.Batcher
	if *batch > 1 {
		batcher = collector.NewBatcher(cl, *batch, *maxWait)
	}
	ctx := context.Background()

	workers := *parallel
	if workers <= 0 {
		workers = len(suite)
	}
	type job struct {
		w   workload.Workload
		run int
	}
	jobs := make(chan job)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				// Every push is an independent re-collected run, as if a
				// separate machine had executed the workload.
				cell, err := s.RunFreshSet(ctx, j.w, mode, set)
				var resps []collector.IngestResponse
				if err == nil {
					if batcher != nil {
						err = batchRun(ctx, batcher, cell)
					} else {
						resps, err = cl.PushRun(ctx, cell)
					}
				}
				mu.Lock()
				if err != nil {
					log.Printf("%s run %d: %v", j.w.Name, j.run, err)
					if firstErr == nil {
						firstErr = err
					}
				} else if batcher != nil {
					log.Printf("%s run %d: batched", j.w.Name, j.run)
				} else {
					for _, r := range resps {
						kind := "profile"
						if r.CCTs > 0 {
							kind = "cct"
						}
						log.Printf("%s run %d: pushed %s %s", j.w.Name, j.run, kind, j.w.Name)
					}
				}
				mu.Unlock()
			}
		}()
	}
	for r := 0; r < *runs; r++ {
		for _, w := range suite {
			jobs <- job{w, r}
		}
	}
	close(jobs)
	wg.Wait()
	if batcher != nil {
		if err := batcher.Close(ctx); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		os.Exit(1)
	}
}

// batchRun adds what one instrumented run produced to the shared batch
// (the batcher flushes full frames inline).
func batchRun(ctx context.Context, b *collector.Batcher, cell *experiments.Cell) error {
	switch {
	case cell.Tree != nil:
		return b.AddExport(ctx, cell.Tree.Export(cell.Workload))
	case cell.Profile != nil:
		return b.AddProfile(ctx, cell.Profile)
	}
	return fmt.Errorf("%s %v run produced nothing to push", cell.Workload, cell.Mode)
}

func query(args []string) {
	fs := flag.NewFlagSet("ppd query", flag.ExitOnError)
	addr := fs.String("addr", "http://localhost:7997", "collector base URL")
	table := fs.String("table", "3", "table to render: 3, 4, 5 or metrics")
	programs := fs.String("programs", "", "comma-separated programs (row order); default all")
	fs.Parse(args)

	cl := &collector.Client{BaseURL: strings.TrimRight(*addr, "/")}
	var progs []string
	if *programs != "" {
		progs = strings.Split(*programs, ",")
	}
	ctx := context.Background()
	var out string
	var err error
	if *table == "metrics" {
		out, err = cl.MetricTable(ctx, progs)
	} else {
		var n int
		if n, err = strconv.Atoi(*table); err != nil {
			log.Fatalf("bad -table %q (want 3, 4, 5 or metrics)", *table)
		}
		out, err = cl.Table(ctx, n, progs)
	}
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(out)
}

func parseMode(s string) (instrument.Mode, error) {
	switch s {
	case "flow":
		return instrument.ModePathFreq, nil
	case "flowhw":
		return instrument.ModePathHW, nil
	case "context":
		return instrument.ModeContextHW, nil
	case "combined":
		return instrument.ModeContextFlow, nil
	case "block":
		return instrument.ModeBlockHW, nil
	}
	return 0, fmt.Errorf("unknown mode %q", s)
}
