// Package collector implements the profile collection tier: an HTTP
// service that ingests wire frames (internal/wire) POSTed by many
// concurrent producers — one envelope per frame or a batch of them —
// folds them into sharded in-memory aggregates, and answers queries by
// rendering the paper's tables from the merged data.
//
// Concurrency model: admission is bounded by a semaphore of
// Config.MaxConcurrent slots plus a wait queue of Config.MaxQueue
// requests; beyond that new pushes are shed immediately with 429 and a
// Retry-After hint, so overload degrades into client-side backoff
// instead of a convoy of timed-out sockets. Each admitted request is
// decoded under a request timeout and a body size cap, then folded item
// by item, each item into its program's home shard of Config.Shards:
// FNV-1a of the program name, mod Shards. Items fold independently, so
// one that fails keeps no other out. Shards hold fold-in-place
// aggregates (package agg), and each program's profile and CCT
// aggregates live in its home shard alone. So every push of a program
// meets the aggregate it may conflict with, and a read copies one
// aggregate out under one lock: readers never share mutable state with
// the ingest path.
//
// A collector with a store mounted (durable.go) replays its log on
// start-up on one goroutine per shard, each folding in log order the
// items its shard homes, so every program folds in log order at every
// shard count.
//
// Table queries answer from per-program views (see view.go): the rows
// derived from one read of a program's aggregate, kept with its fold
// stamp and recomputed on the first read after a fold changes it.
//
// Shutdown sets a draining flag (new ingests get 503) and waits for
// in-flight merges, so no accepted profile is lost.
package collector

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pathprof/internal/agg"
	"pathprof/internal/cct"
	"pathprof/internal/profile"
	"pathprof/internal/store"
	"pathprof/internal/wire"
)

// Config bounds the collector's resource use. Zero values select the
// defaults below.
type Config struct {
	// Shards is the number of independent aggregate shards (default 4).
	// Each program folds into one home shard, so shards spread programs,
	// not the pushes of one program.
	Shards int
	// MaxBodyBytes caps one request body (default 64 MiB); larger
	// uploads get 413.
	MaxBodyBytes int64
	// MaxConcurrent bounds admitted ingest requests (default 64); when
	// all slots are busy new requests wait in the queue.
	MaxConcurrent int
	// MaxQueue bounds how many requests may wait for a concurrency slot
	// (default 256); beyond that pushes are shed with 429 + Retry-After.
	MaxQueue int
	// RetryAfter is the backoff hint sent with 429 responses
	// (default 1s).
	RetryAfter time.Duration
	// RequestTimeout bounds one ingest from admission to merge
	// (default 30s); slow clients get 408.
	RequestTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 4
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 64 << 20
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 64
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 256
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	return c
}

// shard is one independent slice of the aggregate state: the aggregates
// of the programs it homes. Aggregates are mutated in place under the
// shard lock; queries copy them out, also under the lock, before
// rendering.
type shard struct {
	mu sync.Mutex
	agg.Set
}

// Metrics is a point-in-time snapshot of the collector's counters.
// Store is present only when a durability tier is mounted (see
// durable.go): it carries the per-stage append/fsync/replay/compaction
// counters and latencies.
type Metrics struct {
	IngestedProfiles  uint64         `json:"ingested_profiles"`
	IngestedCCTs      uint64         `json:"ingested_ccts"`
	IngestedFrames    uint64         `json:"ingested_frames"`
	IngestedBytes     uint64         `json:"ingested_bytes"`
	RejectedBusy      uint64         `json:"rejected_busy"`
	RejectedQueueFull uint64         `json:"rejected_queue_full"`
	RejectedTooLarge  uint64         `json:"rejected_too_large"`
	RejectedTimeout   uint64         `json:"rejected_timeout"`
	RejectedBad       uint64         `json:"rejected_bad"`
	RejectedConflict  uint64         `json:"rejected_conflict"`
	RejectedStoreFull uint64         `json:"rejected_store_full"`
	RejectedDraining  uint64         `json:"rejected_draining"`
	TableViewHits     uint64         `json:"table_view_hits"`
	TableViewMisses   uint64         `json:"table_view_misses"`
	Inflight          int64          `json:"inflight"`
	QueueDepth        int64          `json:"queue_depth"`
	Draining          bool           `json:"draining"`
	Durability        string         `json:"durability"`
	Store             *store.Metrics `json:"store,omitempty"`
}

// Collector aggregates pushed profiles. Create one with New.
type Collector struct {
	cfg     Config
	sem     chan struct{}
	shards  []*shard
	scratch sync.Pool // of *agg.Scratch

	// store, when mounted (durable.go), makes every ingest durable
	// before it is acked; nil keeps the zero-dependency in-memory mode.
	store   Store
	ackMode AckMode

	mu       sync.Mutex
	draining bool
	inflight sync.WaitGroup

	// viewMu guards the view maps (view.go). It is never held while a
	// shard lock is taken.
	viewMu    sync.Mutex
	profViews map[string]*profView
	cctViews  map[string]*cctView

	ingestedProfiles  atomic.Uint64
	ingestedCCTs      atomic.Uint64
	ingestedFrames    atomic.Uint64
	ingestedBytes     atomic.Uint64
	rejectedBusy      atomic.Uint64
	rejectedQueue     atomic.Uint64
	rejectedTooBig    atomic.Uint64
	rejectedTimeout   atomic.Uint64
	rejectedBad       atomic.Uint64
	rejectedConflict  atomic.Uint64
	rejectedStoreFull atomic.Uint64
	rejectedDraining  atomic.Uint64
	inflightCount     atomic.Int64
	queueDepth        atomic.Int64
	viewHits          atomic.Uint64
	viewMisses        atomic.Uint64
}

// New creates a collector with cfg (zero fields defaulted).
func New(cfg Config) *Collector {
	cfg = cfg.withDefaults()
	c := &Collector{
		cfg:       cfg,
		sem:       make(chan struct{}, cfg.MaxConcurrent),
		shards:    make([]*shard, cfg.Shards),
		profViews: make(map[string]*profView),
		cctViews:  make(map[string]*cctView),
	}
	c.scratch.New = func() any { return &agg.Scratch{} }
	for i := range c.shards {
		c.shards[i] = &shard{}
	}
	return c
}

// Config returns the effective (defaulted) configuration.
func (c *Collector) Config() Config { return c.cfg }

// Metrics returns a snapshot of the counters.
func (c *Collector) Metrics() Metrics {
	c.mu.Lock()
	draining := c.draining
	c.mu.Unlock()
	m := Metrics{
		IngestedProfiles:  c.ingestedProfiles.Load(),
		IngestedCCTs:      c.ingestedCCTs.Load(),
		IngestedFrames:    c.ingestedFrames.Load(),
		IngestedBytes:     c.ingestedBytes.Load(),
		RejectedBusy:      c.rejectedBusy.Load(),
		RejectedQueueFull: c.rejectedQueue.Load(),
		RejectedTooLarge:  c.rejectedTooBig.Load(),
		RejectedTimeout:   c.rejectedTimeout.Load(),
		RejectedBad:       c.rejectedBad.Load(),
		RejectedConflict:  c.rejectedConflict.Load(),
		RejectedStoreFull: c.rejectedStoreFull.Load(),
		RejectedDraining:  c.rejectedDraining.Load(),
		TableViewHits:     c.viewHits.Load(),
		TableViewMisses:   c.viewMisses.Load(),
		Inflight:          c.inflightCount.Load(),
		QueueDepth:        c.queueDepth.Load(),
		Draining:          draining,
		Durability:        c.ackMode.String(),
	}
	if c.store != nil {
		sm := c.store.Metrics()
		m.Store = &sm
	}
	return m
}

// begin admits one ingest: it fails when draining and otherwise
// registers the request with the drain group. The caller must call the
// returned done func exactly once.
func (c *Collector) begin() (done func(), err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.draining {
		return nil, errDraining
	}
	c.inflight.Add(1)
	c.inflightCount.Add(1)
	return func() {
		c.inflightCount.Add(-1)
		c.inflight.Done()
	}, nil
}

var errDraining = errors.New("collector: draining")

// Shutdown stops admitting ingests and waits for in-flight requests to
// finish merging, or for ctx.
func (c *Collector) Shutdown(ctx context.Context) error {
	c.mu.Lock()
	c.draining = true
	c.mu.Unlock()
	drained := make(chan struct{})
	go func() {
		c.inflight.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("collector: shutdown: %w", ctx.Err())
	}
}

func (c *Collector) getScratch() *agg.Scratch   { return c.scratch.Get().(*agg.Scratch) }
func (c *Collector) putScratch(sc *agg.Scratch) { c.scratch.Put(sc) }

// IngestFrame decodes a version-3 batched frame and folds every item
// into its program's home shard. Items fold independently in frame
// order: an item that fails keeps no other out, and the returned counts
// say how many of each kind landed. When items fail, the error names
// each failed item's index and unwraps to the lowest-indexed failure.
// Steady-state frames from a stable producer population fold without
// allocating.
func (c *Collector) IngestFrame(data []byte) (profiles, ccts int, err error) {
	profiles, ccts, err = c.foldFrame(data)
	if err == nil {
		c.ingestedFrames.Add(1)
	}
	return profiles, ccts, err
}

// refusedItems is the error of a frame fold that refused items: the
// refused items' indexes in frame order, and the first one's reason.
type refusedItems struct {
	items []int
	err   error
}

func (e *refusedItems) Error() string {
	return fmt.Sprintf("refused frame items %v; item %d: %v", e.items, e.items[0], e.err)
}

func (e *refusedItems) Unwrap() error { return e.err }

// foldFrame folds the items of frame as IngestFrame does and counts them,
// but not the frame. The relay folds a frame its upstream refused back
// in through it.
func (c *Collector) foldFrame(frame []byte) (profiles, ccts int, err error) {
	sc := c.getScratch()
	defer c.putScratch(sc)
	if err := sc.Frame.Reset(frame); err != nil {
		return 0, 0, err
	}
	var refused *refusedItems
	for i := 0; i < sc.Frame.Items(); i++ {
		name, e := sc.Frame.Program(i)
		if e == nil {
			e = c.shards[homeIndex(name, len(c.shards))].fold(sc, &sc.Frame, i)
		}
		switch {
		case e != nil:
			if refused == nil {
				refused = &refusedItems{err: e}
			}
			refused.items = append(refused.items, i)
		case sc.Frame.Kind(i) == wire.KindProfile:
			profiles++
		default:
			ccts++
		}
	}
	c.countItems(profiles, ccts)
	if refused != nil {
		return profiles, ccts, refused
	}
	return profiles, ccts, nil
}

// countItems adds folded items to the ingest counters.
func (c *Collector) countItems(profiles, ccts int) {
	c.ingestedProfiles.Add(uint64(profiles))
	c.ingestedCCTs.Add(uint64(ccts))
}

// fold decodes item i of f into sc, outside every lock, and folds it
// into sh under sh's lock.
func (sh *shard) fold(sc *agg.Scratch, f *wire.Frame, i int) error {
	if err := sc.DecodeFrom(f, i); err != nil {
		return err
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.Fold(sc)
}

// homeIndex returns the index of program's home shard among n: 32-bit
// FNV-1a of the name, mod n. The hash has no per-process seed, so a
// program has the same home in every process with the same n.
func homeIndex[S ~string | ~[]byte](program S, n int) int {
	h := uint32(2166136261)
	for i := 0; i < len(program); i++ {
		h ^= uint32(program[i])
		h *= 16777619
	}
	return int(h % uint32(n))
}

// home returns program's home shard.
func (c *Collector) home(program string) *shard {
	return c.shards[homeIndex(program, len(c.shards))]
}

// Programs returns every program with any aggregated data, sorted.
func (c *Collector) Programs() []string { return c.programs(true, true) }

// programs returns the programs holding a profile aggregate (when
// profiles is set) or a CCT aggregate (when ccts is set), sorted. Both
// of a program's aggregates sit in its home shard, so no two shards list
// one name.
func (c *Collector) programs(profiles, ccts bool) []string {
	var out []string
	for _, sh := range c.shards {
		sh.mu.Lock()
		if profiles {
			for name := range sh.Profiles {
				out = append(out, name)
			}
		}
		if ccts {
			for name := range sh.CCTs {
				if !profiles || sh.Profiles[name] == nil {
					out = append(out, name)
				}
			}
		}
		sh.mu.Unlock()
	}
	sort.Strings(out)
	return out
}

// MergedExport returns the program's CCT aggregate, the merge of every
// CCT item of the program folded so far, or false when there is none.
// The result is a fresh snapshot; callers may keep it as long as they
// like.
func (c *Collector) MergedExport(program string) (*cct.Export, bool) {
	ex, _ := c.readExport(program)
	return ex, ex != nil
}

// readExport snapshots program's CCT aggregate under its home shard's
// lock and returns it with the aggregate's fold stamp, or nil when the
// shard holds none.
func (c *Collector) readExport(program string) (*cct.Export, uint64) {
	sh := c.home(program)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	a, ok := sh.CCTs[program]
	if !ok {
		return nil, 0
	}
	return a.Snapshot(), a.Gen()
}

// MergedProfile returns the program's path profile, the merge of every
// profile item of the program folded so far, or false when there is
// none. The result is always a fresh profile; callers may mutate it.
func (c *Collector) MergedProfile(program string) (*profile.Profile, bool) {
	p, _ := c.readProfile(program)
	return p, p != nil
}

// readProfile is readExport for program's profile aggregate.
func (c *Collector) readProfile(program string) (*profile.Profile, uint64) {
	sh := c.home(program)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	a, ok := sh.Profiles[program]
	if !ok {
		return nil, 0
	}
	return a.Materialize(), a.Gen()
}

// Take removes and returns everything aggregated so far, at most one
// profile and one CCT export per program, sorted by program name. Ingest
// continues concurrently into fresh aggregates; this is the relay flush
// primitive (see relay.go): a leaf collector periodically Takes its
// aggregate and pushes it upstream as one batch. Take drops every table
// view.
func (c *Collector) Take() ([]*profile.Profile, []*cct.Export) {
	var profiles []*profile.Profile
	var exports []*cct.Export
	for _, sh := range c.shards {
		sh.mu.Lock()
		pm, em := sh.Profiles, sh.CCTs
		sh.Profiles, sh.CCTs = nil, nil
		sh.mu.Unlock()
		for _, a := range pm {
			profiles = append(profiles, a.Materialize())
		}
		for _, a := range em {
			exports = append(exports, a.Snapshot())
		}
	}
	c.viewMu.Lock()
	clear(c.profViews)
	clear(c.cctViews)
	c.viewMu.Unlock()
	sort.Slice(profiles, func(i, j int) bool { return profiles[i].Program < profiles[j].Program })
	sort.Slice(exports, func(i, j int) bool { return exports[i].Program < exports[j].Program })
	return profiles, exports
}
