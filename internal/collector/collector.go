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
// decoded under a request timeout and a body size cap, then folded into
// one of Config.Shards shard aggregates chosen round-robin (frames fold
// item by item, spreading one frame across shards). Shards
// hold fold-in-place aggregates (package agg); reads fold them together
// with the ingest's own fold into a private aggregate, so readers never
// share mutable state with the ingest path. Because merging is
// associative and commutative over these aggregates, the fully merged
// result is independent of how requests were spread across shards.
//
// A collector with a store mounted (durable.go) replays its log on
// start-up differently: record i of the log folds whole into shard
// i mod Config.Shards, one goroutine per shard, so the shards fold side
// by side and every reopen places every record the same way.
//
// Table queries answer from per-program views (see view.go): the rows
// derived from one such merge, kept with the fold stamps of the shard
// aggregates they came from and recomputed on the first read after a
// fold changes one of those aggregates.
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

// shard is one independent slice of the aggregate state. Aggregates are
// mutated in place under the shard lock; queries copy them out (also
// under the lock) before folding and rendering.
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
	next    atomic.Uint64 // round-robin shard cursor
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
// into the shard aggregates. Items fold independently in frame order; on
// a mid-frame error the items already folded stay applied, and the
// returned counts say how many of each kind landed. Steady-state frames
// from a stable producer population fold without allocating.
func (c *Collector) IngestFrame(data []byte) (profiles, ccts int, err error) {
	sc := c.getScratch()
	defer c.putScratch(sc)
	profiles, ccts, err = c.foldFrame(sc, nil, data)
	if err == nil {
		c.ingestedFrames.Add(1)
	}
	c.countItems(profiles, ccts)
	return profiles, ccts, err
}

// foldFrame folds the items of frame in order into sh, or each into the
// next shard in round-robin order when sh is nil, and stops at the first
// item that fails. It returns how many items of each kind folded; the
// caller counts them.
func (c *Collector) foldFrame(sc *agg.Scratch, sh *shard, frame []byte) (profiles, ccts int, err error) {
	if err := sc.Frame.Reset(frame); err != nil {
		return 0, 0, err
	}
	for i := 0; i < sc.Frame.Items(); i++ {
		if err := c.foldItem(sc, sh, i); err != nil {
			return profiles, ccts, err
		}
		if sc.Frame.Kind(i) == wire.KindProfile {
			profiles++
		} else {
			ccts++
		}
	}
	return profiles, ccts, nil
}

// countItems adds folded items to the ingest counters.
func (c *Collector) countItems(profiles, ccts int) {
	c.ingestedProfiles.Add(uint64(profiles))
	c.ingestedCCTs.Add(uint64(ccts))
}

// foldEach folds every item of frame as IngestFrame does, except that an
// item that fails does not keep the later ones out. It returns how many
// items folded and the first error. The relay folds a frame its upstream
// refused back in through it.
func (c *Collector) foldEach(frame []byte) (folded int, err error) {
	sc := c.getScratch()
	defer c.putScratch(sc)
	if err := sc.Frame.Reset(frame); err != nil {
		return 0, err
	}
	var profiles, ccts int
	for i := 0; i < sc.Frame.Items(); i++ {
		switch e := c.foldItem(sc, nil, i); {
		case e != nil:
			if err == nil {
				err = e
			}
		case sc.Frame.Kind(i) == wire.KindProfile:
			profiles++
		default:
			ccts++
		}
	}
	c.countItems(profiles, ccts)
	return profiles + ccts, err
}

// foldItem decodes item i of sc.Frame and folds it into sh, or into the
// next shard in round-robin order when sh is nil. The round-robin cursor
// advances only for an item that decodes.
func (c *Collector) foldItem(sc *agg.Scratch, sh *shard, i int) error {
	if err := sc.Decode(i); err != nil {
		return err
	}
	if sh == nil {
		sh = c.pick()
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.Fold(sc)
}

// pick returns the next shard in round-robin order. Live ingest spreads
// each frame over the shards item by item through it, so a frame that
// repeats an envelope once per shard puts a copy in every shard; the
// table-query benchmarks preload their aggregates that way.
func (c *Collector) pick() *shard {
	return c.shards[c.next.Add(1)%uint64(len(c.shards))]
}

// Programs returns every program with any aggregated data, sorted.
func (c *Collector) Programs() []string { return c.programs(true, true) }

// programs returns the programs holding a profile aggregate (when
// profiles is set) or a CCT aggregate (when ccts is set), sorted.
func (c *Collector) programs(profiles, ccts bool) []string {
	seen := map[string]bool{}
	for _, sh := range c.shards {
		sh.mu.Lock()
		if profiles {
			for name := range sh.Profiles {
				seen[name] = true
			}
		}
		if ccts {
			for name := range sh.CCTs {
				seen[name] = true
			}
		}
		sh.mu.Unlock()
	}
	out := make([]string, 0, len(seen))
	for name := range seen {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// MergedExport returns the program's CCT aggregate merged across all
// shards, or false when no shard holds one. Shards fold in shard order:
// each is written into batch form under its lock, then folded outside
// every lock with the ingest fold. A shard whose aggregate conflicts with
// the merge so far contributes nothing and ends the merge. The result is
// a fresh snapshot; callers may keep it as long as they like.
func (c *Collector) MergedExport(program string) (*cct.Export, bool) {
	m, _ := c.mergeExport(program)
	if m == nil {
		return nil, false
	}
	return m.Snapshot(), true
}

// mergeExport folds program's CCT aggregates across shards as
// MergedExport describes, or returns nil when no shard holds one. It also
// returns each shard's fold stamp for the program (0 where it holds
// none), read under the lock that reads that shard's aggregate; shards
// after a conflict contribute their stamps alone.
func (c *Collector) mergeExport(program string) (*agg.CCT, []uint64) {
	sc := c.getScratch()
	defer c.putScratch(sc)
	stamps := make([]uint64, len(c.shards))
	var m *agg.CCT
	var err error
	for i, sh := range c.shards {
		sh.mu.Lock()
		a, ok := sh.CCTs[program]
		if ok {
			stamps[i] = a.Gen()
			a.WriteBatch(sc)
		}
		sh.mu.Unlock()
		switch {
		case !ok || err != nil:
		case m == nil:
			m, err = agg.NewCCT(&sc.BC, sc)
		default:
			err = m.Fold(&sc.BC, sc)
		}
	}
	return m, stamps
}

// MergedProfile returns the program's path profile merged across all
// shards, or false when no shard holds one. Shards fold in shard order,
// each under its lock, into a copy of the first; a shard whose aggregate
// fails the ingest's shape check against the merge so far contributes
// nothing and ends the merge. The result is always a fresh profile;
// callers may mutate it.
func (c *Collector) MergedProfile(program string) (*profile.Profile, bool) {
	m, _ := c.mergeProfile(program)
	if m == nil {
		return nil, false
	}
	return m.Materialize(), true
}

// mergeProfile folds program's profile aggregates across shards as
// MergedProfile describes, or returns nil when no shard holds one, with
// the stamps mergeExport returns.
func (c *Collector) mergeProfile(program string) (*agg.Profile, []uint64) {
	stamps := make([]uint64, len(c.shards))
	var m *agg.Profile
	var err error
	for i, sh := range c.shards {
		sh.mu.Lock()
		if a, ok := sh.Profiles[program]; ok {
			stamps[i] = a.Gen()
			switch {
			case err != nil:
			case m == nil:
				m = a.Clone()
			default:
				err = m.FoldAgg(a)
			}
		}
		sh.mu.Unlock()
	}
	return m, stamps
}

// Take removes and returns everything aggregated so far, merged across
// shards per program and sorted by program name. Ingest continues
// concurrently into fresh aggregates; this is the relay flush primitive
// (see relay.go): a leaf collector periodically Takes its aggregate and
// pushes it upstream as one batch. Shards merge as in MergedProfile and
// MergedExport, except that the swapped-out aggregates are owned here, so
// later shards fold straight into the first one. Take drops every table
// view.
func (c *Collector) Take() ([]*profile.Profile, []*cct.Export) {
	profParts := map[string][]*agg.Profile{}
	exportParts := map[string][]*agg.CCT{}
	for _, sh := range c.shards {
		sh.mu.Lock()
		pm, em := sh.Profiles, sh.CCTs
		sh.Profiles, sh.CCTs = nil, nil
		sh.mu.Unlock()
		for name, a := range pm {
			profParts[name] = append(profParts[name], a)
		}
		for name, a := range em {
			exportParts[name] = append(exportParts[name], a)
		}
	}
	c.viewMu.Lock()
	clear(c.profViews)
	clear(c.cctViews)
	c.viewMu.Unlock()
	var profiles []*profile.Profile
	for _, parts := range profParts {
		a := parts[0]
		for _, b := range parts[1:] {
			if a.FoldAgg(b) != nil {
				break
			}
		}
		profiles = append(profiles, a.Materialize())
	}
	sc := c.getScratch()
	defer c.putScratch(sc)
	var exports []*cct.Export
	for _, parts := range exportParts {
		a := parts[0]
		for _, b := range parts[1:] {
			b.WriteBatch(sc)
			if a.Fold(&sc.BC, sc) != nil {
				break
			}
		}
		exports = append(exports, a.Snapshot())
	}
	sort.Slice(profiles, func(i, j int) bool { return profiles[i].Program < profiles[j].Program })
	sort.Slice(exports, func(i, j int) bool { return exports[i].Program < exports[j].Program })
	return profiles, exports
}
