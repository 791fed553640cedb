// Package collector implements the profile collection tier: an HTTP
// service that ingests wire-format envelopes (internal/wire) POSTed by
// many concurrent producers — singly or in version-3 batched frames —
// folds them into sharded in-memory aggregates, and answers queries by
// rendering the paper's tables from the merged data.
//
// Concurrency model: admission is bounded by a semaphore of
// Config.MaxConcurrent slots plus a wait queue of Config.MaxQueue
// requests; beyond that new pushes are shed immediately with 429 and a
// Retry-After hint, so overload degrades into client-side backoff
// instead of a convoy of timed-out sockets. Each admitted request is
// decoded under a request timeout and a body size cap, then folded into
// one of Config.Shards shard aggregates chosen round-robin (batched
// frames fold item by item, spreading one frame across shards). Shards
// hold fold-in-place aggregates (see agg.go); queries fold them together
// with the ingest's own fold into a private aggregate, so readers never
// share mutable state with the ingest path. Because merging is
// associative and commutative over these aggregates, the fully merged
// result is independent of how requests were spread across shards.
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
	mu       sync.Mutex
	profiles map[string]*profAgg
	exports  map[string]*cctAgg
}

func newShard() *shard {
	return &shard{
		profiles: make(map[string]*profAgg),
		exports:  make(map[string]*cctAgg),
	}
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
	Inflight          int64          `json:"inflight"`
	QueueDepth        int64          `json:"queue_depth"`
	Draining          bool           `json:"draining"`
	Durability        string         `json:"durability"`
	Store             *store.Metrics `json:"store,omitempty"`
}

// foldScratch bundles the reusable decode state one ingest needs: the
// zero-copy frame parser, the item scratch structs, the ancestor map for
// CCT folds, and a batch writer for converting single envelopes onto the
// batch fold path. Pooled so steady-state ingest allocates nothing.
type foldScratch struct {
	frame wire.Frame
	bp    wire.BatchProfile
	bc    wire.BatchCCT
	bw    wire.BatchWriter
	buf   []byte
	anc   []*aggNode
	name  []byte // program name of an aggregate written into bc
}

// Collector aggregates pushed profiles. Create one with New.
type Collector struct {
	cfg     Config
	sem     chan struct{}
	next    atomic.Uint64 // round-robin shard cursor
	shards  []*shard
	scratch sync.Pool // of *foldScratch

	// store, when mounted (durable.go), makes every ingest durable
	// before it is acked; nil keeps the zero-dependency in-memory mode.
	store   Store
	ackMode AckMode

	mu       sync.Mutex
	draining bool
	inflight sync.WaitGroup

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
}

// New creates a collector with cfg (zero fields defaulted).
func New(cfg Config) *Collector {
	cfg = cfg.withDefaults()
	c := &Collector{
		cfg:    cfg,
		sem:    make(chan struct{}, cfg.MaxConcurrent),
		shards: make([]*shard, cfg.Shards),
	}
	c.scratch.New = func() any { return &foldScratch{} }
	for i := range c.shards {
		c.shards[i] = newShard()
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

// conflictError marks a push whose shape or mode contradicts the
// aggregate already held for its program (HTTP 409).
type conflictError struct{ err error }

func (e *conflictError) Error() string { return e.err.Error() }
func (e *conflictError) Unwrap() error { return e.err }

func (c *Collector) getScratch() *foldScratch   { return c.scratch.Get().(*foldScratch) }
func (c *Collector) putScratch(sc *foldScratch) { c.scratch.Put(sc) }

// ingestProfile folds p into a round-robin shard (the v1/v2
// single-envelope path).
func (c *Collector) ingestProfile(p *profile.Profile) error {
	b := newProfAgg(p)
	sh := c.pick()
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if a, ok := sh.profiles[b.program]; ok {
		if err := a.foldAgg(b); err != nil {
			return err
		}
	} else {
		sh.profiles[b.program] = b
	}
	c.ingestedProfiles.Add(1)
	return nil
}

// ingestExport folds ex into a round-robin shard. The export is
// converted through the batch codec so the single-envelope path and the
// frame path share one fold implementation.
func (c *Collector) ingestExport(ex *cct.Export) error {
	sc := c.getScratch()
	defer c.putScratch(sc)
	sc.bw.Reset()
	if err := sc.bw.AddExport(ex); err != nil {
		return err
	}
	sc.buf = sc.bw.AppendFrame(sc.buf[:0])
	if err := sc.frame.Reset(sc.buf); err != nil {
		return err
	}
	if err := sc.frame.DecodeCCT(0, &sc.bc); err != nil {
		return err
	}
	return c.ingestBatchCCT(&sc.bc, sc)
}

// ingestBatchProfile folds one decoded batch profile item into a shard.
func (c *Collector) ingestBatchProfile(bp *wire.BatchProfile, _ *foldScratch) error {
	sh := c.pick()
	sh.mu.Lock()
	defer sh.mu.Unlock()
	a, ok := sh.profiles[string(bp.Program)] // string(…) key lookup does not allocate
	if !ok {
		a = newProfAggBatch(bp)
		sh.profiles[a.program] = a
		c.ingestedProfiles.Add(1)
		return nil
	}
	if err := a.foldBatch(bp); err != nil {
		return err
	}
	c.ingestedProfiles.Add(1)
	return nil
}

// ingestBatchCCT folds one decoded batch CCT item into a shard.
func (c *Collector) ingestBatchCCT(bc *wire.BatchCCT, sc *foldScratch) error {
	sh := c.pick()
	sh.mu.Lock()
	defer sh.mu.Unlock()
	a, ok := sh.exports[string(bc.Program)]
	if !ok {
		agg, err := newCCTAgg(bc, sc)
		if err != nil {
			return err
		}
		sh.exports[agg.program] = agg
		c.ingestedCCTs.Add(1)
		return nil
	}
	if err := a.foldBatch(bc, sc); err != nil {
		return err
	}
	c.ingestedCCTs.Add(1)
	return nil
}

// IngestFrame decodes a version-3 batched frame and folds every item
// into the shard aggregates. Items fold independently in frame order; on
// a mid-frame error the items already folded stay applied, and the
// returned counts say how many of each kind landed. Steady-state frames
// from a stable producer population fold without allocating.
func (c *Collector) IngestFrame(data []byte) (profiles, ccts int, err error) {
	sc := c.getScratch()
	defer c.putScratch(sc)
	if err := sc.frame.Reset(data); err != nil {
		return 0, 0, err
	}
	n := sc.frame.Items()
	for i := 0; i < n; i++ {
		switch sc.frame.Kind(i) {
		case wire.KindProfile:
			if err := sc.frame.DecodeProfile(i, &sc.bp); err != nil {
				return profiles, ccts, err
			}
			if len(sc.bp.Program) == 0 {
				return profiles, ccts, fmt.Errorf("frame item %d names no program", i)
			}
			if err := c.ingestBatchProfile(&sc.bp, sc); err != nil {
				return profiles, ccts, err
			}
			profiles++
		case wire.KindCCT:
			if err := sc.frame.DecodeCCT(i, &sc.bc); err != nil {
				return profiles, ccts, err
			}
			if len(sc.bc.Program) == 0 {
				return profiles, ccts, fmt.Errorf("frame item %d names no program", i)
			}
			if err := c.ingestBatchCCT(&sc.bc, sc); err != nil {
				return profiles, ccts, err
			}
			ccts++
		}
	}
	c.ingestedFrames.Add(1)
	return profiles, ccts, nil
}

func (c *Collector) pick() *shard {
	return c.shards[c.next.Add(1)%uint64(len(c.shards))]
}

// Programs returns every program with any aggregated data, sorted.
func (c *Collector) Programs() []string {
	seen := map[string]bool{}
	for _, sh := range c.shards {
		sh.mu.Lock()
		for name := range sh.profiles {
			seen[name] = true
		}
		for name := range sh.exports {
			seen[name] = true
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
	sc := c.getScratch()
	defer c.putScratch(sc)
	var m *cctAgg
	for _, sh := range c.shards {
		sh.mu.Lock()
		a, ok := sh.exports[program]
		if ok {
			a.writeBatch(sc)
		}
		sh.mu.Unlock()
		if !ok {
			continue
		}
		var err error
		if m == nil {
			m, err = newCCTAgg(&sc.bc, sc)
		} else {
			err = m.foldBatch(&sc.bc, sc)
		}
		if err != nil {
			break
		}
	}
	if m == nil {
		return nil, false
	}
	return m.snapshot(), true
}

// MergedProfile returns the program's path profile merged across all
// shards, or false when no shard holds one. Shards fold in shard order,
// each under its lock, into a copy of the first; a shard whose aggregate
// fails the ingest's shape check against the merge so far contributes
// nothing and ends the merge. The result is always a fresh profile;
// callers may mutate it.
func (c *Collector) MergedProfile(program string) (*profile.Profile, bool) {
	var m *profAgg
	for _, sh := range c.shards {
		sh.mu.Lock()
		a, ok := sh.profiles[program]
		var err error
		switch {
		case !ok:
		case m == nil:
			m = a.clone()
		default:
			err = m.foldAgg(a)
		}
		sh.mu.Unlock()
		if err != nil {
			break
		}
	}
	if m == nil {
		return nil, false
	}
	return m.materialize(), true
}

// Take removes and returns everything aggregated so far, merged across
// shards per program and sorted by program name. Ingest continues
// concurrently into fresh aggregates; this is the relay flush primitive
// (see relay.go): a leaf collector periodically Takes its aggregate and
// pushes it upstream as one batch. Shards merge as in MergedProfile and
// MergedExport, except that the swapped-out aggregates are owned here, so
// later shards fold straight into the first one.
func (c *Collector) Take() ([]*profile.Profile, []*cct.Export) {
	profParts := map[string][]*profAgg{}
	exportParts := map[string][]*cctAgg{}
	for _, sh := range c.shards {
		sh.mu.Lock()
		pm, em := sh.profiles, sh.exports
		sh.profiles = make(map[string]*profAgg)
		sh.exports = make(map[string]*cctAgg)
		sh.mu.Unlock()
		for name, a := range pm {
			profParts[name] = append(profParts[name], a)
		}
		for name, a := range em {
			exportParts[name] = append(exportParts[name], a)
		}
	}
	var profiles []*profile.Profile
	for _, parts := range profParts {
		a := parts[0]
		for _, b := range parts[1:] {
			if a.foldAgg(b) != nil {
				break
			}
		}
		profiles = append(profiles, a.materialize())
	}
	sc := c.getScratch()
	defer c.putScratch(sc)
	var exports []*cct.Export
	for _, parts := range exportParts {
		a := parts[0]
		for _, b := range parts[1:] {
			b.writeBatch(sc)
			if a.foldBatch(&sc.bc, sc) != nil {
				break
			}
		}
		exports = append(exports, a.snapshot())
	}
	sort.Slice(profiles, func(i, j int) bool { return profiles[i].Program < profiles[j].Program })
	sort.Slice(exports, func(i, j int) bool { return exports[i].Program < exports[j].Program })
	return profiles, exports
}
