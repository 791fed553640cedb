package collector

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"pathprof/internal/store"
	"pathprof/internal/wire"
)

// AckMode says when an ingest ack is sent relative to durability.
type AckMode int

const (
	// AckNone acks after the in-memory fold: fast, zero dependencies,
	// and everything is lost on restart. The default.
	AckNone AckMode = iota
	// AckBatch acks only after the push's record is group-committed to
	// the mounted store: the ack means the push survives kill -9.
	AckBatch
)

func (m AckMode) String() string {
	if m == AckBatch {
		return "batch"
	}
	return "none"
}

// ParseAckMode parses the -durability flag values.
func ParseAckMode(s string) (AckMode, error) {
	switch s {
	case "", "none":
		return AckNone, nil
	case "batch":
		return AckBatch, nil
	}
	return AckNone, fmt.Errorf("unknown durability mode %q (want none or batch)", s)
}

// Store is the persistence surface the collector mounts. *store.Log
// implements it; the interface keeps the in-memory collector free of
// any storage dependency and lets tests substitute failure-injecting
// stores.
type Store interface {
	// Ingest makes one push durable and folds it through apply,
	// deduplicating by the non-zero push id (dup == true means the push
	// was already applied and must be acked without re-folding).
	Ingest(ctx context.Context, id uint64, payload []byte, apply func([]byte) error) (dup bool, err error)
	// SnapshotNow dumps the mounted state and prunes covered segments.
	SnapshotNow() error
	// CompactNow rewrites sealed segments as pre-merged records.
	CompactNow() error
	// Metrics reports the store's durability counters.
	Metrics() store.Metrics
	// Close drains in-flight appends and seals the log.
	Close() error
}

// MountStore attaches s: every subsequent ingest is appended and
// group-committed before it is acked (AckBatch). Mount before serving;
// the collector does not close the store — the opener owns it.
func (c *Collector) MountStore(s Store) {
	c.store = s
	c.ackMode = AckBatch
}

// Store returns the mounted store, or nil for an in-memory collector.
func (c *Collector) Store() Store { return c.store }

// AckMode returns the collector's acking mode.
func (c *Collector) AckMode() AckMode { return c.ackMode }

// OpenStore opens (or recovers) the store directory with the
// collector's fold/snapshot/compact callbacks wired in, replaying any
// surviving state into this collector, and mounts the log. opts.Apply,
// opts.Snapshot and opts.Compact are overwritten.
func (c *Collector) OpenStore(dir string, opts store.Options) (*store.Log, store.Recovery, error) {
	opts.Apply = c.replay
	opts.Snapshot = c.SnapshotFrame
	opts.Compact = c.CompactPayloads
	l, rec, err := store.Open(dir, opts)
	if err != nil {
		return nil, rec, err
	}
	c.MountStore(l)
	return l, rec, nil
}

// Checkpoint snapshots the mounted store (bounding future replay to
// ingests after this point), or does nothing for in-memory collectors.
// Relays call it after a fully flushed Take so the spool does not
// replay — and re-push — envelopes already delivered upstream.
func (c *Collector) Checkpoint() error {
	if c.store == nil {
		return nil
	}
	return c.store.SnapshotNow()
}

// replay folds logged payloads, version-3 frames, into the shard
// aggregates and returns one error per payload — the store's replay
// callback, through OpenStore. Re-applying the log through it reproduces
// the in-memory state the acks described.
//
// One goroutine per shard, each with its own scratch, walks the payloads
// in log order and folds the items its shard homes. Each payload is
// parsed once, by the first goroutine to reach it: its checksum verified
// and each item's home read off its program name. The parsed frame is
// then shared read-only. So every program folds in log order, as at
// ingest, at every shard count and whatever GOMAXPROCS is, and a push
// refused at ingest for a conflict is refused again. A payload's error is
// its lowest-indexed failing item's, the one IngestFrame's error unwraps
// to.
//
// A payload without a frame header can only come from a build that
// logged the retired version-1 and version-2 envelopes. Its error wraps
// store.ErrUnreadable, so replay refuses the log instead of skipping the
// record, and then no payload of the batch is folded.
func (c *Collector) replay(payloads [][]byte) []error {
	errs := make([]error, len(payloads))
	unreadable := false
	for j, p := range payloads {
		if err := checkFrameHeader(p); err != nil {
			errs[j] = fmt.Errorf("%w: %w", store.ErrUnreadable, err)
			unreadable = true
		}
	}
	if unreadable {
		return errs
	}
	n := len(c.shards)
	recs := make([]replayRecord, len(payloads))
	var wg sync.WaitGroup
	for s, sh := range c.shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := c.getScratch()
			defer c.putScratch(sc)
			var profiles, ccts int
			for j := range recs {
				r := &recs[j]
				r.once.Do(func() { r.parse(payloads[j], n) })
				for i, h := range r.homes {
					if h != s {
						continue
					}
					// Items of one record sit side by side in r.errs, so a
					// goroutine writes only an error: writing every result
					// would share each cache line between the cores.
					switch err := sh.fold(sc, &r.frame, i); {
					case err != nil:
						r.errs[i] = err
					case r.frame.Kind(i) == wire.KindProfile:
						profiles++
					default:
						ccts++
					}
				}
			}
			c.countItems(profiles, ccts)
		}()
	}
	wg.Wait()
	var frames int
	for j := range recs {
		errs[j] = recs[j].err
		for _, err := range recs[j].errs {
			if err != nil && errs[j] == nil {
				errs[j] = err
			}
		}
		if errs[j] == nil {
			frames++
		}
	}
	c.ingestedFrames.Add(uint64(frames))
	return errs
}

// replayRecord is one logged payload, parsed for replay.
type replayRecord struct {
	once  sync.Once
	err   error // the frame's parse error
	frame wire.Frame
	homes []int   // each item's home shard; -1 where its name does not read
	errs  []error // each item's fold error, written by its home's goroutine
}

// parse parses payload into r and locates each item's home among n
// shards. It records the frame's parse error, and an item whose name does
// not read as that item's error.
func (r *replayRecord) parse(payload []byte, n int) {
	if r.err = r.frame.Reset(payload); r.err != nil {
		return
	}
	r.homes = make([]int, r.frame.Items())
	r.errs = make([]error, r.frame.Items())
	for i := range r.homes {
		name, err := r.frame.Program(i)
		if err != nil {
			r.homes[i], r.errs[i] = -1, err
			continue
		}
		r.homes[i] = homeIndex(name, n)
	}
}

// checkFrameHeader returns nil when data begins with a version-3 frame
// header, and otherwise the frame parser's positioned error for it.
func checkFrameHeader(data []byte) error {
	if wire.IsFrame(data) {
		return nil
	}
	_, err := wire.ParseFrame(data)
	return err
}

// SnapshotFrame encodes every program's fully merged aggregates as one
// version-3 batched frame — the store's snapshot callback. Applying the
// frame to an empty collector reproduces the merged state exactly
// (folding is associative and commutative, so the pre-merge does not
// change any table). Returns nil when nothing has been aggregated.
func (c *Collector) SnapshotFrame() ([]byte, error) {
	progs := c.Programs()
	if len(progs) == 0 {
		return nil, nil
	}
	bw := wire.NewBatchWriter()
	for _, name := range progs {
		if p, ok := c.MergedProfile(name); ok {
			if err := bw.AddProfile(p); err != nil {
				return nil, fmt.Errorf("snapshot %s: %w", name, err)
			}
		}
		if ex, ok := c.MergedExport(name); ok {
			if err := bw.AddExport(ex); err != nil {
				return nil, fmt.Errorf("snapshot %s: %w", name, err)
			}
		}
	}
	if bw.Items() == 0 {
		return nil, nil
	}
	return append([]byte(nil), bw.Frame()...), nil
}

// CompactPayloads pre-merges one sealed segment's payloads into a
// single frame — the store's compaction callback. The payloads fold
// into a scratch single-shard collector exactly as replay would fold
// them (rejected payloads skipped, unreadable ones refused the same
// way), so replaying the merged frame reproduces the same aggregate as
// replaying the originals.
func (c *Collector) CompactPayloads(payloads [][]byte) ([]byte, error) {
	scratch := New(Config{Shards: 1})
	for _, err := range scratch.replay(payloads) {
		// A rejected payload contributes nothing to the aggregate, here
		// as in replay, which counts and skips it.
		if errors.Is(err, store.ErrUnreadable) {
			return nil, err
		}
	}
	return scratch.SnapshotFrame()
}
