// Package store is the collector's durability tier: a segmented
// append-only log of opaque ingest payloads (the collector's wire
// frames) with group-committed fsync, CRC-checked replay and
// snapshot/restore.
//
// The store knows nothing about profiles. Payloads are byte strings;
// the mounting layer supplies two callbacks — Apply folds a batch of
// payloads into its in-memory state (startup replay hands it each
// file's surviving records at once), and Snapshot dumps that state as
// one payload — so the collector keeps its fold logic and the store
// keeps the files. In-memory collectors simply never mount a store.
//
// Bounding the log: a snapshot replaces every segment before it, since
// the payloads fold by addition. The maintenance loop takes one once
// Options.SnapshotAfter sealed segments sit above the newest snapshot,
// so the files on disk and the records a restart replays stay bounded
// by that count, not by the log's lifetime.
//
// Durability contract: Ingest appends the payload to the active
// segment, waits for the group committer to fsync it, folds it via the
// apply callback, and only then returns — so an HTTP ack issued after
// Ingest means the push survives kill -9. Concurrent Ingests coalesce
// into one write+fsync (bounded by MaxBatch records and MaxWait of
// gathering time), which is what makes durable ingest keep up with the
// in-memory path: the fsync cost amortizes across every push that
// arrived while the previous fsync was in flight.
//
// Exactly-once: each push may carry a 64-bit push ID. Applied IDs are
// remembered (and persisted through snapshot manifests), so a client
// retry of a push that was durable but never acked — the classic crash
// window — is recognized and acked without folding twice. Replay
// applies the same rule, so a record duplicated in the log folds once.
//
// Recovery: Open restores the newest snapshot, replays every surviving
// segment record at or after the snapshot watermark through Apply, one
// batch per file in log order, and truncates a torn tail (an unacked,
// partially written group commit) in the final segment instead of
// failing. Corruption anywhere acked data could live surfaces as a
// positioned *CorruptError, and so does a record the mounting layer
// cannot read (ErrUnreadable). See segment.go for the on-disk format and
// the exact torn-tail rules.
package store

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// Options configures a Log. Zero values select the bracketed defaults.
type Options struct {
	// SegmentBytes seals the active segment when it would grow past this
	// size [8 MiB].
	SegmentBytes int64
	// MaxLogBytes is the disk budget across all segment files; appends
	// beyond it fail with ErrFull until a snapshot frees space
	// [0 = unbounded].
	MaxLogBytes int64
	// MaxBatch caps the records one group commit may coalesce [256].
	MaxBatch int
	// MaxWait bounds how long the committer gathers more concurrent
	// appends before fsyncing a non-full batch [2ms]. A batch whose every
	// in-flight appender has been gathered commits immediately, so a lone
	// sequential producer never waits this long.
	MaxWait time.Duration
	// SnapshotAfter takes a snapshot once at least this many sealed
	// segments sit above the snapshot watermark; the maintenance loop
	// checks every maintainPeriod [4; <0 = manual snapshots only].
	SnapshotAfter int

	// Apply folds a batch of payloads into the mounting layer's state
	// and returns one error per payload, in order. Snapshot restore and
	// replay call it once per file, with the file's surviving payloads in
	// log order, duplicate push IDs already dropped; Ingest with a nil
	// fold calls it with one payload. Replay counts and skips Apply
	// errors (they reproduce ingest-time rejections, which also left the
	// record in the log), except those wrapping ErrUnreadable: the
	// lowest-indexed one fails Open. Any error fails snapshot restore.
	Apply func(payloads [][]byte) []error
	// Snapshot returns a point-in-time dump of the mounted state as one
	// payload (nil when there is nothing to dump). Called under the
	// ingest barrier: no Ingest is mid append-or-fold.
	Snapshot func() ([]byte, error)

	// Logf, when set, receives maintenance diagnostics (snapshot
	// failures in the background loop).
	Logf func(format string, args ...any)

	// SyncDelay pads every fsync with a sleep, modeling a storage device
	// slower than the backing filesystem. Benchmarks and tests use it to
	// measure group-commit coalescing deterministically; leave it zero in
	// production [0].
	SyncDelay time.Duration
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 8 << 20
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = 256
	}
	if o.MaxWait <= 0 {
		o.MaxWait = 2 * time.Millisecond
	}
	if o.SnapshotAfter == 0 {
		o.SnapshotAfter = 4
	}
	return o
}

// ErrFull reports that the log disk budget (Options.MaxLogBytes) is
// exhausted. Collectors surface it as backpressure (503 + Retry-After):
// the next snapshot usually frees space.
var ErrFull = errors.New("store: log disk budget exhausted")

// ErrClosed reports an operation on a closed log.
var ErrClosed = errors.New("store: log is closed")

// ErrUnreadable marks an Apply error for a payload the mounting layer
// cannot read at all, as opposed to one it read and rejected. Replay
// refuses such a record with a positioned *CorruptError instead of
// skipping it: it holds acked data in a form this build cannot fold.
var ErrUnreadable = errors.New("unreadable record")

// Recovery summarizes what Open found and replayed.
type Recovery struct {
	SnapshotSeq    uint64 `json:"snapshot_watermark"` // 0 = no snapshot restored
	SnapshotBytes  int64  `json:"snapshot_bytes"`
	Segments       int    `json:"segments"`        // segments replayed
	Records        int    `json:"records"`         // payload records folded
	Bytes          int64  `json:"bytes"`           // payload bytes folded
	Duplicates     int    `json:"duplicates"`      // records skipped by push ID
	ApplyErrors    int    `json:"apply_errors"`    // records the fold rejected
	TruncatedBytes int64  `json:"truncated_bytes"` // torn tail dropped
	Nanos          int64  `json:"nanos"`
}

// Metrics is a point-in-time snapshot of the store's counters. Latency
// fields are cumulative nanoseconds; divide by the matching count for
// means.
type Metrics struct {
	Appends           uint64   `json:"appends"`
	AppendedBytes     uint64   `json:"appended_bytes"`
	Fsyncs            uint64   `json:"fsyncs"`
	FsyncNanos        uint64   `json:"fsync_nanos"`
	AppendWaitNanos   uint64   `json:"append_wait_nanos"`
	BatchMax          uint64   `json:"batch_max"`
	Duplicates        uint64   `json:"duplicates"`
	RejectedFull      uint64   `json:"rejected_full"`
	Segments          int64    `json:"segments"`
	LiveBytes         int64    `json:"live_bytes"`
	ActiveSegment     uint64   `json:"active_segment"`
	SnapshotWatermark uint64   `json:"snapshot_watermark"`
	Snapshots         uint64   `json:"snapshots"`
	SnapshotNanos     uint64   `json:"snapshot_nanos"`
	Replay            Recovery `json:"replay"`
}

// appendReq is one record handed to the group committer.
type appendReq struct {
	data []byte // fully framed record
	done chan error
}

// Log is an open store. Create one with Open.
type Log struct {
	dir  string
	opts Options
	dirf *os.File // directory handle for metadata fsyncs

	// barrier serializes snapshots against ingests: every Ingest holds
	// the read side across append+fold, SnapshotNow holds the write side
	// while capturing state and rotating the active segment.
	barrier sync.RWMutex

	idMu    sync.Mutex
	applied map[uint64]struct{}

	appendCh chan *appendReq
	pending  atomic.Int64 // appends submitted but not yet taken by the committer
	closed   atomic.Bool
	stopCh   chan struct{}
	commitWG sync.WaitGroup

	// Active segment state. The committer owns it during commits; the
	// snapshot path rotates it under barrier (write) + segMu, when no
	// append can be in flight.
	segMu      sync.Mutex
	active     *os.File
	activeSize int64
	activeSeq  atomic.Uint64
	ioErr      error // sticky first I/O failure; all later appends fail

	// syncDelay (Options.SyncDelay) pads every fsync to model device
	// latency deterministically; tests may also set it directly before
	// the first append.
	syncDelay time.Duration

	snapMu    sync.Mutex // serializes SnapshotNow callers
	watermark atomic.Uint64

	recovery Recovery

	liveBytes     atomic.Int64
	segments      atomic.Int64 // live segment files, the active one included
	appends       atomic.Uint64
	appendedBytes atomic.Uint64
	fsyncs        atomic.Uint64
	fsyncNs       atomic.Uint64
	appendWaitNs  atomic.Uint64
	batchMax      atomic.Uint64
	duplicates    atomic.Uint64
	rejectedFull  atomic.Uint64
	snapshots     atomic.Uint64
	snapshotNs    atomic.Uint64
}

// Open opens (creating if needed) the store directory, restores the
// newest snapshot, replays surviving segments through Options.Apply,
// truncates any torn tail, and starts the group committer and the
// maintenance loop. The returned Recovery says what was replayed.
func Open(dir string, opts Options) (*Log, Recovery, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, Recovery{}, fmt.Errorf("store: %w", err)
	}
	dirf, err := os.Open(dir)
	if err != nil {
		return nil, Recovery{}, fmt.Errorf("store: %w", err)
	}
	l := &Log{
		dir:       dir,
		opts:      opts,
		dirf:      dirf,
		applied:   make(map[uint64]struct{}),
		appendCh:  make(chan *appendReq, 4*opts.MaxBatch),
		stopCh:    make(chan struct{}),
		syncDelay: opts.SyncDelay,
	}
	start := time.Now()
	if err := l.recover(); err != nil {
		dirf.Close()
		return nil, l.recovery, err
	}
	l.recovery.Nanos = time.Since(start).Nanoseconds()

	l.commitWG.Add(1)
	go l.committer()
	if opts.SnapshotAfter > 0 {
		l.commitWG.Add(1)
		go l.maintain()
	}
	return l, l.recovery, nil
}

// recover restores the newest snapshot, replays segments at or after
// its watermark, cleans up superseded files, and opens a fresh active
// segment.
func (l *Log) recover() error {
	segs, snaps, err := listDir(l.dir)
	if err != nil {
		return err
	}
	if len(snaps) > 0 {
		w := snaps[len(snaps)-1]
		if err := l.loadSnapshot(w); err != nil {
			return err
		}
		l.watermark.Store(w)
		l.recovery.SnapshotSeq = w
	}
	wm := l.watermark.Load()
	maxSeq := wm
	for i, sf := range segs {
		if sf.seq > maxSeq {
			maxSeq = sf.seq
		}
		if sf.seq < wm {
			continue // covered by the snapshot; removed below
		}
		if err := l.replaySegment(sf, i == len(segs)-1); err != nil {
			return err
		}
	}

	// Cleanup: segments and snapshots superseded by the restored
	// snapshot, and its temporary file, survive only a crash between
	// publishing a snapshot and its cleanup.
	for _, sf := range segs {
		if sf.seq < wm {
			os.Remove(filepath.Join(l.dir, sf.name))
		}
	}
	for _, w := range snaps {
		if w != wm {
			os.Remove(filepath.Join(l.dir, snapName(w)))
		}
	}
	os.Remove(filepath.Join(l.dir, "snap.tmp"))

	// Account the surviving files and open a fresh active segment (we
	// never append to a replayed one: a sealed segment is immutable,
	// which keeps the torn-tail rules confined to the newest file).
	segs, _, err = listDir(l.dir)
	if err != nil {
		return err
	}
	var live int64
	for _, sf := range segs {
		if sf.seq >= wm {
			live += sf.size
			l.segments.Add(1)
		}
	}
	l.liveBytes.Store(live)
	l.segMu.Lock()
	defer l.segMu.Unlock()
	return l.rollLocked(maxSeq + 1)
}

// replaySegment folds one segment's surviving records. tail marks the
// newest segment, the only one where a torn write can legally live.
func (l *Log) replaySegment(sf segmentFile, tail bool) error {
	path := filepath.Join(l.dir, sf.name)
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if tail && len(data) < headerLen {
		// Crash during segment creation: the header never landed. The
		// file cannot hold acked data, so drop it entirely.
		l.recovery.TruncatedBytes += int64(len(data))
		return os.Remove(path)
	}
	if err := checkHeader(sf.name, data, segMagic); err != nil {
		return err
	}
	recs, truncAt, err := scanRecords(sf.name, data[headerLen:], headerLen, tail)
	if err != nil {
		return err
	}
	l.recovery.Segments++
	var payloads [][]byte
	var at []int // index in recs of each payload handed to Apply
	for i, r := range recs {
		switch r.kind {
		case recKindPayload:
			if r.id != 0 && l.isApplied(r.id) {
				l.recovery.Duplicates++
				continue
			}
			l.markApplied(r.id)
			payloads = append(payloads, r.payload)
			at = append(at, i)
		case recKindManifest:
			// Only an older build's compaction wrote a manifest into a
			// segment file, beside the payload it pre-merged from the
			// pushes the manifest names; this build no longer reads one.
			return corrupt(sf.name, r.off, i, "manifest record written by an older build's compaction")
		}
	}
	var errs []error
	if l.opts.Apply != nil && len(payloads) > 0 {
		errs = l.opts.Apply(payloads)
	}
	for j, p := range payloads {
		if errs != nil {
			if err := errs[j]; errors.Is(err, ErrUnreadable) {
				return corrupt(sf.name, recs[at[j]].off, at[j], "%v", err)
			} else if err != nil {
				l.recovery.ApplyErrors++
			}
		}
		l.recovery.Records++
		l.recovery.Bytes += int64(len(p))
	}
	if truncAt >= 0 {
		l.recovery.TruncatedBytes += int64(len(data)) - truncAt
		f, err := os.OpenFile(path, os.O_WRONLY, 0)
		if err != nil {
			return fmt.Errorf("store: truncating torn tail: %w", err)
		}
		defer f.Close()
		if err := f.Truncate(truncAt); err != nil {
			return fmt.Errorf("store: truncating torn tail: %w", err)
		}
		if err := f.Sync(); err != nil {
			return fmt.Errorf("store: truncating torn tail: %w", err)
		}
	}
	return nil
}

func (l *Log) isApplied(id uint64) bool {
	l.idMu.Lock()
	_, ok := l.applied[id]
	l.idMu.Unlock()
	return ok
}

func (l *Log) markApplied(id uint64) {
	if id == 0 {
		return
	}
	l.idMu.Lock()
	l.applied[id] = struct{}{}
	l.idMu.Unlock()
}

// appliedIDs copies the applied-ID set (for snapshot manifests).
func (l *Log) appliedIDs() []uint64 {
	l.idMu.Lock()
	defer l.idMu.Unlock()
	ids := make([]uint64, 0, len(l.applied))
	for id := range l.applied {
		ids = append(ids, id)
	}
	return ids
}

// Ingest makes one push durable and applies it: the payload is appended
// to the log, group-committed to disk, and then folded through apply
// (or Options.Apply when apply is nil). A non-zero id identifies the
// push for exactly-once semantics: if it was already applied — a retry
// of a durable-but-unacked push — Ingest returns dup == true without
// folding again. The fold's error is returned after the record is
// already durable; replay reproduces the same partial application, so
// rejected pushes stay consistent across restarts.
func (l *Log) Ingest(ctx context.Context, id uint64, payload []byte, apply func([]byte) error) (dup bool, err error) {
	l.barrier.RLock()
	defer l.barrier.RUnlock()
	if l.closed.Load() {
		return false, ErrClosed
	}
	if id != 0 && l.isApplied(id) {
		l.duplicates.Add(1)
		return true, nil
	}
	if err := l.append(ctx, id, payload); err != nil {
		return false, err
	}
	if apply != nil {
		err = apply(payload)
	} else if l.opts.Apply != nil {
		err = l.opts.Apply([][]byte{payload})[0]
	}
	l.markApplied(id)
	return false, err
}

// Append makes one payload durable without folding it (the group-commit
// fast path, used by benchmarks and spooling writers).
func (l *Log) Append(ctx context.Context, id uint64, payload []byte) error {
	l.barrier.RLock()
	defer l.barrier.RUnlock()
	if l.closed.Load() {
		return ErrClosed
	}
	return l.append(ctx, id, payload)
}

func (l *Log) append(ctx context.Context, id uint64, payload []byte) error {
	rec := appendRecord(make([]byte, 0, recHdrLen+len(payload)), recKindPayload, id, payload)
	if budget := l.opts.MaxLogBytes; budget > 0 && l.liveBytes.Load()+int64(len(rec)) > budget {
		l.rejectedFull.Add(1)
		return ErrFull
	}
	req := &appendReq{data: rec, done: make(chan error, 1)}
	start := time.Now()
	l.pending.Add(1)
	select {
	case l.appendCh <- req:
	case <-ctx.Done():
		l.pending.Add(-1)
		return fmt.Errorf("store: append: %w", ctx.Err())
	}
	// Once enqueued the committer owns the record; wait for the fsync
	// verdict (commit latency is bounded by MaxWait plus one fsync).
	err := <-req.done
	l.appendWaitNs.Add(uint64(time.Since(start).Nanoseconds()))
	if err == nil {
		l.appends.Add(1)
		l.appendedBytes.Add(uint64(len(payload)))
	}
	return err
}

// committer is the group-commit loop: it gathers concurrent appends
// into one write+fsync and acks them together. A batch closes when it
// reaches MaxBatch records, when MaxWait elapses, or as soon as no
// appender is en route — so a lone producer commits immediately while a
// burst amortizes one fsync across every record that arrived during the
// previous one.
func (l *Log) committer() {
	defer l.commitWG.Done()
	var batch []*appendReq
	var buf []byte
	stop := l.stopCh
	for {
		batch = batch[:0]
		select {
		case req := <-l.appendCh:
			l.pending.Add(-1)
			batch = append(batch, req)
		case <-stop:
			// Drain everything still queued or en route, then exit.
			for l.pending.Load() > 0 {
				select {
				case req := <-l.appendCh:
					l.pending.Add(-1)
					batch = append(batch, req)
				default:
					time.Sleep(50 * time.Microsecond)
				}
			}
			if len(batch) == 0 {
				l.sealActive()
				return
			}
			stop = nil // commit this final batch, then loop back to drain
		}

		var timer *time.Timer
	gather:
		for len(batch) < l.opts.MaxBatch {
			select {
			case req := <-l.appendCh:
				l.pending.Add(-1)
				batch = append(batch, req)
				continue
			default:
			}
			if l.pending.Load() == 0 {
				break // every in-flight appender is in the batch
			}
			if timer == nil {
				timer = time.NewTimer(l.opts.MaxWait)
			}
			select {
			case req := <-l.appendCh:
				l.pending.Add(-1)
				batch = append(batch, req)
			case <-timer.C:
				timer = nil
				break gather
			}
		}
		if timer != nil {
			timer.Stop()
		}

		buf = buf[:0]
		for _, r := range batch {
			buf = append(buf, r.data...)
		}
		err := l.commit(buf)
		if n := uint64(len(batch)); n > l.batchMax.Load() {
			l.batchMax.Store(n)
		}
		for _, r := range batch {
			r.done <- err
		}
		if stop == nil {
			// Shutdown path: loop once more to catch late arrivals.
			stop = closedChan
		}
	}
}

// closedChan is a permanently closed channel the shutdown path reuses.
var closedChan = func() chan struct{} { c := make(chan struct{}); close(c); return c }()

// commit writes one gathered batch to the active segment and fsyncs it,
// rotating first when the batch would overflow the segment.
func (l *Log) commit(buf []byte) error {
	l.segMu.Lock()
	defer l.segMu.Unlock()
	if l.ioErr != nil {
		return l.ioErr
	}
	if l.activeSize > headerLen && l.activeSize+int64(len(buf)) > l.opts.SegmentBytes {
		if err := l.rollLocked(l.activeSeq.Load() + 1); err != nil {
			l.ioErr = err
			return err
		}
	}
	if _, err := l.active.Write(buf); err != nil {
		l.ioErr = fmt.Errorf("store: append: %w", err)
		return l.ioErr
	}
	l.activeSize += int64(len(buf))
	l.liveBytes.Add(int64(len(buf)))
	start := time.Now()
	if err := l.active.Sync(); err != nil {
		l.ioErr = fmt.Errorf("store: fsync: %w", err)
		return l.ioErr
	}
	if l.syncDelay > 0 {
		time.Sleep(l.syncDelay)
	}
	l.fsyncNs.Add(uint64(time.Since(start).Nanoseconds()))
	l.fsyncs.Add(1)
	return nil
}

// rollLocked seals the active segment (fsync+close) and opens segment
// seq. Caller holds segMu.
func (l *Log) rollLocked(seq uint64) error {
	if l.active != nil {
		if err := l.active.Sync(); err != nil {
			return fmt.Errorf("store: sealing segment: %w", err)
		}
		if err := l.active.Close(); err != nil {
			return fmt.Errorf("store: sealing segment: %w", err)
		}
		l.active = nil
	}
	path := filepath.Join(l.dir, segName(seq))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("store: creating segment: %w", err)
	}
	if _, err := f.Write(fileHeader(segMagic)); err != nil {
		f.Close()
		return fmt.Errorf("store: creating segment: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("store: creating segment: %w", err)
	}
	if err := l.dirf.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("store: creating segment: %w", err)
	}
	l.active = f
	l.activeSize = headerLen
	l.activeSeq.Store(seq)
	l.liveBytes.Add(headerLen)
	l.segments.Add(1)
	return nil
}

// sealActive fsyncs and closes the active segment on shutdown.
func (l *Log) sealActive() {
	l.segMu.Lock()
	defer l.segMu.Unlock()
	if l.active != nil {
		l.active.Sync()
		l.active.Close()
		l.active = nil
	}
}

// maintainPeriod is how often the maintenance loop reads the segment
// count. The read is one atomic load, so the trigger can follow the log
// closely.
const maintainPeriod = 100 * time.Millisecond

// maintain is the background loop that bounds the log: every
// maintainPeriod, it takes a snapshot when at least SnapshotAfter sealed
// segments sit above the watermark.
func (l *Log) maintain() {
	defer l.commitWG.Done()
	tick := time.NewTicker(maintainPeriod)
	defer tick.Stop()
	for {
		select {
		case <-l.stopCh:
			return
		case <-tick.C:
		}
		// Every live segment but the active one is sealed.
		if l.segments.Load()-1 >= int64(l.opts.SnapshotAfter) {
			if err := l.SnapshotNow(); err != nil {
				l.logf("snapshot: %v", err)
			}
		}
	}
}

func (l *Log) logf(format string, args ...any) {
	if l.opts.Logf != nil {
		l.opts.Logf("store: "+format, args...)
	}
}

// Dir returns the store directory.
func (l *Log) Dir() string { return l.dir }

// Metrics returns a snapshot of the store's counters.
func (l *Log) Metrics() Metrics {
	return Metrics{
		Appends:           l.appends.Load(),
		AppendedBytes:     l.appendedBytes.Load(),
		Fsyncs:            l.fsyncs.Load(),
		FsyncNanos:        l.fsyncNs.Load(),
		AppendWaitNanos:   l.appendWaitNs.Load(),
		BatchMax:          l.batchMax.Load(),
		Duplicates:        l.duplicates.Load(),
		RejectedFull:      l.rejectedFull.Load(),
		Segments:          l.segments.Load(),
		LiveBytes:         l.liveBytes.Load(),
		ActiveSegment:     l.activeSeq.Load(),
		SnapshotWatermark: l.watermark.Load(),
		Snapshots:         l.snapshots.Load(),
		SnapshotNanos:     l.snapshotNs.Load(),
		Replay:            l.recovery,
	}
}

// Close drains in-flight appends, seals the active segment and stops
// the background loops. The log rejects new operations afterwards.
func (l *Log) Close() error {
	if l.closed.Swap(true) {
		return ErrClosed
	}
	close(l.stopCh)
	l.commitWG.Wait()
	return l.dirf.Close()
}
