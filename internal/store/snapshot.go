package store

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// SnapshotNow takes an atomic point-in-time snapshot: it stops the
// world with the ingest barrier (no Ingest is mid append-or-fold),
// captures the mounted state through Options.Snapshot along with the
// applied push IDs, rotates the active segment so the new segment's
// sequence number becomes the snapshot watermark, and releases the
// barrier before any file I/O. The snapshot file is written to a
// temporary name, fsynced and renamed into place; only then are the
// covered segments and older snapshots deleted, so a crash at any point
// leaves either the old recovery path or the new one fully intact.
func (l *Log) SnapshotNow() error {
	if l.opts.Snapshot == nil {
		return fmt.Errorf("store: no snapshot callback mounted")
	}
	l.snapMu.Lock()
	defer l.snapMu.Unlock()

	l.barrier.Lock()
	if l.closed.Load() {
		l.barrier.Unlock()
		return ErrClosed
	}
	start := time.Now()
	state, err := l.opts.Snapshot()
	if err != nil {
		l.barrier.Unlock()
		return fmt.Errorf("store: snapshot callback: %w", err)
	}
	ids := l.appliedIDs()
	l.segMu.Lock()
	err = l.rollLocked(l.activeSeq.Load() + 1)
	watermark := l.activeSeq.Load()
	l.segMu.Unlock()
	l.barrier.Unlock()
	if err != nil {
		return err
	}

	buf := fileHeader(snapMagic)
	buf = binary.LittleEndian.AppendUint64(buf, watermark)
	if len(state) > 0 {
		buf = appendRecord(buf, recKindPayload, 0, state)
	}
	if len(ids) > 0 {
		buf = appendRecord(buf, recKindManifest, 0, appendManifest(nil, ids))
	}
	tmp := filepath.Join(l.dir, "snap.tmp")
	if err := writeDurable(tmp, buf); err != nil {
		return fmt.Errorf("store: writing snapshot: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(l.dir, snapName(watermark))); err != nil {
		return fmt.Errorf("store: publishing snapshot: %w", err)
	}
	if err := l.dirf.Sync(); err != nil {
		return fmt.Errorf("store: publishing snapshot: %w", err)
	}
	l.watermark.Store(watermark)
	l.snapshots.Add(1)
	l.snapshotNs.Add(uint64(time.Since(start).Nanoseconds()))

	// The snapshot is durable; everything it covers is dead weight.
	segs, snaps, err := listDir(l.dir)
	if err != nil {
		return nil // cleanup is best-effort; recovery re-runs it
	}
	for _, sf := range segs {
		if sf.seq < watermark {
			if os.Remove(filepath.Join(l.dir, sf.name)) == nil {
				l.liveBytes.Add(-sf.size)
				l.segments.Add(-1)
			}
		}
	}
	for _, w := range snaps {
		if w != watermark {
			os.Remove(filepath.Join(l.dir, snapName(w)))
		}
	}
	return nil
}

// loadSnapshot restores snapshot watermark w during Open.
func (l *Log) loadSnapshot(w uint64) error {
	name := snapName(w)
	data, err := os.ReadFile(filepath.Join(l.dir, name))
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := checkHeader(name, data, snapMagic); err != nil {
		return err
	}
	if len(data) < headerLen+8 {
		return corrupt(name, headerLen, 0, "truncated watermark")
	}
	if got := binary.LittleEndian.Uint64(data[headerLen:]); got != w {
		return corrupt(name, headerLen, 0, "watermark %d does not match file name %d", got, w)
	}
	base := int64(headerLen + 8)
	recs, _, err := scanRecords(name, data[base:], base, false)
	if err != nil {
		return err
	}
	var payloads [][]byte
	for _, r := range recs {
		switch r.kind {
		case recKindPayload:
			payloads = append(payloads, r.payload)
			l.recovery.SnapshotBytes += int64(len(r.payload))
		case recKindManifest:
			ids, err := parseManifest(name, r.off, 0, r.payload)
			if err != nil {
				return err
			}
			for _, id := range ids {
				l.markApplied(id)
			}
		}
	}
	if l.opts.Apply == nil || len(payloads) == 0 {
		return nil
	}
	for _, err := range l.opts.Apply(payloads) {
		if err != nil {
			return fmt.Errorf("store: %s: restoring state: %w", name, err)
		}
	}
	return nil
}

// writeDurable writes data to path and fsyncs it.
func writeDurable(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
