package store

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// testState is a minimal mountable state: applied payloads concatenate
// into a buffer, so durability bugs show up as byte differences. The
// callbacks mirror the collector's contract — Snapshot dumps the whole
// buffer as one payload, which composes with Apply exactly like the real
// aggregate fold.
type testState struct {
	mu  sync.Mutex
	buf []byte
}

func (s *testState) apply(p []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.buf = append(s.buf, p...)
	return nil
}

// eachPayload adapts a one-payload fold to the batch Apply callback.
func eachPayload(fold func([]byte) error) func([][]byte) []error {
	return func(payloads [][]byte) []error {
		errs := make([]error, len(payloads))
		for i, p := range payloads {
			errs[i] = fold(p)
		}
		return errs
	}
}

func (s *testState) snapshot() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]byte(nil), s.buf...), nil
}

func (s *testState) bytes() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]byte(nil), s.buf...)
}

func (s *testState) options() Options {
	return Options{
		Apply:    eachPayload(s.apply),
		Snapshot: s.snapshot,
	}
}

func mustOpen(t *testing.T, dir string, opts Options) (*Log, Recovery) {
	t.Helper()
	l, rec, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l, rec
}

func mustIngest(t *testing.T, l *Log, id uint64, payload string) {
	t.Helper()
	dup, err := l.Ingest(context.Background(), id, []byte(payload), nil)
	if err != nil {
		t.Fatalf("Ingest(%d, %q): %v", id, payload, err)
	}
	if dup {
		t.Fatalf("Ingest(%d, %q): unexpected duplicate", id, payload)
	}
}

func TestIngestReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	live := &testState{}
	l, rec := mustOpen(t, dir, live.options())
	if rec.Records != 0 || rec.Segments != 0 {
		t.Fatalf("fresh open replayed something: %+v", rec)
	}
	var want []byte
	for i := 1; i <= 50; i++ {
		p := fmt.Sprintf("payload-%03d|", i)
		mustIngest(t, l, uint64(i), p)
		want = append(want, p...)
	}
	if got := live.bytes(); !bytes.Equal(got, want) {
		t.Fatalf("live state diverged:\n got %q\nwant %q", got, want)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	restored := &testState{}
	l2, rec := mustOpen(t, dir, restored.options())
	defer l2.Close()
	if rec.Records != 50 {
		t.Fatalf("replayed %d records, want 50 (%+v)", rec.Records, rec)
	}
	if got := restored.bytes(); !bytes.Equal(got, want) {
		t.Fatalf("replayed state diverged:\n got %q\nwant %q", got, want)
	}
}

// TestIngestKeepsNoPayload: a caller may write over a payload's buffer as
// soon as Ingest returns, as the collector reads each push into a pooled
// buffer that the next push reuses: no logged record changes.
func TestIngestKeepsNoPayload(t *testing.T) {
	dir := t.TempDir()
	live := &testState{}
	l, _ := mustOpen(t, dir, live.options())
	buf := make([]byte, 0, 64)
	var want []byte
	for i := 1; i <= 20; i++ {
		buf = fmt.Appendf(buf[:0], "push-%02d|", i)
		if _, err := l.Ingest(context.Background(), uint64(i), buf, nil); err != nil {
			t.Fatal(err)
		}
		want = append(want, buf...)
	}
	clear(buf[:cap(buf)])
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	restored := &testState{}
	l2, _ := mustOpen(t, dir, restored.options())
	defer l2.Close()
	if got := restored.bytes(); !bytes.Equal(got, want) {
		t.Fatalf("replayed %q, want %q", got, want)
	}
}

func TestIngestDuplicateID(t *testing.T) {
	dir := t.TempDir()
	live := &testState{}
	l, _ := mustOpen(t, dir, live.options())
	mustIngest(t, l, 7, "only-once|")
	dup, err := l.Ingest(context.Background(), 7, []byte("only-once|"), nil)
	if err != nil || !dup {
		t.Fatalf("retry of applied id: dup=%v err=%v, want dup=true", dup, err)
	}
	if got := live.bytes(); string(got) != "only-once|" {
		t.Fatalf("duplicate was folded: %q", got)
	}
	l.Close()

	// The dedup must survive a restart: the id rides in the record.
	restored := &testState{}
	l2, _ := mustOpen(t, dir, restored.options())
	defer l2.Close()
	dup, err = l2.Ingest(context.Background(), 7, []byte("only-once|"), nil)
	if err != nil || !dup {
		t.Fatalf("retry after restart: dup=%v err=%v, want dup=true", dup, err)
	}
	if got := restored.bytes(); string(got) != "only-once|" {
		t.Fatalf("state after restart+retry: %q", got)
	}
}

func TestGroupCommitCoalesces(t *testing.T) {
	dir := t.TempDir()
	live := &testState{}
	opts := live.options()
	opts.MaxWait = 5 * time.Millisecond
	l, _ := mustOpen(t, dir, opts)
	defer l.Close()
	// Model a disk where fsync costs something: while one group commit
	// is in flight every other producer queues behind it, which is
	// exactly the regime group commit exists for.
	l.syncDelay = time.Millisecond

	const workers, each = 16, 20
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				id := uint64(w*each + i + 1)
				if _, err := l.Ingest(context.Background(), id, []byte(fmt.Sprintf("w%02d-%02d|", w, i)), nil); err != nil {
					t.Errorf("Ingest: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	m := l.Metrics()
	if m.Appends != workers*each {
		t.Fatalf("appends = %d, want %d", m.Appends, workers*each)
	}
	// Group commit must have batched: far fewer fsyncs than appends.
	if m.Fsyncs > m.Appends/2 {
		t.Fatalf("group commit did not coalesce: %d fsyncs for %d appends (batch max %d)",
			m.Fsyncs, m.Appends, m.BatchMax)
	}
	if m.BatchMax < 2 {
		t.Fatalf("batch max = %d, want >= 2", m.BatchMax)
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	live := &testState{}
	opts := live.options()
	opts.SegmentBytes = 256 // force frequent rolls
	l, _ := mustOpen(t, dir, opts)
	var want []byte
	for i := 1; i <= 40; i++ {
		p := fmt.Sprintf("rotation-payload-%03d|", i)
		mustIngest(t, l, uint64(i), p)
		want = append(want, p...)
	}
	m := l.Metrics()
	if m.Segments < 3 {
		t.Fatalf("segments = %d, want >= 3 with %d-byte segments", m.Segments, opts.SegmentBytes)
	}
	l.Close()

	restored := &testState{}
	l2, rec := mustOpen(t, dir, restored.options())
	defer l2.Close()
	if rec.Segments < 3 || rec.Records != 40 {
		t.Fatalf("replay saw %d segments / %d records, want >=3 / 40", rec.Segments, rec.Records)
	}
	if got := restored.bytes(); !bytes.Equal(got, want) {
		t.Fatalf("multi-segment replay diverged:\n got %q\nwant %q", got, want)
	}
}

func TestMaxLogBytesRejects(t *testing.T) {
	dir := t.TempDir()
	live := &testState{}
	opts := live.options()
	opts.MaxLogBytes = 512
	l, _ := mustOpen(t, dir, opts)
	defer l.Close()
	var rejected bool
	for i := 1; i <= 100; i++ {
		_, err := l.Ingest(context.Background(), uint64(i), []byte(fmt.Sprintf("budget-%03d|", i)), nil)
		if errors.Is(err, ErrFull) {
			rejected = true
			break
		}
		if err != nil {
			t.Fatalf("Ingest: %v", err)
		}
	}
	if !rejected {
		t.Fatalf("no ErrFull after exceeding %d-byte budget (live=%d)", opts.MaxLogBytes, l.Metrics().LiveBytes)
	}
	if l.Metrics().RejectedFull == 0 {
		t.Fatalf("RejectedFull metric not incremented")
	}

	// A snapshot frees the covered segments; ingest must recover.
	if err := l.SnapshotNow(); err != nil {
		t.Fatalf("SnapshotNow: %v", err)
	}
	if _, err := l.Ingest(context.Background(), 1000, []byte("after-snap|"), nil); err != nil {
		t.Fatalf("ingest after snapshot should fit: %v", err)
	}
}

func TestSnapshotRestore(t *testing.T) {
	dir := t.TempDir()
	live := &testState{}
	l, _ := mustOpen(t, dir, live.options())
	var want []byte
	for i := 1; i <= 20; i++ {
		p := fmt.Sprintf("pre-snap-%03d|", i)
		mustIngest(t, l, uint64(i), p)
		want = append(want, p...)
	}
	if err := l.SnapshotNow(); err != nil {
		t.Fatalf("SnapshotNow: %v", err)
	}
	for i := 21; i <= 30; i++ {
		p := fmt.Sprintf("post-snap-%03d|", i)
		mustIngest(t, l, uint64(i), p)
		want = append(want, p...)
	}
	m := l.Metrics()
	if m.Snapshots != 1 || m.SnapshotWatermark == 0 {
		t.Fatalf("snapshot metrics: %+v", m)
	}
	l.Close()

	restored := &testState{}
	l2, rec := mustOpen(t, dir, restored.options())
	if rec.SnapshotSeq == 0 || rec.SnapshotBytes == 0 {
		t.Fatalf("restore did not use the snapshot: %+v", rec)
	}
	if rec.Records != 10 {
		t.Fatalf("replayed %d records past the watermark, want 10", rec.Records)
	}
	if got := restored.bytes(); !bytes.Equal(got, want) {
		t.Fatalf("snapshot+replay diverged:\n got %q\nwant %q", got, want)
	}
	// Push-ID dedup must survive through the snapshot manifest.
	dup, err := l2.Ingest(context.Background(), 5, []byte("pre-snap-005|"), nil)
	if err != nil || !dup {
		t.Fatalf("retry of snapshotted id: dup=%v err=%v", dup, err)
	}
	l2.Close()
}

// TestSnapshotCrashLeavesCoveredSegments: a crash between publishing a
// snapshot and deleting the segments it covers leaves those segments
// behind, and a crash while writing a snapshot leaves snap.tmp. Open must
// replay neither and must delete both.
func TestSnapshotCrashLeavesCoveredSegments(t *testing.T) {
	dir := t.TempDir()
	live := &testState{}
	opts := live.options()
	opts.SegmentBytes = 256
	l, _ := mustOpen(t, dir, opts)
	var want []byte
	for i := 1; i <= 20; i++ {
		p := fmt.Sprintf("covered-%03d|", i)
		mustIngest(t, l, uint64(i), p)
		want = append(want, p...)
	}
	if err := l.SnapshotNow(); err != nil {
		t.Fatalf("SnapshotNow: %v", err)
	}
	wm := l.Metrics().SnapshotWatermark
	l.Close()

	// Put back the segment just below the watermark with stale content:
	// replaying it would change the state, and mark its push ID applied.
	covered := segName(wm - 1)
	writeLogFile(t, dir, covered, testRecord{id: 999, payload: "stale-data-must-not-replay|"})
	if err := os.WriteFile(filepath.Join(dir, "snap.tmp"), []byte("PPWALSNP torn"), 0o644); err != nil {
		t.Fatal(err)
	}

	restored := &testState{}
	l2, rec := mustOpen(t, dir, restored.options())
	defer l2.Close()
	if got := restored.bytes(); !bytes.Equal(got, want) {
		t.Fatalf("covered segment leaked into replay:\n got %q\nwant %q", got, want)
	}
	if rec.SnapshotSeq != wm || rec.Records != 0 {
		t.Fatalf("recovery = %+v, want the snapshot at %d and no records", rec, wm)
	}
	for _, name := range []string{covered, "snap.tmp"} {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Fatalf("%s not cleaned up: %v", name, err)
		}
	}
	if dup, err := l2.Ingest(context.Background(), 999, []byte("fresh|"), nil); err != nil || dup {
		t.Fatalf("push ID of the covered segment: dup=%v err=%v, want a fresh push", dup, err)
	}
}

func TestApplyErrorStillDurable(t *testing.T) {
	// A payload the fold rejects must stay in the log and keep failing
	// identically on replay — the record is durable before it is folded.
	dir := t.TempDir()
	bad := []byte("reject-me|")
	apply := func(p []byte) error {
		if bytes.Equal(p, bad) {
			return errors.New("rejected")
		}
		return nil
	}
	l, _ := mustOpen(t, dir, Options{Apply: eachPayload(apply)})
	if _, err := l.Ingest(context.Background(), 1, bad, nil); err == nil {
		t.Fatalf("fold error not propagated")
	}
	// The id is marked applied even on fold error, so the client's
	// retry is deduped instead of folding a second time.
	dup, err := l.Ingest(context.Background(), 1, bad, nil)
	if err != nil || !dup {
		t.Fatalf("retry of rejected push: dup=%v err=%v", dup, err)
	}
	l.Close()

	var replayErrs int
	apply2 := func(p []byte) error {
		if bytes.Equal(p, bad) {
			replayErrs++
			return errors.New("rejected")
		}
		return nil
	}
	l2, rec := mustOpen(t, dir, Options{Apply: eachPayload(apply2)})
	defer l2.Close()
	if replayErrs != 1 || rec.ApplyErrors != 1 {
		t.Fatalf("replay apply errors = %d (recovery %d), want 1", replayErrs, rec.ApplyErrors)
	}
}

// TestApplyUnreadableFailsReplay: a record whose Apply error wraps
// ErrUnreadable fails Open with a *CorruptError naming the file, the
// record's offset and its index, while any other Apply error is still
// counted and skipped.
func TestApplyUnreadableFailsReplay(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{})
	for _, p := range []string{"good|", "reject-me|", "old-format|"} {
		if err := l.Append(context.Background(), 0, []byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	apply := func(unreadable error) func([][]byte) []error {
		return eachPayload(func(p []byte) error {
			switch string(p) {
			case "reject-me|":
				return errors.New("rejected")
			case "old-format|":
				return unreadable
			}
			return nil
		})
	}

	_, _, err := Open(dir, Options{Apply: apply(fmt.Errorf("%w: old format", ErrUnreadable))})
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("Open over an unreadable record: err = %v, want *CorruptError", err)
	}
	wantOff := int64(headerLen + recHdrLen + len("good|") + recHdrLen + len("reject-me|"))
	if ce.File != "wal-00000001.seg" || ce.Offset != wantOff || ce.Record != 2 ||
		ce.Reason != "unreadable record: old format" {
		t.Fatalf("CorruptError = %+v, want wal-00000001.seg offset %d record 2", ce, wantOff)
	}

	l2, rec := mustOpen(t, dir, Options{Apply: apply(nil)})
	defer l2.Close()
	if rec.Records != 3 || rec.ApplyErrors != 1 {
		t.Fatalf("replayed %d records with %d apply errors, want 3 and 1", rec.Records, rec.ApplyErrors)
	}
}

// testRecord is one record of a hand-written log file: a payload with
// its push ID, or a manifest when ids is set.
type testRecord struct {
	id      uint64
	payload string
	ids     []uint64
}

// writeLogFile writes a segment file of the given records under name, or
// a snapshot file when name is a snapshot's.
func writeLogFile(t *testing.T, dir, name string, recs ...testRecord) {
	t.Helper()
	data := fileHeader(segMagic)
	if strings.HasSuffix(name, ".snap") {
		wm, _ := parseSeq(name)
		data = binary.LittleEndian.AppendUint64(fileHeader(snapMagic), wm)
	}
	for _, r := range recs {
		if r.ids != nil {
			data = appendRecord(data, recKindManifest, 0, appendManifest(nil, r.ids))
		} else {
			data = appendRecord(data, recKindPayload, r.id, []byte(r.payload))
		}
	}
	if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestReplayBatchesPerFile: replay hands Apply one batch per file, the
// file's payloads in log order, and drops every record whose push ID an
// earlier record or the snapshot's manifest already applied.
func TestReplayBatchesPerFile(t *testing.T) {
	dir := t.TempDir()
	writeLogFile(t, dir, "snap-00000002.snap",
		testRecord{payload: "a|b|"}, testRecord{ids: []uint64{1, 2}})
	writeLogFile(t, dir, "wal-00000002.seg",
		testRecord{id: 3, payload: "c|"},
		testRecord{id: 1, payload: "dup-a|"}, // in the manifest
		testRecord{id: 4, payload: "d|"},
		testRecord{id: 3, payload: "dup-c|"}, // earlier in the file
		testRecord{payload: "e|"},
		testRecord{payload: "e|"}) // no push ID: never a duplicate
	writeLogFile(t, dir, "wal-00000003.seg",
		testRecord{id: 4, payload: "dup-d|"}, // an earlier file
		testRecord{id: 5, payload: "f|"})

	var calls [][]string
	l, rec := mustOpen(t, dir, Options{Apply: func(payloads [][]byte) []error {
		var call []string
		for _, p := range payloads {
			call = append(call, string(p))
		}
		calls = append(calls, call)
		return make([]error, len(payloads))
	}})
	defer l.Close()
	want := [][]string{{"a|b|"}, {"c|", "d|", "e|", "e|"}, {"f|"}}
	if fmt.Sprint(calls) != fmt.Sprint(want) {
		t.Fatalf("Apply calls = %q, want %q", calls, want)
	}
	if rec.SnapshotBytes != 4 || rec.Segments != 2 || rec.Records != 5 || rec.Duplicates != 3 || rec.Bytes != 10 {
		t.Fatalf("recovery = %+v, want a 4-byte snapshot, 2 segments, 5 records of 10 bytes, 3 duplicates", rec)
	}
}

// TestRetiredFileKindsRefused: only an older build's compaction wrote a
// compacted segment (wal-*.cmp) or a manifest record inside a segment.
// Open refuses a directory holding either with a *CorruptError naming the
// file and the offset, and leaves the file in place instead of skipping
// it.
func TestRetiredFileKindsRefused(t *testing.T) {
	manifest := testRecord{ids: []uint64{3, 4}}
	for _, tc := range []struct {
		file string
		recs []testRecord
		want string
	}{
		{"wal-00000002.cmp", []testRecord{{payload: "c|d|"}, manifest},
			"store: wal-00000002.cmp: offset 0: record 0: compacted segment written by an older build"},
		{"wal-00000002.seg", []testRecord{{id: 5, payload: "e|"}, manifest, {id: 6, payload: "f|"}},
			fmt.Sprintf("store: wal-00000002.seg: offset %d: record 1: manifest record written by an older build's compaction",
				headerLen+recHdrLen+len("e|"))},
	} {
		t.Run(tc.file, func(t *testing.T) {
			dir := t.TempDir()
			writeLogFile(t, dir, "wal-00000001.seg", testRecord{id: 1, payload: "a|"}, testRecord{id: 2, payload: "b|"})
			writeLogFile(t, dir, tc.file, tc.recs...)
			_, _, err := Open(dir, (&testState{}).options())
			var ce *CorruptError
			if !errors.As(err, &ce) || err.Error() != tc.want {
				t.Fatalf("Open: err = %v, want *CorruptError %q", err, tc.want)
			}
			if _, err := os.Stat(filepath.Join(dir, tc.file)); err != nil {
				t.Fatalf("refused file was not left in place: %v", err)
			}
		})
	}
}

// TestApplyLowestUnreadableReported: when Apply reports several
// unreadable payloads in one batch, Open fails at the lowest-indexed
// one, positioned at its record in the file (duplicates dropped before
// Apply still count in the record index).
func TestApplyLowestUnreadableReported(t *testing.T) {
	dir := t.TempDir()
	writeLogFile(t, dir, "wal-00000001.seg",
		testRecord{id: 1, payload: "good|"},
		testRecord{id: 1, payload: "good|"},
		testRecord{id: 2, payload: "old-1|"},
		testRecord{id: 3, payload: "reject-me|"},
		testRecord{id: 4, payload: "old-2|"})
	_, _, err := Open(dir, Options{Apply: eachPayload(func(p []byte) error {
		switch string(p) {
		case "reject-me|":
			return errors.New("rejected")
		case "old-1|", "old-2|":
			return fmt.Errorf("%w: %s", ErrUnreadable, p)
		}
		return nil
	})})
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("Open over two unreadable records: err = %v, want *CorruptError", err)
	}
	wantOff := int64(headerLen + 2*(recHdrLen+len("good|")))
	if ce.File != "wal-00000001.seg" || ce.Offset != wantOff || ce.Record != 2 ||
		ce.Reason != "unreadable record: old-1|" {
		t.Fatalf("CorruptError = %+v, want wal-00000001.seg offset %d record 2 naming old-1|", ce, wantOff)
	}
}

func TestCloseDrainsInFlight(t *testing.T) {
	dir := t.TempDir()
	live := &testState{}
	opts := live.options()
	opts.MaxWait = 20 * time.Millisecond
	l, _ := mustOpen(t, dir, opts)
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = l.Ingest(context.Background(), uint64(i+1), []byte(fmt.Sprintf("drain-%d|", i)), nil)
		}(i)
	}
	time.Sleep(2 * time.Millisecond)
	closeErr := l.Close()
	wg.Wait()
	if closeErr != nil {
		t.Fatalf("Close: %v", closeErr)
	}
	var ok int
	for _, err := range errs {
		if err == nil {
			ok++
		} else if !errors.Is(err, ErrClosed) {
			t.Fatalf("in-flight ingest failed with %v, want nil or ErrClosed", err)
		}
	}
	// Everything acked must replay.
	restored := &testState{}
	l2, rec := mustOpen(t, dir, restored.options())
	defer l2.Close()
	if rec.Records != ok {
		t.Fatalf("replayed %d records, but %d ingests were acked", rec.Records, ok)
	}
}
