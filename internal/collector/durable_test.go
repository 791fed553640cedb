package collector

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pathprof/internal/store"
)

// newDurableServer mounts a store on a fresh collector and serves it.
// The caller owns the returned log (closed via t.Cleanup in open order,
// so restarts can close it earlier by hand).
func newDurableServer(t *testing.T, dir string, cfg Config, sopts store.Options) (*Collector, *Client, *store.Log, store.Recovery) {
	t.Helper()
	c := New(cfg)
	l, rec, err := c.OpenStore(dir, sopts)
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	t.Cleanup(func() { l.Close() })
	srv := httptest.NewServer(c.Handler())
	t.Cleanup(srv.Close)
	return c, &Client{BaseURL: srv.URL, HTTPClient: srv.Client()}, l, rec
}

func pushEnvelopes(t *testing.T, cl *Client, envs []envelope) {
	t.Helper()
	ctx := context.Background()
	for _, e := range envs {
		var err error
		if e.p != nil {
			_, err = cl.PushProfile(ctx, e.p)
		} else {
			_, err = cl.PushExport(ctx, e.ex)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestDurableRestartByteIdentity is the durability oracle: push a
// workload into a durable collector, tear the whole process state down
// (close the store, drop the collector), recover from disk alone, and
// the recovered tables 3, 4 and 5 must be byte-identical to an
// uninterrupted in-memory collector fed the same envelope multiset.
func TestDurableRestartByteIdentity(t *testing.T) {
	envs := testEnvelopes(t, 10)
	programs := []string{"compress", "otherprog"}

	_, memCl := newServer(t, Config{Shards: 4})
	pushEnvelopes(t, memCl, envs)
	want := tableBytes(t, memCl, programs)

	dir := t.TempDir()
	_, durCl, l, _ := newDurableServer(t, dir, Config{Shards: 4}, store.Options{})
	pushEnvelopes(t, durCl, envs)
	if got := tableBytes(t, durCl, programs); got != want {
		t.Fatalf("durable collector diverged before restart")
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Restart: a brand-new collector recovers purely from the log.
	_, cl2, _, rec := newDurableServer(t, dir, Config{Shards: 4}, store.Options{})
	if rec.Records == 0 {
		t.Fatalf("restart replayed nothing: %+v", rec)
	}
	if got := tableBytes(t, cl2, programs); got != want {
		t.Fatalf("tables after restart+replay differ from uninterrupted run")
	}
}

// TestSnapshotMidIngestEquivalence covers the satellite: snapshot in
// the middle of an ingest stream, restart, replay the remainder — the
// tables must be byte-identical to the uninterrupted collector, and the
// replay must be bounded by the snapshot (few records, not the full
// history).
func TestSnapshotMidIngestEquivalence(t *testing.T) {
	envs := testEnvelopes(t, 12)
	programs := []string{"compress", "otherprog"}

	_, memCl := newServer(t, Config{Shards: 4})
	pushEnvelopes(t, memCl, envs)
	want := tableBytes(t, memCl, programs)

	dir := t.TempDir()
	_, durCl, l, _ := newDurableServer(t, dir, Config{Shards: 4}, store.Options{})
	half := len(envs) / 2
	pushEnvelopes(t, durCl, envs[:half])

	// Snapshot through the ops endpoint, as an operator would.
	resp, err := durCl.http().Post(durCl.BaseURL+"/store/snapshot", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var sm store.Metrics
	if err := json.NewDecoder(resp.Body).Decode(&sm); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || sm.Snapshots != 1 {
		t.Fatalf("snapshot endpoint: status %d, metrics %+v", resp.StatusCode, sm)
	}

	pushEnvelopes(t, durCl, envs[half:])
	l.Close()

	_, cl2, _, rec := newDurableServer(t, dir, Config{Shards: 4}, store.Options{})
	if rec.SnapshotSeq == 0 || rec.SnapshotBytes == 0 {
		t.Fatalf("restart ignored the snapshot: %+v", rec)
	}
	if rec.Records != len(envs)-half {
		t.Fatalf("replay folded %d records, want only the %d post-snapshot pushes", rec.Records, len(envs)-half)
	}
	if got := tableBytes(t, cl2, programs); got != want {
		t.Fatalf("tables after snapshot+restart+replay differ from uninterrupted run")
	}
}

// TestSnapshotAfterBoundsLog: with no snapshot asked for, the store's
// maintenance loop takes one once SnapshotAfter sealed segments sit above
// the watermark, so the live segments stay bounded. A restart restores
// the snapshot and replays only the pushes logged since it, into tables
// byte-identical to an in-memory collector's, and the retry of a push
// from before the snapshot still answers duplicate.
func TestSnapshotAfterBoundsLog(t *testing.T) {
	envs := testEnvelopes(t, 8)
	programs := []string{"compress", "otherprog"}
	ctx := context.Background()

	_, memCl := newServer(t, Config{Shards: 4})
	pushEnvelopes(t, memCl, envs)
	want := tableBytes(t, memCl, programs)

	dir := t.TempDir()
	sopts := store.Options{SegmentBytes: 1 << 10, SnapshotAfter: 2}
	_, durCl, l, _ := newDurableServer(t, dir, Config{Shards: 4}, sopts)
	frames := make([][]byte, len(envs))
	for i, e := range envs {
		frames[i] = frameOf(t, e)
		if _, err := durCl.doPush(ctx, frames[i], uint64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	if sm := l.Metrics(); sm.ActiveSegment < 5 {
		t.Fatalf("%d pushes sealed %d segments, want at least 4", len(envs), sm.ActiveSegment-1)
	}
	// The maintenance loop checks every 100 ms: wait for a tick past the
	// last push.
	var sm store.Metrics
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		if sm = l.Metrics(); sm.Snapshots >= 1 && sm.Segments <= 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no snapshot bounded the log: %d snapshots, %d live segments", sm.Snapshots, sm.Segments)
		}
	}
	if got := tableBytes(t, durCl, programs); got != want {
		t.Fatalf("automatic snapshots changed live tables")
	}
	l.Close()

	_, cl2, _, rec := newDurableServer(t, dir, Config{Shards: 4}, sopts)
	if rec.SnapshotSeq == 0 || rec.Records >= len(envs) {
		t.Fatalf("restart replayed %d records past snapshot %d, want a snapshot and fewer than %d",
			rec.Records, rec.SnapshotSeq, len(envs))
	}
	if got := tableBytes(t, cl2, programs); got != want {
		t.Fatalf("tables after snapshot+restart differ from uninterrupted run")
	}
	if ir, err := cl2.doPush(ctx, frames[0], 1); err != nil || !ir.Duplicate {
		t.Fatalf("retry of a pre-snapshot push: %+v, %v; want duplicate", ir, err)
	}
	if got := tableBytes(t, cl2, programs); got != want {
		t.Fatalf("a duplicate retry changed the tables")
	}
}

// TestDurablePushRetryDeduplicates: the same push ID twice — the wire
// retry after a lost ack — folds once and acks the second as duplicate.
func TestDurablePushRetryDeduplicates(t *testing.T) {
	prof, _ := fixtures(t)
	dir := t.TempDir()
	c, cl, _, _ := newDurableServer(t, dir, Config{Shards: 2}, store.Options{})

	body := profileFrame(t, prof)
	push := func() IngestResponse {
		req, err := http.NewRequest(http.MethodPost, cl.BaseURL+"/ingest", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Push-Id", "deadbeef01")
		resp, err := cl.http().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("push: HTTP %d", resp.StatusCode)
		}
		var ir IngestResponse
		if err := json.NewDecoder(resp.Body).Decode(&ir); err != nil {
			t.Fatal(err)
		}
		return ir
	}
	if ir := push(); ir.Duplicate {
		t.Fatalf("first push marked duplicate: %+v", ir)
	}
	if ir := push(); !ir.Duplicate {
		t.Fatalf("retried push not marked duplicate: %+v", ir)
	}
	m := c.Metrics()
	if m.IngestedProfiles != 1 {
		t.Fatalf("ingested %d profiles, want 1 (retry must not re-fold)", m.IngestedProfiles)
	}
	if m.Store == nil || m.Store.Duplicates != 1 {
		t.Fatalf("store metrics: %+v", m.Store)
	}
}

// TestReplayCountsIngestedBytes: a collector restarted from its log
// reports the ingest counters the live one did, ingested_bytes included.
// Replay, like live ingest, counts a frame and its bytes only when every
// item folds, and counts the items of a refused frame that fold.
func TestReplayCountsIngestedBytes(t *testing.T) {
	envs := testEnvelopes(t, 2)
	dir := t.TempDir()
	c, cl, l, _ := newDurableServer(t, dir, Config{Shards: 2}, replayOptions)
	ctx := context.Background()
	if _, err := cl.PushFrame(ctx, frameOf(t, envs[:4]...)); err != nil {
		t.Fatal(err)
	}
	// The third item does not decode: the frame is refused and logged,
	// and its other items fold.
	_, err := cl.PushFrame(ctx, frameOf(t, envs[4], envs[5], envelope{ex: hugeNumProcs}, envs[7]))
	if statusOf(t, err) != http.StatusBadRequest {
		t.Fatalf("frame with an undecodable item: %v, want 400", err)
	}
	if _, err := cl.PushFrame(ctx, frameOf(t, envs[6])); err != nil {
		t.Fatal(err)
	}
	want := c.Metrics()
	if want.IngestedFrames != 2 || want.IngestedProfiles != 4 || want.IngestedCCTs != 4 || want.IngestedBytes == 0 {
		t.Fatalf("live collector ingested %d frames, %d profiles, %d CCTs, %d bytes; want 2, 4, 4 and some bytes",
			want.IngestedFrames, want.IngestedProfiles, want.IngestedCCTs, want.IngestedBytes)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	r, rec := reopenCopy(t, dir, 2)
	if rec.Records != 3 || rec.ApplyErrors != 1 {
		t.Fatalf("recovery %+v, want 3 records and 1 apply error", rec)
	}
	got := r.Metrics()
	if got.IngestedFrames != want.IngestedFrames || got.IngestedProfiles != want.IngestedProfiles ||
		got.IngestedCCTs != want.IngestedCCTs || got.IngestedBytes != want.IngestedBytes {
		t.Fatalf("restart ingested %d frames, %d profiles, %d CCTs, %d bytes; the live collector %d, %d, %d, %d",
			got.IngestedFrames, got.IngestedProfiles, got.IngestedCCTs, got.IngestedBytes,
			want.IngestedFrames, want.IngestedProfiles, want.IngestedCCTs, want.IngestedBytes)
	}
}

// TestStoreFullBackpressure covers the satellite: when the WAL disk
// budget is exhausted the client sees 503 + Retry-After (a retryable
// shed, like 429), RejectedStoreFull counts it, and a snapshot frees
// the budget so the retried push succeeds.
func TestStoreFullBackpressure(t *testing.T) {
	prof, _ := fixtures(t)
	dir := t.TempDir()
	// Budget fits roughly two profile pushes.
	budget := int64(len(profileFrame(t, prof))*2 + 256)
	c, cl, _, _ := newDurableServer(t, dir, Config{Shards: 2, RetryAfter: 2 * time.Second},
		store.Options{MaxLogBytes: budget})

	ctx := context.Background()
	var sawFull bool
	var fullErr error
	for i := 0; i < 10; i++ {
		if _, err := cl.PushProfile(ctx, prof); err != nil {
			sawFull, fullErr = true, err
			break
		}
	}
	if !sawFull {
		t.Fatalf("no 503 after exhausting a %d-byte budget", budget)
	}
	var ae *apiError
	if !errors.As(fullErr, &ae) || ae.Status != http.StatusServiceUnavailable {
		t.Fatalf("store-full error = %v, want HTTP 503", fullErr)
	}
	if ae.RetryAfter < time.Second {
		t.Fatalf("store-full response carries no Retry-After hint: %+v", ae)
	}
	if got, ok := retryable(fullErr); !ok || got != ae.RetryAfter {
		t.Fatalf("client does not treat store-full as retryable backoff: %v %v", got, ok)
	}
	if m := c.Metrics(); m.RejectedStoreFull == 0 {
		t.Fatalf("RejectedStoreFull not counted: %+v", m)
	}

	// A snapshot absorbs the log into one compact file; the client's
	// retry must now land.
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.PushProfile(ctx, prof); err != nil {
		t.Fatalf("push after snapshot freed the budget: %v", err)
	}
}

// TestDurabilityMetricsExposed: /metrics must carry the store's
// per-stage counters and the declared ack mode.
func TestDurabilityMetricsExposed(t *testing.T) {
	prof, _ := fixtures(t)
	dir := t.TempDir()
	_, cl, _, _ := newDurableServer(t, dir, Config{Shards: 2}, store.Options{})
	if _, err := cl.PushProfile(context.Background(), prof); err != nil {
		t.Fatal(err)
	}
	data, err := cl.get(context.Background(), "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var m Metrics
	if err := json.Unmarshal([]byte(data), &m); err != nil {
		t.Fatal(err)
	}
	if m.Durability != "batch" {
		t.Fatalf("durability = %q, want batch", m.Durability)
	}
	if m.Store == nil {
		t.Fatalf("no store metrics in /metrics")
	}
	if m.Store.Appends != 1 || m.Store.Fsyncs == 0 || m.Store.AppendedBytes == 0 {
		t.Fatalf("store metrics not counting: %+v", m.Store)
	}

	// The in-memory collector must say so and carry no store block.
	_, memCl := newServer(t, Config{})
	data, err = memCl.get(context.Background(), "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var mm Metrics
	if err := json.Unmarshal([]byte(data), &mm); err != nil {
		t.Fatal(err)
	}
	if mm.Durability != "none" || mm.Store != nil {
		t.Fatalf("in-memory metrics: durability=%q store=%v", mm.Durability, mm.Store)
	}
}

// TestDurableRelaySpool: a relay with a durable local collector spools
// through upstream outages and across restarts without losing or
// double-delivering envelopes. Every non-empty flush, failed or not,
// checkpoints the spool, so through an outage the spool holds one
// snapshot plus the segments logged since it.
func TestDurableRelaySpool(t *testing.T) {
	envs := testEnvelopes(t, 6)
	programs := []string{"compress", "otherprog"}
	ctx := context.Background()

	_, memCl := newServer(t, Config{Shards: 4})
	pushEnvelopes(t, memCl, envs)
	want := tableBytes(t, memCl, programs)

	_, rootCl := newServer(t, Config{Shards: 4})
	dead := &Client{BaseURL: "http://127.0.0.1:1", HTTPClient: &http.Client{Timeout: 200 * time.Millisecond}}

	dir := t.TempDir()
	sopts := store.Options{SnapshotAfter: -1}
	local, localCl, l, _ := newDurableServer(t, dir, Config{Shards: 2}, sopts)
	relay := &Relay{Local: local, Upstream: dead}
	half := len(envs) / 2
	pushEnvelopes(t, localCl, envs[:half])
	// Flush against a dead upstream: the envelopes fold back locally, and
	// the spool is checkpointed holding them.
	if err := relay.FlushOnce(ctx); err == nil {
		t.Fatalf("flush against dead upstream succeeded")
	}
	if st := relay.Stats(); st.FlushFailures != 1 || st.Checkpoints != 1 {
		t.Fatalf("failed flush: %+v, want one failure and one checkpoint", st)
	}
	l.Close()

	// Crash the relay; recovery restores the first half from the snapshot.
	local2, local2Cl, l2, rec := newDurableServer(t, dir, Config{Shards: 2}, sopts)
	if rec.SnapshotSeq == 0 || rec.SnapshotBytes == 0 || rec.Records != 0 {
		t.Fatalf("relay spool did not restore from its snapshot: %+v", rec)
	}
	relay2 := &Relay{Local: local2, Upstream: dead}
	for part := 0; part < 3; part++ {
		n := (len(envs) - half) / 3
		pushEnvelopes(t, local2Cl, envs[half+part*n:half+(part+1)*n])
		if err := relay2.FlushOnce(ctx); err == nil {
			t.Fatalf("flush %d against dead upstream succeeded", part+1)
		}
	}
	snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	wm := l2.Metrics().SnapshotWatermark
	if len(snaps) != 1 || filepath.Base(snaps[0]) != fmt.Sprintf("snap-%08d.snap", wm) {
		t.Fatalf("spool holds snapshots %v, want one at watermark %d", snaps, wm)
	}
	for _, seg := range segs {
		var seq uint64
		if _, err := fmt.Sscanf(filepath.Base(seg), "wal-%08d.seg", &seq); err != nil || seq < wm {
			t.Fatalf("spool holds %s, which its snapshot at %d covers", seg, wm)
		}
	}

	relay2.Upstream = rootCl
	if err := relay2.FlushOnce(ctx); err != nil {
		t.Fatalf("flush to live upstream: %v", err)
	}
	if st := relay2.Stats(); st.FlushFailures != 3 || st.Checkpoints != 4 {
		t.Fatalf("relay stats: %+v, want three failures and four checkpoints", st)
	}
	if got := tableBytes(t, rootCl, programs); got != want {
		t.Fatalf("upstream tables after spooled relay differ from direct ingest")
	}
	// The checkpoint emptied the spool: a restart holds nothing to
	// deliver, and an idle flush must not double-deliver.
	l2.Close()
	local3, _, _, _ := newDurableServer(t, dir, Config{Shards: 2}, sopts)
	if progs := local3.Programs(); len(progs) != 0 {
		t.Fatalf("restarted spool still holds %v after a delivered flush", progs)
	}
	if err := (&Relay{Local: local3, Upstream: rootCl}).FlushOnce(ctx); err != nil {
		t.Fatal(err)
	}
	if got := tableBytes(t, rootCl, programs); got != want {
		t.Fatalf("idle flush re-delivered envelopes upstream")
	}
}

// TestDurableConcurrentPushes exercises group commit under the full
// HTTP stack: many concurrent pushes, all durable, all replayed.
func TestDurableConcurrentPushes(t *testing.T) {
	envs := testEnvelopes(t, 8)
	programs := []string{"compress", "otherprog"}

	_, memCl := newServer(t, Config{Shards: 4})
	pushEnvelopes(t, memCl, envs)
	want := tableBytes(t, memCl, programs)

	dir := t.TempDir()
	c, durCl, l, _ := newDurableServer(t, dir, Config{Shards: 4}, store.Options{})
	errc := make(chan error, len(envs))
	for _, e := range envs {
		go func(e envelope) {
			var err error
			if e.p != nil {
				_, err = durCl.PushProfile(context.Background(), e.p)
			} else {
				_, err = durCl.PushExport(context.Background(), e.ex)
			}
			errc <- err
		}(e)
	}
	for range envs {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	if m := c.Metrics(); m.Store.Appends != uint64(len(envs)) {
		t.Fatalf("store appends = %d, want %d", m.Store.Appends, len(envs))
	}
	l.Close()

	_, cl2, _, _ := newDurableServer(t, dir, Config{Shards: 4}, store.Options{})
	if got := tableBytes(t, cl2, programs); got != want {
		t.Fatalf("concurrent durable ingest did not replay byte-identically")
	}
}

// wireFixture reads one of the wire package's committed test files.
func wireFixture(t *testing.T, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "wire", "testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestRetiredEnvelopeRefused: a version-1 or version-2 envelope POSTed
// to a durable collector gets 400 with the frame parser's positioned
// error, counts as a bad push, and never reaches the log.
func TestRetiredEnvelopeRefused(t *testing.T) {
	prof, _ := fixtures(t)
	c, cl, _, _ := newDurableServer(t, t.TempDir(), Config{Shards: 2}, store.Options{})
	ctx := context.Background()
	if _, err := cl.PushProfile(ctx, prof); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ file, version string }{
		{"v1_profile.bin", "1"}, {"v1_cct.bin", "1"}, {"v2_profile.bin", "2"},
	} {
		before := c.Metrics()
		_, err := cl.PushFrame(ctx, wireFixture(t, tc.file))
		want := "wire: frame offset 4: unsupported frame version " + tc.version + " (want 3)"
		if statusOf(t, err) != http.StatusBadRequest || !strings.Contains(err.Error(), want) {
			t.Fatalf("%s: err = %v, want 400 naming %q", tc.file, err, want)
		}
		after := c.Metrics()
		if after.RejectedBad != before.RejectedBad+1 || after.Store.Appends != before.Store.Appends {
			t.Fatalf("%s: rejected_bad %d -> %d, store appends %d -> %d; want +1 and unchanged",
				tc.file, before.RejectedBad, after.RejectedBad, before.Store.Appends, after.Store.Appends)
		}
	}
}

// TestOldDataDirRefused: a logged record without a frame header can only
// come from a build that logged version-1 or version-2 envelopes, so
// opening a data dir that holds one fails with a positioned
// *store.CorruptError instead of skipping the record.
func TestOldDataDirRefused(t *testing.T) {
	prof, _ := fixtures(t)
	dir := t.TempDir()
	l, _, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	frame := profileFrame(t, prof)
	for _, p := range [][]byte{frame, wireFixture(t, "v1_profile.bin")} {
		if err := l.Append(context.Background(), 0, p); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	_, _, err = New(Config{}).OpenStore(dir, store.Options{})
	var ce *store.CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("OpenStore over a version-1 record: err = %v, want *store.CorruptError", err)
	}
	// A 16-byte file header, then the frame's record behind its 17-byte
	// record header.
	off := 16 + 17 + len(frame)
	want := fmt.Sprintf("store: wal-00000001.seg: offset %d: record 1: unreadable record: "+
		"wire: frame offset 4: unsupported frame version 1 (want 3)", off)
	if err.Error() != want {
		t.Fatalf("OpenStore error:\n got %v\nwant %s", err, want)
	}
}
