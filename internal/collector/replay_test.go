package collector

import (
	"bytes"
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"pathprof/internal/store"
	"pathprof/internal/wire"
)

// replayOptions keeps the test logs small enough to span several
// segments, and automatic snapshots out of the way.
var replayOptions = store.Options{SegmentBytes: 4 << 10, SnapshotAfter: -1}

// reopenCopy recovers a copy of the log in dir into a fresh collector of
// the given shard count, so every reopen replays the same files (a
// reopen adds an empty active segment to the directory it opens).
func reopenCopy(t *testing.T, dir string, shards int) (*Collector, store.Recovery) {
	t.Helper()
	cp := t.TempDir()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(cp, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	c := New(Config{Shards: shards})
	l, rec, err := c.OpenStore(cp, replayOptions)
	if err != nil {
		t.Fatalf("OpenStore at %d shards: %v", shards, err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return c, rec
}

// frameOf encodes envelopes as one version-3 frame.
func frameOf(t *testing.T, envs ...envelope) []byte {
	t.Helper()
	bw := wire.NewBatchWriter()
	for _, e := range envs {
		var err error
		if e.p != nil {
			err = bw.AddProfile(e.p)
		} else {
			err = bw.AddExport(e.ex)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return append([]byte(nil), bw.Frame()...)
}

// TestReplayMatchesSerialFold: replay folds each item into its program's
// home shard, one goroutine per shard, all side by side. A log spanning a
// snapshot and several segments, holding flow+hw, context+flow and k=2
// items, two records whose push IDs were already applied and a frame
// whose third item fails to decode, must recover at 1, 3 and 4 shards the
// aggregates, ingest counters and recovery counts of a serial IngestFrame
// fold of the surviving frames into a one-shard collector.
func TestReplayMatchesSerialFold(t *testing.T) {
	inputs := mergeInputs(t)
	compiler, compress, k2 := inputs[0], inputs[1], inputs[2]
	rng := rand.New(rand.NewSource(1))
	prof := func(in mergeInput) envelope { return envelope{p: varyProfile(rng, in.prof, in.name)} }
	tree := func(in mergeInput) envelope { return envelope{ex: in.tree.Export(in.name)} }
	var frames [][]byte
	for i := 0; i < 16; i++ {
		frames = append(frames, frameOf(t, prof(compiler), tree(compress), prof(k2), tree(compiler), prof(compress)))
	}
	bad := frameOf(t, prof(compress), tree(compiler), envelope{ex: hugeNumProcs}, prof(k2))

	dir := t.TempDir()
	w := New(Config{Shards: 2})
	l, _, err := w.OpenStore(dir, replayOptions)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var id uint64
	ingest := func(f []byte) {
		id++
		if _, err := l.Ingest(ctx, id, f, func(p []byte) error {
			_, _, err := w.IngestFrame(p)
			return err
		}); err != nil && !bytes.Equal(f, bad) {
			t.Fatal(err)
		}
	}
	for _, f := range frames[:4] {
		ingest(f)
	}
	snap := snapshotBytes(t, w) // what SnapshotNow logs
	if err := l.SnapshotNow(); err != nil {
		t.Fatal(err)
	}
	post := append([][]byte(nil), frames[4:9]...)
	post = append(post, bad)
	post = append(post, frames[9:]...)
	for _, f := range post {
		ingest(f)
	}
	// Push ID 2 is in the snapshot's manifest, push ID 6 (frames[5]) is
	// logged above.
	for _, dup := range []struct {
		id    uint64
		frame []byte
	}{{2, frames[1]}, {6, frames[5]}} {
		if err := l.Append(ctx, dup.id, dup.frame); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	ref := New(Config{Shards: 1})
	if _, _, err := ref.IngestFrame(snap); err != nil {
		t.Fatal(err)
	}
	applyErrors, bytesFolded := 0, 0
	for _, f := range post {
		if _, _, err := ref.IngestFrame(f); err != nil {
			applyErrors++
		}
		bytesFolded += len(f)
	}
	if applyErrors != 1 {
		t.Fatalf("serial fold rejected %d frames, want only the bad one", applyErrors)
	}
	want, wantM := snapshotBytes(t, ref), ref.Metrics()
	for _, shards := range []int{1, 3, 4} {
		c, rec := reopenCopy(t, dir, shards)
		checkHomes(t, c)
		if rec.Segments < 2 || rec.SnapshotBytes != int64(len(snap)) || rec.Records != len(post) ||
			rec.Bytes != int64(bytesFolded) || rec.Duplicates != 2 || rec.ApplyErrors != applyErrors {
			t.Errorf("%d shards: recovery %+v, want >= 2 segments, a %d-byte snapshot, %d records of %d bytes, 2 duplicates, %d apply errors",
				shards, rec, len(snap), len(post), bytesFolded, applyErrors)
		}
		if got := snapshotBytes(t, c); !bytes.Equal(got, want) {
			t.Errorf("%d shards: replayed aggregates differ from the serial fold", shards)
		}
		if m := c.Metrics(); m.IngestedFrames != wantM.IngestedFrames ||
			m.IngestedProfiles != wantM.IngestedProfiles || m.IngestedCCTs != wantM.IngestedCCTs {
			t.Errorf("%d shards: ingested %d frames, %d profiles, %d CCTs; serial fold %d, %d, %d", shards,
				m.IngestedFrames, m.IngestedProfiles, m.IngestedCCTs,
				wantM.IngestedFrames, wantM.IngestedProfiles, wantM.IngestedCCTs)
		}
	}
}

// TestReplayDeterministic: on a log whose pushes conflict (HTTP 409 at
// ingest), the order in which a program's items fold decides which are
// refused. Replay folds every program's items in log order in its home
// shard, so reopens at 1, 3 and 4 shards, under GOMAXPROCS 1 and 4,
// refuse exactly the records a live one-shard IngestFrame of the same
// frames refuses, and build its aggregates byte for byte.
func TestReplayDeterministic(t *testing.T) {
	inputs := mergeInputs(t)
	compiler, compress := inputs[0], inputs[1]
	misshapen := compress.tree.Export(compress.name)
	misshapen.NumProcs++
	envs := []envelope{
		{p: compiler.prof},
		{ex: compress.tree.Export(compress.name)},
		{ex: misshapen},
	}
	rng := rand.New(rand.NewSource(2))
	dir := t.TempDir()
	l, _, err := store.Open(dir, replayOptions)
	if err != nil {
		t.Fatal(err)
	}
	live := New(Config{Shards: 1})
	wantErrors := 0
	for i := 0; i < 24; i++ {
		var frame []envelope
		for n := 1 + rng.Intn(3); n > 0; n-- {
			frame = append(frame, envs[rng.Intn(len(envs))])
		}
		data := frameOf(t, frame...)
		if err := l.Append(context.Background(), uint64(i+1), data); err != nil {
			t.Fatal(err)
		}
		if _, _, err := live.IngestFrame(data); err != nil {
			wantErrors++
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if wantErrors == 0 {
		t.Fatal("no record conflicted")
	}
	want := snapshotBytes(t, live)

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for _, shards := range []int{1, 3, 4} {
			for i := 0; i < 3; i++ {
				c, rec := reopenCopy(t, dir, shards)
				checkHomes(t, c)
				if got := snapshotBytes(t, c); rec.ApplyErrors != wantErrors || !bytes.Equal(got, want) {
					t.Fatalf("GOMAXPROCS %d, %d shards, reopen %d: %d apply errors (live fold %d), aggregates equal: %v",
						procs, shards, i, rec.ApplyErrors, wantErrors, bytes.Equal(got, want))
				}
			}
		}
	}
}
