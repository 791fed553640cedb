package pathprof

// Storage-tier benchmarks (BENCH_store.json): the group-commit claim is
// that many concurrent durable appends coalesce into one fsync, so
// throughput scales with the batch size rather than the device's fsync
// rate. Both sub-benchmarks run the same concurrent append load against
// the same store with the same modeled fsync latency (Options.SyncDelay
// stands in for a real device — on this CI filesystem a raw fsync is
// nearly free, which would let a no-op measure pass); the only variable
// is MaxBatch. scripts/ci.sh gates groupCommit at >= 10x the
// per-record-fsync envelope rate.

import (
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"pathprof/internal/collector"
	"pathprof/internal/experiments"
	"pathprof/internal/hpm"
	"pathprof/internal/instrument"
	"pathprof/internal/store"
	"pathprof/internal/wire"
	"pathprof/internal/workload"
)

// storeBenchAppend measures concurrent durable appends with the given
// batching limit and a 1ms modeled fsync (a disk-backed flush; large
// enough that scheduler overhead on a small CI box does not drown the
// device term either mode is paying).
func storeBenchAppend(b *testing.B, maxBatch int) {
	l, _, err := store.Open(b.TempDir(), store.Options{
		MaxBatch:     maxBatch,
		MaxWait:      2 * time.Millisecond,
		CompactAfter: -1,
		SyncDelay:    time.Millisecond,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	payload := make([]byte, 256)
	rand.New(rand.NewSource(1)).Read(payload)
	ctx := context.Background()
	b.SetParallelism(32) // 32*GOMAXPROCS concurrent producers
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if err := l.Append(ctx, 0, payload); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	m := l.Metrics()
	perFsync := float64(m.Appends)
	if m.Fsyncs > 0 {
		perFsync = float64(m.Appends) / float64(m.Fsyncs)
	}
	recordBench(b, map[string]float64{
		"envelopes-per-sec": float64(b.N) / b.Elapsed().Seconds(),
		"appends-per-fsync": perFsync,
		"batch-max":         float64(m.BatchMax),
	})
}

func BenchmarkStoreAppendFsync(b *testing.B) {
	b.Run("groupCommit", func(b *testing.B) { storeBenchAppend(b, 256) })
	b.Run("perRecordFsync", func(b *testing.B) { storeBenchAppend(b, 1) })
}

// replayBenchFrames builds n 64-envelope frames from real test-scale
// envelopes: every suite program's flow+hw profile, context+flow CCT and
// k=2 flow+hw profile (as <program>.k2, another aggregate), each
// collected by Session.RunFreshSet, taken round-robin.
func replayBenchFrames(b *testing.B, n int) [][]byte {
	set := hpm.NewMetricSet(experiments.StandardEvents[:]...)
	classic, k2 := experiments.NewSession(workload.Test), experiments.NewSession(workload.Test)
	k2.K = 2
	ctx := context.Background()
	var adds []func(*wire.BatchWriter) error
	for _, w := range workload.Suite() {
		flow, err := classic.RunFreshSet(ctx, w, instrument.ModePathHW, set)
		if err != nil {
			b.Fatal(err)
		}
		tree, err := classic.RunFreshSet(ctx, w, instrument.ModeContextFlow, set)
		if err != nil {
			b.Fatal(err)
		}
		kflow, err := k2.RunFreshSet(ctx, w, instrument.ModePathHW, set)
		if err != nil {
			b.Fatal(err)
		}
		kflow.Profile.Program = w.Name + ".k2"
		ex := tree.Tree.Export(w.Name)
		adds = append(adds,
			func(bw *wire.BatchWriter) error { return bw.AddProfile(flow.Profile) },
			func(bw *wire.BatchWriter) error { return bw.AddExport(ex) },
			func(bw *wire.BatchWriter) error { return bw.AddProfile(kflow.Profile) })
	}
	frames := make([][]byte, n)
	bw := wire.NewBatchWriter()
	for i := range frames {
		bw.Reset()
		for j := 0; j < 64; j++ {
			if err := adds[(i*64+j)%len(adds)](bw); err != nil {
				b.Fatal(err)
			}
		}
		frames[i] = append([]byte(nil), bw.Frame()...)
	}
	return frames
}

// BenchmarkStoreReplay times one restart of a durable collector: OpenStore
// of a default (4-shard) collector on a log of 800 64-envelope frames
// (about 6 MB, one segment at the default segment size), which replays
// every record. Each iteration reopens the same files: opening adds an
// empty active segment, so the log is rewritten, untimed, before each.
func BenchmarkStoreReplay(b *testing.B) {
	const frames = 800
	dir := filepath.Join(b.TempDir(), "log")
	l, _, err := store.Open(dir, store.Options{CompactAfter: -1})
	if err != nil {
		b.Fatal(err)
	}
	for i, f := range replayBenchFrames(b, frames) {
		if err := l.Append(context.Background(), uint64(i+1), f); err != nil {
			b.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		b.Fatal(err)
	}
	files := map[string][]byte{}
	ents, err := os.ReadDir(dir)
	if err != nil {
		b.Fatal(err)
	}
	for _, e := range ents {
		if files[e.Name()], err = os.ReadFile(filepath.Join(dir, e.Name())); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if err := os.RemoveAll(dir); err != nil {
			b.Fatal(err)
		}
		if err := os.Mkdir(dir, 0o755); err != nil {
			b.Fatal(err)
		}
		for name, data := range files {
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				b.Fatal(err)
			}
		}
		c := collector.New(collector.Config{})
		b.StartTimer()
		l, rec, err := c.OpenStore(dir, store.Options{CompactAfter: -1})
		b.StopTimer()
		if err != nil {
			b.Fatal(err)
		}
		if rec.Records != frames || rec.ApplyErrors != 0 {
			b.Fatalf("replayed %d records with %d apply errors, want %d and 0", rec.Records, rec.ApplyErrors, frames)
		}
		if err := l.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Microseconds())/1e3/float64(b.N), "ms/op")
}
