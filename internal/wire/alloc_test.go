package wire_test

import (
	"runtime"
	"testing"

	"pathprof/internal/experiments"
	"pathprof/internal/hpm"
	"pathprof/internal/instrument"
	"pathprof/internal/profile"
	"pathprof/internal/wire"
	"pathprof/internal/workload"
)

// TestAddExportAllocs: once a writer has encoded an export, encoding it
// again into the reset writer allocates nothing — the preorder-id map,
// the backedge list, the sort scratch and the item buffers are all
// reused.
func TestAddExportAllocs(t *testing.T) {
	for _, e := range suiteEnvelopes(t) {
		if e.ex == nil {
			continue
		}
		w := wire.NewBatchWriter()
		for i := 0; i < 2; i++ {
			w.Reset()
			if err := w.AddExport(e.ex); err != nil {
				t.Fatal(err)
			}
		}
		avg := testing.AllocsPerRun(20, func() {
			w.Reset()
			if err := w.AddExport(e.ex); err != nil {
				t.Fatal(err)
			}
		})
		if avg != 0 {
			t.Errorf("%s: AddExport allocates %.1f objects per call after warm-up, want 0", e.name, avg)
		}
	}
}

// TestProfileAtAllocs: Frame.ProfileAt sizes its metric storage from the
// item. Every entry's metrics are a full-capacity window, and one
// materialization of the root BenchmarkWireDecodeProfile frame (compiler's
// ctx+flow profile) allocates well under one 8 KiB per-procedure arena
// chunk.
func TestProfileAtAllocs(t *testing.T) {
	w, _ := workload.ByName("compiler")
	cell, err := experiments.NewSession(workload.Test).RunSet(w, instrument.ModeContextFlow, hpm.NewMetricSet(experiments.StandardEvents[:]...))
	if err != nil {
		t.Fatal(err)
	}
	profs := []*profile.Profile{cell.Profile}
	for _, e := range suiteEnvelopes(t) {
		if e.prof != nil {
			profs = append(profs, e.prof)
		}
	}
	for _, p := range profs {
		got, err := parseFrame(t, frameOf(t, p)).ProfileAt(0)
		if err != nil {
			t.Fatal(err)
		}
		for _, pp := range got.Procs {
			for _, e := range pp.Entries {
				if len(e.Metrics) != len(got.Events) || cap(e.Metrics) != len(got.Events) {
					t.Fatalf("%s %s: entry metrics len %d cap %d, want both %d",
						p.Program, p.Mode, len(e.Metrics), cap(e.Metrics), len(got.Events))
				}
			}
		}
	}

	f := parseFrame(t, frameOf(t, cell.Profile))
	const runs = 50
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for range runs {
		if _, err := f.ProfileAt(0); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&m1)
	if per := (m1.TotalAlloc - m0.TotalAlloc) / runs; per >= 8<<10 {
		t.Errorf("one ProfileAt allocates %d bytes, want under 8 KiB", per)
	}
}

// decodeFrame resets f to data and decodes every item into bp or bc.
func decodeFrame(tb testing.TB, f *wire.Frame, data []byte, bp *wire.BatchProfile, bc *wire.BatchCCT) {
	if err := f.Reset(data); err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < f.Items(); i++ {
		var err error
		if f.Kind(i) == wire.KindProfile {
			err = f.DecodeProfile(i, bp)
		} else {
			err = f.DecodeCCT(i, bc)
		}
		if err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkWireFrameDecode measures the v3 item decoders on their own:
// parsing one 64-item frame of real flow+hw, ctx+flow and k=2 envelopes
// (Frame.Reset, the reusable form of ParseFrame) and decoding every item
// into reused scratch. ci.sh gates it at 0 allocs/op.
func BenchmarkWireFrameDecode(b *testing.B) {
	const items = 64
	envs := suiteEnvelopes(b)
	w := wire.NewBatchWriter()
	for i := 0; i < items; i++ {
		if err := envs[i%len(envs)].add(w); err != nil {
			b.Fatal(err)
		}
	}
	frame := w.Frame()
	var f wire.Frame
	var bp wire.BatchProfile
	var bc wire.BatchCCT
	decodeFrame(b, &f, frame, &bp, &bc) // size the scratch
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		decodeFrame(b, &f, frame, &bp, &bc)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*items), "ns/envelope")
}
