package wire_test

import (
	"testing"

	"pathprof/internal/wire"
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
