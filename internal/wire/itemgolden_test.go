package wire_test

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"strings"
	"sync"
	"testing"

	"pathprof/internal/cct"
	"pathprof/internal/experiments"
	"pathprof/internal/hpm"
	"pathprof/internal/instrument"
	"pathprof/internal/profile"
	"pathprof/internal/wire"
	"pathprof/internal/workload"
)

// itemGoldenPath pins the item decoders' verdict on every damaged variant
// of real one-item frames: each line is the error string, or a digest of
// the decoded item when it decodes. The file is gzipped text (about 12k
// lines); read it with zcat. To regenerate it after a deliberate change to
// the decoders, delete the file and run TestItemDecodeGolden: the test
// writes the current verdicts and fails, and the changed lines go up for
// review.
const itemGoldenPath = "testdata/item_decode_golden.txt.gz"

// suiteEnvelope is one real envelope: a profile or a CCT export.
type suiteEnvelope struct {
	name string // "<program> <kind>"
	prof *profile.Profile
	ex   *cct.Export
}

// add appends the envelope to w as one item.
func (e suiteEnvelope) add(w *wire.BatchWriter) error {
	if e.ex != nil {
		return w.AddExport(e.ex)
	}
	return w.AddProfile(e.prof)
}

var (
	suiteOnce sync.Once
	suiteEnvs []suiteEnvelope
	suiteErr  error
)

// suiteEnvelopes returns, for every suite program at test scale, its
// flow+hw profile, its ctx+flow CCT export and its k=2 flow+hw profile,
// in a fixed order.
func suiteEnvelopes(t testing.TB) []suiteEnvelope {
	t.Helper()
	suiteOnce.Do(func() {
		s1 := experiments.NewSession(workload.Test)
		s2 := experiments.NewSession(workload.Test)
		s2.K = 2
		set := hpm.NewMetricSet(experiments.StandardEvents[:]...)
		for _, w := range workload.Suite() {
			for _, kind := range []string{"flowhw", "ctxflow", "flowhw_k2"} {
				s, mode := s1, instrument.ModePathHW
				switch kind {
				case "ctxflow":
					mode = instrument.ModeContextFlow
				case "flowhw_k2":
					s = s2
				}
				cell, err := s.RunFreshSet(context.Background(), w, mode, set)
				if err != nil {
					suiteErr = fmt.Errorf("%s %s: %w", w.Name, kind, err)
					return
				}
				e := suiteEnvelope{name: w.Name + " " + kind, prof: cell.Profile}
				if kind == "ctxflow" {
					e = suiteEnvelope{name: e.name, ex: cell.Tree.Export(w.Name)}
				}
				suiteEnvs = append(suiteEnvs, e)
			}
		}
	})
	if suiteErr != nil {
		t.Fatal(suiteErr)
	}
	return suiteEnvs
}

// splitOneItem cuts a one-item frame into the bytes before the item
// section (header and string table), the item's section id and its
// payload.
func splitOneItem(t testing.TB, frame []byte) (head []byte, id byte, item []byte) {
	t.Helper()
	pos := 6 + 1 // header, string-table section id
	n, sz := binary.Uvarint(frame[pos:])
	pos += sz + int(n)
	head, id = frame[:pos], frame[pos]
	n, sz = binary.Uvarint(frame[pos+1:])
	start := pos + 1 + sz
	item = frame[start : start+int(n)]
	if start+int(n)+1+4 != len(frame) {
		t.Fatalf("frame is not one item: %d bytes after the item", len(frame)-start-int(n))
	}
	return head, id, item
}

// withItem rebuilds a one-item frame around payload, re-fixing the
// section length and the CRC so the frame parses and the item decoders
// run on payload.
func withItem(head []byte, id byte, payload []byte) []byte {
	b := append([]byte(nil), head...)
	b = append(b, id)
	b = binary.AppendUvarint(b, uint64(len(payload)))
	b = append(b, payload...)
	b = append(b, 0)
	return reframe(append(b, 0, 0, 0, 0))
}

// itemVerdict decodes item 0 of data and returns the error string, or
// "ok" and a digest of every field the decoder filled.
func itemVerdict(data []byte, bp *wire.BatchProfile, bc *wire.BatchCCT) string {
	f, err := wire.ParseFrame(data)
	if err != nil {
		return "frame: " + err.Error()
	}
	h := sha256.New()
	switch f.Kind(0) {
	case wire.KindProfile:
		if err := f.DecodeProfile(0, bp); err != nil {
			return err.Error()
		}
		fmt.Fprintf(h, "%q %q %q %d %v\n", bp.Program, bp.Mode, bp.Events, bp.K, bp.Procs)
		fmt.Fprintf(h, "%v\n%v\n%v\n", bp.Sums, bp.Freqs, bp.Metrics)
	case wire.KindCCT:
		if err := f.DecodeCCT(0, bc); err != nil {
			return err.Error()
		}
		fmt.Fprintf(h, "%q %d %v %d %v %d %d\n", bc.Program, bc.NumProcs, bc.DistinguishSites,
			bc.NumMetrics, bc.HasStructure, bc.SizeBytes, bc.ListElems)
		fmt.Fprintf(h, "%v\n%v\n%v\n%v\n%v\n%v\n", bc.Nodes, bc.Metrics, bc.PCSums, bc.PCCounts, bc.Slots, bc.Backedges)
		fmt.Fprintf(h, "%v\n%v\n", bc.ChildOff, bc.ChildIDs)
	}
	return fmt.Sprintf("ok %x", h.Sum(nil)[:8])
}

// TestItemDecodeGolden: for every suite program's flow+hw profile, ctx+flow
// CCT and k=2 profile, the item decoders give the pinned verdict on the
// intact item, on the item truncated at every byte, and on the item with
// each byte flipped.
func TestItemDecodeGolden(t *testing.T) {
	var buf bytes.Buffer
	var bp wire.BatchProfile
	var bc wire.BatchCCT
	for _, e := range suiteEnvelopes(t) {
		w := wire.NewBatchWriter()
		if err := e.add(w); err != nil {
			t.Fatal(err)
		}
		frame := w.Frame()
		head, id, item := splitOneItem(t, frame)
		if v := itemVerdict(frame, &bp, &bc); !strings.HasPrefix(v, "ok ") {
			t.Fatalf("%s: intact item rejected: %s", e.name, v)
		}
		for n := 0; n <= len(item); n++ {
			fmt.Fprintf(&buf, "%s trunc %d: %s\n", e.name, n, itemVerdict(withItem(head, id, item[:n]), &bp, &bc))
		}
		flipped := make([]byte, len(item))
		for i := range item {
			copy(flipped, item)
			flipped[i] ^= 0xff
			fmt.Fprintf(&buf, "%s flip %d: %s\n", e.name, i, itemVerdict(withItem(head, id, flipped), &bp, &bc))
		}
	}
	got := buf.Bytes()

	want, err := readGzip(itemGoldenPath)
	if errors.Is(err, fs.ErrNotExist) {
		var z bytes.Buffer
		zw, _ := gzip.NewWriterLevel(&z, gzip.BestCompression)
		zw.Write(got)
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(itemGoldenPath, z.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("wrote %s; review it and re-run", itemGoldenPath)
	}
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := lines(got), lines(want)
	if len(gl) != len(wl) {
		t.Errorf("%d verdicts, golden has %d", len(gl), len(wl))
	}
	shown := 0
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			if shown++; shown <= 20 {
				t.Errorf("verdict changed:\n golden: %s\n    got: %s", wl[i], gl[i])
			}
		}
	}
	t.Fatalf("%d verdicts differ from %s", shown, itemGoldenPath)
}

func readGzip(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		return nil, err
	}
	return io.ReadAll(zr)
}

func lines(b []byte) []string {
	var out []string
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		out = append(out, sc.Text())
	}
	return out
}
