package wire_test

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"pathprof/internal/cct"
	"pathprof/internal/experiments"
	"pathprof/internal/flat"
	"pathprof/internal/hpm"
	"pathprof/internal/instrument"
	"pathprof/internal/profile"
	"pathprof/internal/wire"
	"pathprof/internal/workload"
)

// testWorkloads keeps the round-trip tests fast: two programs with very
// different shapes (deep call tree vs. path-rich search).
var testWorkloads = []string{"objdb", "compress"}

func newSession(t *testing.T) *experiments.Session {
	t.Helper()
	s := experiments.NewSession(workload.Test)
	var ws []workload.Workload
	for _, name := range testWorkloads {
		w, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("unknown workload %q", name)
		}
		ws = append(ws, w)
	}
	s.Workloads = ws
	return s
}

func realProfile(t *testing.T, s *experiments.Session, name string) *profile.Profile {
	t.Helper()
	w, _ := workload.ByName(name)
	cell, err := s.RunSet(w, instrument.ModePathHW, hpm.NewMetricSet(experiments.StandardEvents[:]...))
	if err != nil {
		t.Fatal(err)
	}
	return cell.Profile
}

func realTree(t *testing.T, s *experiments.Session, name string) *cct.Tree {
	t.Helper()
	w, _ := workload.ByName(name)
	cell, err := s.RunSet(w, instrument.ModeContextFlow, hpm.NewMetricSet(experiments.StandardEvents[:]...))
	if err != nil {
		t.Fatal(err)
	}
	return cell.Tree
}

// frameOf encodes each of vs, a *profile.Profile or a *cct.Export, as
// one item of a single frame.
func frameOf(t testing.TB, vs ...any) []byte {
	t.Helper()
	w := wire.NewBatchWriter()
	for _, v := range vs {
		var err error
		switch v := v.(type) {
		case *profile.Profile:
			err = w.AddProfile(v)
		case *cct.Export:
			err = w.AddExport(v)
		default:
			t.Fatalf("cannot encode %T", v)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return w.Frame()
}

func parseFrame(t *testing.T, data []byte) *wire.Frame {
	t.Helper()
	f, err := wire.ParseFrame(data)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestProfileRoundTrip: a one-item frame preserves a real flow+HW
// profile byte-identically under the text encoder, and the frame is
// smaller than the text.
func TestProfileRoundTrip(t *testing.T) {
	s := newSession(t)
	for _, name := range testWorkloads {
		p := realProfile(t, s, name)
		bin := frameOf(t, p)
		got, err := parseFrame(t, bin).ProfileAt(0)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		text := profileText(t, p)
		if profileText(t, got) != text {
			t.Fatalf("%s: profile text differs after wire round trip", name)
		}
		if len(bin) >= len(text) {
			t.Errorf("%s: wire form %d bytes, text form %d — wire should be compact",
				name, len(bin), len(text))
		}
	}
}

// TestExportRoundTrip: a one-item frame preserves a real CCT export both
// byte-identically under the text encoder and exactly under Stats().
func TestExportRoundTrip(t *testing.T) {
	s := newSession(t)
	for _, name := range testWorkloads {
		tr := realTree(t, s, name)
		ex := tr.Export(name)
		if !ex.HasStructure {
			t.Fatalf("%s: Tree.Export did not mark structure", name)
		}
		bin := frameOf(t, ex)
		got, err := parseFrame(t, bin).ExportAt(0)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		text := exportText(t, ex)
		if exportText(t, got) != text {
			t.Fatalf("%s: cct text differs after wire round trip", name)
		}
		if want, gotStats := tr.ComputeStats(), got.Stats(); gotStats != want {
			t.Fatalf("%s: stats after round trip\n got %+v\nwant %+v", name, gotStats, want)
		}
		if len(bin) >= len(text) {
			t.Errorf("%s: wire form %d bytes, text form %d — wire should be compact",
				name, len(bin), len(text))
		}
	}
}

// TestKindMismatch: decoding an item as the other kind fails with a
// *wire.KindError naming both kinds.
func TestKindMismatch(t *testing.T) {
	s := newSession(t)
	f := parseFrame(t, frameOf(t, realProfile(t, s, testWorkloads[0])))
	var bc wire.BatchCCT
	err := f.DecodeCCT(0, &bc)
	var ke *wire.KindError
	if !errors.As(err, &ke) || ke.Want != wire.KindCCT || ke.Got != wire.KindProfile {
		t.Fatalf("DecodeCCT of a profile item: err = %v, want a *wire.KindError", err)
	}
	if !strings.Contains(err.Error(), "profile") {
		t.Fatalf("unhelpful kind error: %v", err)
	}
}

// sweepFrame is a real three-item frame: the first suite program's
// flow+hw profile, its ctx+flow CCT export and its k=2 profile.
func sweepFrame(t *testing.T) []byte {
	t.Helper()
	w := wire.NewBatchWriter()
	for _, e := range suiteEnvelopes(t)[:3] {
		if err := e.add(w); err != nil {
			t.Fatal(err)
		}
	}
	data := w.Frame()
	parseFrame(t, data)
	return data
}

// TestDecodeTruncated: every proper prefix of a valid frame fails
// ParseFrame with a positioned error and never panics.
func TestDecodeTruncated(t *testing.T) {
	data := sweepFrame(t)
	for n := 0; n < len(data); n++ {
		_, err := wire.ParseFrame(data[:n])
		if err == nil {
			t.Fatalf("accepted %d-byte prefix of a %d-byte frame", n, len(data))
		}
		if !strings.HasPrefix(err.Error(), "wire: frame offset ") {
			t.Fatalf("%d-byte prefix: unpositioned error %q", n, err)
		}
	}
}

// TestDecodeCorrupt: flipping a bit in any single byte is caught, by the
// header checks or by the CRC-32C trailer, with a positioned error.
func TestDecodeCorrupt(t *testing.T) {
	data := sweepFrame(t)
	for i := range data {
		mut := bytes.Clone(data)
		mut[i] ^= 0x40
		_, err := wire.ParseFrame(mut)
		if err == nil {
			t.Fatalf("accepted frame with byte %d corrupted", i)
		}
		if !strings.HasPrefix(err.Error(), "wire: frame offset ") {
			t.Fatalf("byte %d: unpositioned error %q", i, err)
		}
	}
}

// goldenProfile and goldenExport are the values testdata/v3_golden.bin
// holds, as its two items. They are the values the retired version-1
// fixtures (testdata/v1_*.bin) decoded to.
func goldenProfile() *profile.Profile {
	return &profile.Profile{
		Program: "golden", Mode: "flow+hw", Events: []string{"dcache-miss", "insts"},
		Procs: []*profile.ProcPaths{
			{ProcID: 0, Name: "main", NumPaths: 4, Entries: []profile.PathEntry{
				profile.NewEntry(0, 3, 17, 420),
				profile.NewEntry(2, 1, 0, 99),
			}},
			{ProcID: 1, Name: "leaf", NumPaths: 1, Entries: []profile.PathEntry{
				profile.NewEntry(0, 7, 5, 70),
			}},
		},
	}
}

func goldenExport() *cct.Export {
	root := &cct.ExportedNode{ID: 0, Proc: -1, PathCounts: flat.New(0)}
	n := &cct.ExportedNode{ID: 1, Proc: 1, Metrics: []int64{1, 11, 22}, PathCounts: flat.New(0),
		Size: 48, Slots: []cct.SlotStat{{}}}
	root.Children = []*cct.ExportedNode{n}
	return &cct.Export{NumProcs: 2, DistinguishSites: true, NumMetrics: 3, Program: "golden",
		HasStructure: true, SizeBytes: 80, Root: root, Nodes: map[int]*cct.ExportedNode{0: root, 1: n}}
}

// goldenItems decodes the two items of testdata/v3_golden.bin, a
// profile and a CCT export.
func goldenItems(t *testing.T, data []byte) (*profile.Profile, *cct.Export) {
	t.Helper()
	f := parseFrame(t, data)
	if f.Items() != 2 || f.Kind(0) != wire.KindProfile || f.Kind(1) != wire.KindCCT {
		t.Fatalf("golden frame holds %d items", f.Items())
	}
	p, err := f.ProfileAt(0)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := f.ExportAt(1)
	if err != nil {
		t.Fatal(err)
	}
	return p, ex
}

// wantRetired checks that a committed envelope of an older version is
// refused at its version byte with a positioned error.
func wantRetired(t *testing.T, file, version string) {
	t.Helper()
	data := readFixture(t, file)
	want := "wire: frame offset 4: unsupported frame version " + version + " (want 3)"
	if wire.IsFrame(data) {
		t.Errorf("IsFrame accepted %s", file)
	}
	if _, err := wire.ParseFrame(data); err == nil || err.Error() != want {
		t.Errorf("ParseFrame(%s): err = %v, want %q", file, err, want)
	}
}

// TestDecodeV1GoldenProfile: the committed version-1 profile envelope is
// refused at its version byte, and the profile it held decodes from the
// golden frame's first item with exactly its values.
func TestDecodeV1GoldenProfile(t *testing.T) {
	wantRetired(t, "v1_profile.bin", "1")
	p, _ := goldenItems(t, readFixture(t, "v3_golden.bin"))
	const wantProfile = "profile golden flow+hw dcache-miss insts\n" +
		"proc 0 main 4\npath 0 3 17 420\npath 2 1 0 99\n" +
		"proc 1 leaf 1\npath 0 7 5 70\n"
	if got := profileText(t, p); got != wantProfile || p.K != 0 {
		t.Fatalf("golden profile (K=%d):\n%s", p.K, got)
	}
}

// TestDecodeV1GoldenCCT: the committed version-1 CCT envelope is refused
// at its version byte, and the export it held decodes from the golden
// frame's second item with exactly its values and structure fields.
func TestDecodeV1GoldenCCT(t *testing.T) {
	wantRetired(t, "v1_cct.bin", "1")
	_, ex := goldenItems(t, readFixture(t, "v3_golden.bin"))
	if got := exportText(t, ex); got != "cct 2 true 3\nnode 1 0 1 1 11 22\n" {
		t.Fatalf("golden export:\n%s", got)
	}
	n := ex.Nodes[1]
	if !ex.HasStructure || ex.SizeBytes != 80 || ex.ListElems != 0 || n.Size != 48 ||
		len(n.Slots) != 1 || n.Slots[0] != (cct.SlotStat{}) || n.PathCounts.Len() != 0 {
		t.Fatalf("golden export structure: %+v, node 1 %+v", ex, n)
	}
}

// TestV3Golden pins the frame encoder: encoding the golden values, and
// re-encoding what the committed frame decodes to, both reproduce
// testdata/v3_golden.bin byte for byte. TestDecodeV1GoldenProfile and
// TestDecodeV1GoldenCCT check the decode direction.
func TestV3Golden(t *testing.T) {
	data := readFixture(t, "v3_golden.bin")
	if !bytes.Equal(frameOf(t, goldenProfile(), goldenExport()), data) {
		t.Fatal("encoding the golden values does not reproduce testdata/v3_golden.bin")
	}
	p, ex := goldenItems(t, data)
	if !bytes.Equal(frameOf(t, p, ex), data) {
		t.Fatal("re-encoding the decoded golden frame changed its bytes")
	}
}

// TestBadHeader: input without a version-3 frame header is refused at
// the header with a positioned error, the committed version-2 envelope
// included.
func TestBadHeader(t *testing.T) {
	pad := "\x00\x00\x00\x00\x00"
	cases := []struct {
		data []byte
		want string
	}{
		{nil, "wire: frame offset 0: truncated frame (0 bytes)"},
		{[]byte("PPW"), "wire: frame offset 0: truncated frame (3 bytes)"},
		{[]byte("XXXX\x03\x03" + pad), `wire: frame offset 0: bad magic "XXXX"`},
		{[]byte("PPW1\x07\x03" + pad), "wire: frame offset 4: unsupported frame version 7 (want 3)"},
		{[]byte("PPW1\x03\x09" + pad), "wire: frame offset 5: frame kind 9 is not a batch"},
	}
	wantRetired(t, "v2_profile.bin", "2")
	for _, c := range cases {
		if wire.IsFrame(c.data) {
			t.Errorf("IsFrame accepted %q", c.data)
		}
		if _, err := wire.ParseFrame(c.data); err == nil || err.Error() != c.want {
			t.Errorf("ParseFrame(%q): err = %v, want %q", c.data, err, c.want)
		}
	}
}
