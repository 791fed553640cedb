package wire_test

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"strings"
	"testing"

	"pathprof/internal/cct"
	"pathprof/internal/profile"
	"pathprof/internal/wire"
)

// profileText renders p with the text encoder (the byte-identity oracle).
func profileText(t *testing.T, p *profile.Profile) string {
	t.Helper()
	var buf bytes.Buffer
	if err := p.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func exportText(t *testing.T, ex *cct.Export) string {
	t.Helper()
	var buf bytes.Buffer
	if err := ex.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestBatchRoundTrip: a frame of mixed profile and CCT items decodes to
// payloads byte-identical under the text encoders, with Stats preserved
// exactly (including the structural extras the text codec drops).
func TestBatchRoundTrip(t *testing.T) {
	s := newSession(t)
	var profiles []*profile.Profile
	var exports []*cct.Export
	var trees []*cct.Tree
	for _, name := range testWorkloads {
		profiles = append(profiles, realProfile(t, s, name))
		tr := realTree(t, s, name)
		trees = append(trees, tr)
		exports = append(exports, tr.Export(name))
	}

	w := wire.NewBatchWriter()
	// Interleave and repeat so the string table is shared across items.
	for rep := 0; rep < 2; rep++ {
		for i := range profiles {
			if err := w.AddProfile(profiles[i]); err != nil {
				t.Fatal(err)
			}
			if err := w.AddExport(exports[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	wantItems := 2 * 2 * len(profiles)
	if w.Items() != wantItems {
		t.Fatalf("Items() = %d, want %d", w.Items(), wantItems)
	}
	data := w.Frame()
	if !wire.IsFrame(data) {
		t.Fatal("IsFrame rejected an encoded frame")
	}

	f, err := wire.ParseFrame(data)
	if err != nil {
		t.Fatal(err)
	}
	if f.Items() != wantItems {
		t.Fatalf("frame has %d items, want %d", f.Items(), wantItems)
	}
	for it := 0; it < f.Items(); it++ {
		i := (it / 2) % len(profiles)
		if it%2 == 0 {
			if f.Kind(it) != wire.KindProfile {
				t.Fatalf("item %d kind = %v, want profile", it, f.Kind(it))
			}
			got, err := f.ProfileAt(it)
			if err != nil {
				t.Fatalf("item %d: %v", it, err)
			}
			if gotText, wantText := profileText(t, got), profileText(t, profiles[i]); gotText != wantText {
				t.Fatalf("item %d: profile text differs after batch round trip", it)
			}
		} else {
			if f.Kind(it) != wire.KindCCT {
				t.Fatalf("item %d kind = %v, want cct", it, f.Kind(it))
			}
			got, err := f.ExportAt(it)
			if err != nil {
				t.Fatalf("item %d: %v", it, err)
			}
			if gotText, wantText := exportText(t, got), exportText(t, exports[i]); gotText != wantText {
				t.Fatalf("item %d: cct text differs after batch round trip", it)
			}
			if want, gotStats := trees[i].ComputeStats(), got.Stats(); gotStats != want {
				t.Fatalf("item %d: stats after batch round trip\n got %+v\nwant %+v", it, gotStats, want)
			}
		}
	}
}

// TestBatchCompact: string sharing and delta coding make a frame of N
// same-program envelopes materially smaller than N one-item frames.
func TestBatchCompact(t *testing.T) {
	s := newSession(t)
	p := realProfile(t, s, "compress")
	const n = 16
	singles := 0
	w := wire.NewBatchWriter()
	for i := 0; i < n; i++ {
		singles += len(frameOf(t, p))
		if err := w.AddProfile(p); err != nil {
			t.Fatal(err)
		}
	}
	frame := w.Frame()
	if len(frame) >= singles {
		t.Fatalf("frame of %d profiles is %d bytes, %d one-item frames total %d — batching should shrink",
			n, len(frame), n, singles)
	}
}

// TestBatchWriterReuse: Reset lets one writer (and one Frame) serve many
// batches; the second use must produce identical bytes.
func TestBatchWriterReuse(t *testing.T) {
	s := newSession(t)
	p := realProfile(t, s, "objdb")
	ex := realTree(t, s, "objdb").Export("objdb")

	w := wire.NewBatchWriter()
	build := func() []byte {
		w.Reset()
		if err := w.AddProfile(p); err != nil {
			t.Fatal(err)
		}
		if err := w.AddExport(ex); err != nil {
			t.Fatal(err)
		}
		return w.Frame()
	}
	first := build()
	second := build()
	if !bytes.Equal(first, second) {
		t.Fatal("frame bytes differ across writer reuse")
	}

	var f wire.Frame
	if err := f.Reset(first); err != nil {
		t.Fatal(err)
	}
	if err := f.Reset(second); err != nil {
		t.Fatalf("frame reuse: %v", err)
	}
	if f.Items() != 2 {
		t.Fatalf("reused frame has %d items, want 2", f.Items())
	}
}

// TestIsFrame: frames are frames; the retired version-1 and version-2
// envelopes are not.
func TestIsFrame(t *testing.T) {
	s := newSession(t)
	if !wire.IsFrame(frameOf(t, realProfile(t, s, "compress"))) {
		t.Fatal("IsFrame rejected a frame")
	}
	for _, name := range []string{"v1_profile.bin", "v1_cct.bin", "v2_profile.bin"} {
		if wire.IsFrame(readFixture(t, name)) {
			t.Fatalf("IsFrame accepted %s", name)
		}
	}
}

// reframe recomputes the CRC trailer after a mutation, so corruption
// tests exercise the structural validators rather than the checksum.
func reframe(data []byte) []byte {
	body := data[:len(data)-4]
	sum := crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli))
	out := append([]byte(nil), body...)
	return binary.LittleEndian.AppendUint32(out, sum)
}

// TestBatchCorruption: corrupt frames error descriptively, never panic,
// and the CRC catches plain bit flips.
func TestBatchCorruption(t *testing.T) {
	s := newSession(t)
	p := realProfile(t, s, "compress")
	ex := realTree(t, s, "compress").Export("compress")
	w := wire.NewBatchWriter()
	if err := w.AddProfile(p); err != nil {
		t.Fatal(err)
	}
	if err := w.AddExport(ex); err != nil {
		t.Fatal(err)
	}
	valid := w.Frame()
	if _, err := wire.ParseFrame(valid); err != nil {
		t.Fatalf("valid frame rejected: %v", err)
	}

	// Raw section IDs from the frame layout (see batch.go): 7 = string
	// table, 8 = profile item, 9 = cct item.
	const (
		secStrings = 7
		secProfile = 8
	)
	// buildFrame assembles header + sections + end + CRC by hand.
	buildFrame := func(sections ...[]byte) []byte {
		b := []byte{'P', 'P', 'W', '1', 3, 3}
		for _, s := range sections {
			b = append(b, s...)
		}
		b = append(b, 0)
		return reframe(append(b, 0, 0, 0, 0))
	}
	section := func(id byte, payload []byte) []byte {
		b := binary.AppendUvarint([]byte{id}, uint64(len(payload)))
		return append(b, payload...)
	}
	emptyStrings := section(secStrings, []byte{0})

	cases := []struct {
		name string
		data []byte
		want string // substring of the expected error; "" = any error
	}{
		{"empty", nil, "truncated"},
		{"truncated header", valid[:5], "truncated"},
		{"truncated mid-frame", reframe(valid[:len(valid)/2]), ""},
		{"crc flip", flipByte(valid, len(valid)/2), "checksum"},
		{"bad magic", flipByte(valid, 0), "magic"},
		{"wrong kind for parse", readFixture(t, "v2_profile.bin"), "version"},
		{
			"duplicate string table",
			buildFrame(emptyStrings, emptyStrings),
			"duplicate string table",
		},
		{
			"item before string table",
			buildFrame(section(secProfile, []byte{0})),
			"before string table",
		},
		{
			"no string table",
			buildFrame(),
			"no string table",
		},
		{
			// String table claims 100 entries in a 1-byte payload.
			"string table overcount",
			buildFrame(section(secStrings, []byte{100})),
			"count",
		},
		{
			"unknown section id",
			buildFrame(emptyStrings, section(42, []byte{0})),
			"unexpected section",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := wire.ParseFrame(tc.data)
			if err == nil {
				t.Fatal("corrupt frame accepted")
			}
			if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not contain %q", err, tc.want)
			}
		})
	}

	// Item-level corruption: these frames parse (valid structure and CRC)
	// but materializing the item must fail.
	itemCases := []struct {
		name string
		data []byte
		want string
	}{
		{
			// One-entry table, but the item references string index 5.
			"string index out of range",
			buildFrame(
				section(secStrings, append([]byte{1, 1}, 'x')),
				section(secProfile, []byte{5}),
			),
			"string index",
		},
		{
			// Item payload ends after the program index.
			"truncated profile item",
			buildFrame(
				section(secStrings, append([]byte{1, 1}, 'x')),
				section(secProfile, []byte{0}),
			),
			"truncated",
		},
	}
	for _, tc := range itemCases {
		t.Run(tc.name, func(t *testing.T) {
			f, err := wire.ParseFrame(tc.data)
			if err != nil {
				t.Fatalf("frame-level parse failed: %v", err)
			}
			if f.Items() != 1 {
				t.Fatalf("frame has %d items, want 1", f.Items())
			}
			if _, err := f.ProfileAt(0); err == nil {
				t.Fatal("corrupt item accepted")
			} else if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}

func flipByte(data []byte, i int) []byte {
	out := append([]byte(nil), data...)
	out[i] ^= 0x40
	return out
}

// readFixture reads one file of testdata.
func readFixture(t *testing.T, name string) []byte {
	t.Helper()
	data, err := os.ReadFile("testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	return data
}
