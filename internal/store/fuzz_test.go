package store

import (
	"bytes"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// fuzzSeedSegments builds the corpus: a well-formed segment plus one
// variant per corruption-matrix row, so the fuzzer starts from inputs
// that reach deep into the scanner instead of dying at the header.
func fuzzSeedSegments() [][]byte {
	valid := fileHeader(segMagic)
	valid = appendRecord(valid, recKindPayload, 101, []byte("alpha payload"))
	valid = appendRecord(valid, recKindPayload, 0, bytes.Repeat([]byte{0xAB}, 300))
	valid = appendRecord(valid, recKindPayload, 102, []byte("omega"))

	// A manifest record in a segment (an older build's compaction wrote
	// them) scans, and Open refuses it.
	manifest := fileHeader(segMagic)
	manifest = appendRecord(manifest, recKindPayload, 101, []byte("alpha payload"))
	manifest = appendRecord(manifest, recKindManifest, 0, appendManifest(nil, []uint64{101, 7, 9}))
	manifest = appendRecord(manifest, recKindPayload, 102, []byte("omega"))

	torn := append([]byte(nil), valid[:len(valid)-3]...)

	flipped := append([]byte(nil), valid...)
	flipped[headerLen+recHdrLen+4] ^= 0x40 // mid first payload

	zeroLen := fileHeader(segMagic)
	zeroLen = appendRecord(zeroLen, recKindPayload, 5, nil)

	badKind := append([]byte(nil), valid...)
	badKind[headerLen] = 0xEE

	doubled := append([]byte(nil), valid...)
	doubled = append(doubled, valid[headerLen:]...)

	snap := fileHeader(snapMagic)
	snap = append(snap, 0, 0, 0, 0, 0, 0, 0, 3) // watermark bytes
	snap = appendRecord(snap, recKindPayload, 0, []byte("snapshot frame"))

	return [][]byte{
		valid, torn, flipped, zeroLen, badKind, doubled, snap,
		fileHeader(segMagic),
		[]byte("PPWALSEGbut short"),
		[]byte("not a segment at all"),
		manifest,
	}
}

// FuzzSegmentReplay: arbitrary bytes presented as a segment file must
// either replay or produce a positioned error — never a panic — and the
// recovery rules must be self-consistent: a strict scan that succeeds
// is a tail scan with nothing to truncate; a tail truncation must be
// idempotent (rescanning the truncated prefix is clean); scanned
// records must round-trip through the writer; and a full Open on the
// file must recover to a state that a second Open reproduces exactly.
func FuzzSegmentReplay(f *testing.F) {
	for _, seed := range fuzzSeedSegments() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		const name = "wal-00000001.seg"
		if err := checkHeader(name, data, segMagic); err != nil {
			if _, ok := err.(*CorruptError); !ok {
				t.Fatalf("header rejection is not positioned: %v", err)
			}
			return
		}
		body := data[headerLen:]

		strict, _, strictErr := scanRecords(name, body, headerLen, false)
		recs, truncAt, tailErr := scanRecords(name, body, headerLen, true)

		if strictErr == nil {
			// A clean sealed segment cannot need tail repair.
			if tailErr != nil || truncAt != -1 {
				t.Fatalf("strict scan clean but tail scan got truncAt=%d err=%v", truncAt, tailErr)
			}
			if len(recs) != len(strict) {
				t.Fatalf("strict scan %d records, tail scan %d", len(strict), len(recs))
			}
		}
		if tailErr != nil {
			if _, ok := tailErr.(*CorruptError); !ok {
				t.Fatalf("tail rejection is not positioned: %v", tailErr)
			}
			return
		}
		if truncAt >= 0 {
			if truncAt < headerLen || truncAt > int64(len(data)) {
				t.Fatalf("truncAt %d outside file of %d bytes", truncAt, len(data))
			}
			again, at2, err2 := scanRecords(name, data[headerLen:truncAt], headerLen, true)
			if err2 != nil || at2 != -1 {
				t.Fatalf("truncation not idempotent: truncAt=%d err=%v", at2, err2)
			}
			if len(again) != len(recs) {
				t.Fatalf("truncated rescan lost records: %d vs %d", len(again), len(recs))
			}
		}

		// Whatever the scanner accepted must survive a rewrite.
		rt := fileHeader(segMagic)
		for _, r := range recs {
			rt = appendRecord(rt, r.kind, r.id, r.payload)
		}
		rt2, at, err := scanRecords(name, rt[headerLen:], headerLen, false)
		if err != nil || at != -1 || len(rt2) != len(recs) {
			t.Fatalf("scanned records failed to round-trip: n=%d at=%d err=%v", len(rt2), at, err)
		}
		for i, r := range recs {
			if r.kind == recKindManifest {
				parseManifest(name, r.off, i, r.payload) // must not panic
			}
			if !bytes.Equal(rt2[i].payload, recs[i].payload) {
				t.Fatalf("record %d payload changed across round-trip", i)
			}
		}

		// End-to-end: recover the file with the real Open, then prove the
		// repaired directory replays identically a second time.
		replay := func(dir string) ([]byte, Recovery, error) {
			var mu sync.Mutex
			var state []byte
			l, rec, err := Open(dir, Options{
				Apply: eachPayload(func(p []byte) error {
					mu.Lock()
					state = append(state, p...)
					mu.Unlock()
					return nil
				}),
			})
			if err != nil {
				return nil, rec, err
			}
			l.Close()
			return state, rec, nil
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s1, rec1, err1 := replay(dir)
		if err1 != nil {
			if _, ok := err1.(*CorruptError); !ok {
				t.Fatalf("Open rejection is not positioned: %v", err1)
			}
			return
		}
		s2, rec2, err2 := replay(dir)
		if err2 != nil {
			t.Fatalf("second Open failed after clean first recovery: %v", err2)
		}
		if !bytes.Equal(s1, s2) || rec1.Records != rec2.Records {
			t.Fatalf("replay not idempotent: %d vs %d records, %d vs %d state bytes",
				rec1.Records, rec2.Records, len(s1), len(s2))
		}
	})
}
