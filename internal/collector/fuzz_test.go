package collector

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"

	"pathprof/internal/cct"
	"pathprof/internal/wire"
)

// refixCRC returns a copy of data with its CRC-32C trailer recomputed, so
// a mutated frame reaches the item decoders and the fold instead of
// failing at the checksum.
func refixCRC(data []byte) []byte {
	out := append([]byte(nil), data...)
	body := out[:len(out)-4]
	binary.LittleEndian.PutUint32(out[len(body):], crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))
	return out
}

// splitItems rebuilds a parsed frame as one frame per item, each with the
// frame's string table.
func splitItems(frame []byte) [][]byte {
	body := frame[:len(frame)-4]
	section := func(pos int) int { // returns the end of the section at pos
		n, sz := binary.Uvarint(body[pos+1:])
		return pos + 1 + sz + int(n)
	}
	head := body[:section(6)]
	var out [][]byte
	for pos := len(head); body[pos] != 0; {
		end := section(pos)
		f := append(append([]byte(nil), head...), body[pos:end]...)
		out = append(out, refixCRC(append(f, 0, 0, 0, 0, 0)))
		pos = end
	}
	return out
}

// FuzzIngest feeds structurally valid but semantically hostile frames
// through ParseFrame and the fold. Each input gets a fresh CRC, then its
// items fold one frame at a time into a two-shard collector that already
// holds a valid aggregate of each base program. No input may panic or
// hit a fatal error, and an item the collector rejects must leave every
// program's merged profile and CCT, encoded as a v3 frame,
// byte-identical.
func FuzzIngest(f *testing.F) {
	prof, tree := fixtures(f)
	bw := wire.NewBatchWriter()
	if err := bw.AddProfile(prof); err != nil {
		f.Fatal(err)
	}
	if err := bw.AddExport(tree.Export("compress")); err != nil {
		f.Fatal(err)
	}
	if err := bw.AddExport(validHostileExport); err != nil {
		f.Fatal(err)
	}
	base := bw.Frame()

	// Seeds: real frames (the base itself, one item of each kind, and a
	// second program), then the hostile pushes the decoder must reject
	// before anything folds.
	f.Add(base)
	other := tree.Export("otherprog")
	bw.Reset()
	if err := bw.AddProfile(prof); err != nil {
		f.Fatal(err)
	}
	f.Add(bw.Frame())
	for _, ex := range []*cct.Export{tree.Export("compress"), other,
		hugeNumProcs, secondChildProc99, procAliasesOne} {
		f.Add(exportFrame(f, ex))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if !wire.IsFrame(data) || len(data) < 11 {
			return
		}
		data = refixCRC(data)
		if _, err := wire.ParseFrame(data); err != nil {
			return
		}
		c := New(Config{Shards: 2})
		for i := 0; i < 2; i++ {
			if _, _, err := c.IngestFrame(base); err != nil {
				t.Fatal(err)
			}
		}
		for _, item := range splitItems(data) {
			before := snapshotBytes(t, c)
			if _, _, err := c.IngestFrame(item); err != nil {
				if !bytes.Equal(snapshotBytes(t, c), before) {
					t.Fatalf("rejected item changed the aggregate: %v", err)
				}
			}
		}
	})
}
