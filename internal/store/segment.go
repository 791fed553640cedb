package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// On-disk layout.
//
// The log is a directory of fixed-capacity segment files plus at most a
// couple of snapshot files:
//
//	wal-00000001.seg    raw segment: records appended by group commit
//	wal-00000001.cmp    compacted rewrite of the same sequence number
//	snap-00000007.snap  snapshot covering every segment with seq < 7
//
// Every file starts with a 16-byte header:
//
//	magic    8 bytes  "PPWALSEG" / "PPWALSNP"
//	version  1 byte   1
//	reserved 7 bytes  zero
//
// and then carries length-prefixed, CRC-framed records:
//
//	kind     1 byte   1 = payload (one ingested wire frame)
//	                  2 = manifest (the push IDs a compaction or snapshot
//	                      absorbed, kept so replay stays duplicate-free)
//	id       8 bytes  LE push ID (0 = none) for payload records, 0 for
//	                  manifests
//	length   4 bytes  LE payload byte count
//	crc      4 bytes  LE CRC-32C over kind, id, length and the payload
//	payload  length bytes
//
// Snapshot files place an 8-byte LE watermark (the first segment NOT
// covered by the snapshot) between the header and the records.
//
// Recovery rules (see scanRecords): a parse failure that extends to the
// end of the LAST segment is a torn group commit — the batch was never
// acked (acks follow fsync), so the tail is truncated and replay
// succeeds. A failure followed by further bytes inside the file, or any
// failure in an earlier segment or a snapshot, is disk corruption and
// surfaces as a *CorruptError carrying the file, offset and record
// index, because silently dropping it could drop acked data.

const (
	segMagic  = "PPWALSEG"
	snapMagic = "PPWALSNP"

	fileVersion = 1
	headerLen   = 16
	recHdrLen   = 1 + 8 + 4 + 4 // kind + id + length + crc

	recKindPayload  = 1
	recKindManifest = 2
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// CorruptError reports unrecoverable log damage with its position.
type CorruptError struct {
	File   string // base name of the damaged file
	Offset int64  // byte offset of the failed record
	Record int    // 0-based record index within the file
	Reason string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("store: %s: offset %d: record %d: %s", e.File, e.Offset, e.Record, e.Reason)
}

func corrupt(name string, off int64, rec int, format string, args ...any) error {
	return &CorruptError{File: name, Offset: off, Record: rec, Reason: fmt.Sprintf(format, args...)}
}

// segName formats a segment file name; compacted segments replace the
// raw extension.
func segName(seq uint64, compacted bool) string {
	ext := "seg"
	if compacted {
		ext = "cmp"
	}
	return fmt.Sprintf("wal-%08d.%s", seq, ext)
}

func snapName(watermark uint64) string {
	return fmt.Sprintf("snap-%08d.snap", watermark)
}

// parseSeq extracts the sequence number from a wal-/snap- file name.
func parseSeq(name string) (uint64, bool) {
	base := strings.TrimSuffix(name, filepath.Ext(name))
	i := strings.IndexByte(base, '-')
	if i < 0 {
		return 0, false
	}
	n, err := strconv.ParseUint(base[i+1:], 10, 64)
	return n, err == nil
}

// fileHeader returns the 16-byte header for magic.
func fileHeader(magic string) []byte {
	h := make([]byte, headerLen)
	copy(h, magic)
	h[8] = fileVersion
	return h
}

// checkHeader validates a file header, returning a positioned error.
func checkHeader(name string, data []byte, magic string) error {
	if len(data) < headerLen {
		return corrupt(name, 0, 0, "truncated header (%d bytes)", len(data))
	}
	if string(data[:8]) != magic {
		return corrupt(name, 0, 0, "bad magic %q", data[:8])
	}
	if data[8] != fileVersion {
		return corrupt(name, 8, 0, "unsupported version %d (want %d)", data[8], fileVersion)
	}
	return nil
}

// appendRecord frames one record onto dst and returns the extended
// slice.
func appendRecord(dst []byte, kind byte, id uint64, payload []byte) []byte {
	start := len(dst)
	dst = append(dst, kind)
	dst = binary.LittleEndian.AppendUint64(dst, id)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	crc := crc32.Update(0, crcTable, dst[start:])
	crc = crc32.Update(crc, crcTable, payload)
	dst = binary.LittleEndian.AppendUint32(dst, crc)
	return append(dst, payload...)
}

// record is one scanned log record; payload subslices the scanned
// buffer.
type record struct {
	kind    byte
	id      uint64
	payload []byte
	off     int64 // byte offset of the record within the file
}

// scanRecords parses the record region of a segment or snapshot file.
// base is the offset of data[0] within the file (header, plus watermark
// for snapshots), used only for error positions.
//
// When tail is true (the last, possibly torn-by-crash segment), a parse
// failure whose damage extends to the end of the buffer truncates: the
// records before it are returned along with truncAt, the file offset the
// caller should truncate to. truncAt is -1 when nothing needs
// truncating. Failures followed by more bytes, or any failure with tail
// false, return a positioned *CorruptError instead.
func scanRecords(name string, data []byte, base int64, tail bool) (recs []record, truncAt int64, err error) {
	truncAt = -1
	pos := 0
	for pos < len(data) {
		off := base + int64(pos)
		rest := data[pos:]
		if len(rest) < recHdrLen {
			// A partial header can only be a torn final write.
			if tail {
				return recs, off, nil
			}
			return nil, -1, corrupt(name, off, len(recs), "truncated record header (%d bytes)", len(rest))
		}
		kind := rest[0]
		if kind != recKindPayload && kind != recKindManifest {
			// Garbage where a record should start. In the tail segment the
			// bytes from here on are an unacked torn write; anywhere else
			// the log is damaged.
			if tail {
				return recs, off, nil
			}
			return nil, -1, corrupt(name, off, len(recs), "bad record kind %d", kind)
		}
		id := binary.LittleEndian.Uint64(rest[1:9])
		n := binary.LittleEndian.Uint32(rest[9:13])
		want := binary.LittleEndian.Uint32(rest[13:17])
		if kind == recKindPayload && n == 0 {
			return nil, -1, corrupt(name, off, len(recs), "zero-length payload record")
		}
		end := recHdrLen + int(n)
		if end > len(rest) || end < recHdrLen {
			// Declared payload runs past EOF: torn final write.
			if tail {
				return recs, off, nil
			}
			return nil, -1, corrupt(name, off, len(recs),
				"record length %d runs %d bytes past end of file", n, end-len(rest))
		}
		payload := rest[recHdrLen:end]
		crc := crc32.Update(0, crcTable, rest[:13])
		crc = crc32.Update(crc, crcTable, payload)
		if crc != want {
			// A checksum mismatch on the very last record of the tail
			// segment is a torn write; one followed by further bytes means
			// fsync already hardened what follows, so the mismatch is real
			// corruption.
			if tail && pos+end == len(data) {
				return recs, off, nil
			}
			return nil, -1, corrupt(name, off, len(recs),
				"checksum mismatch: stored %08x, computed %08x", want, crc)
		}
		recs = append(recs, record{kind: kind, id: id, payload: payload, off: off})
		pos += end
	}
	return recs, truncAt, nil
}

// appendManifest encodes a push-ID manifest payload.
func appendManifest(dst []byte, ids []uint64) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ids)))
	for _, id := range ids {
		dst = binary.LittleEndian.AppendUint64(dst, id)
	}
	return dst
}

// parseManifest decodes a manifest payload.
func parseManifest(name string, off int64, rec int, payload []byte) ([]uint64, error) {
	n, sz := binary.Uvarint(payload)
	if sz <= 0 || n > uint64((len(payload)-sz)/8) {
		return nil, corrupt(name, off, rec, "bad manifest count")
	}
	if int(n)*8 != len(payload)-sz {
		return nil, corrupt(name, off, rec, "manifest length mismatch: %d ids in %d bytes", n, len(payload)-sz)
	}
	ids := make([]uint64, n)
	for i := range ids {
		ids[i] = binary.LittleEndian.Uint64(payload[sz+8*i:])
	}
	return ids, nil
}

// segmentFile is one discovered log file.
type segmentFile struct {
	seq       uint64
	compacted bool
	name      string
	size      int64
}

// listDir inventories the store directory: segments sorted by sequence
// (a compacted rewrite shadows its raw sibling — the raw file only
// survives a crash between compaction and cleanup), and the snapshot
// watermarks present, sorted ascending.
func listDir(dir string) (segs []segmentFile, snaps []uint64, err error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	bySeq := map[uint64]segmentFile{}
	for _, ent := range ents {
		name := ent.Name()
		info, err := ent.Info()
		if err != nil {
			continue // deleted concurrently
		}
		switch {
		case strings.HasPrefix(name, "wal-") && (strings.HasSuffix(name, ".seg") || strings.HasSuffix(name, ".cmp")):
			seq, ok := parseSeq(name)
			if !ok {
				continue
			}
			sf := segmentFile{seq: seq, compacted: strings.HasSuffix(name, ".cmp"), name: name, size: info.Size()}
			if prev, ok := bySeq[seq]; !ok || (sf.compacted && !prev.compacted) {
				bySeq[seq] = sf
			}
		case strings.HasPrefix(name, "snap-") && strings.HasSuffix(name, ".snap"):
			if seq, ok := parseSeq(name); ok {
				snaps = append(snaps, seq)
			}
		}
	}
	for _, sf := range bySeq {
		segs = append(segs, sf)
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].seq < segs[j].seq })
	sort.Slice(snaps, func(i, j int) bool { return snaps[i] < snaps[j] })
	return segs, snaps, nil
}
