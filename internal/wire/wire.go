// Package wire implements the compact binary frame profiles travel in
// between producers and the collection tier (internal/collector), rest
// in the collector's log (internal/store) and are saved in by cmd/pp
// -out. One frame carries any number of items, each either a
// flow-sensitive path profile (profile.Profile) or a calling context tree
// export (cct.Export): a single push is a one-item frame, a relay flush,
// a store snapshot or a saved run a many-item one. Unlike the text dumps,
// a CCT item also carries the structural detail Table 3 needs (record
// sizes, per-site slot states, heap footprint), so merged aggregates
// report exact statistics.
//
// Layout (format version 3):
//
//	"PPW1"                         magic
//	version  byte                  3
//	kind     byte                  3 (KindBatch)
//	section  secBatchStrings       shared string table (one, first)
//	sections { secBatchProfile | secBatchCCT }*   one item per envelope
//	end      byte 0
//	crc      uint32 little-endian  CRC-32C of every preceding byte
//
// Every section is an id byte and a uvarint payload length followed by
// the payload. All program names, modes and event names live in the
// string table and items reference them by index, so a frame of N
// profiles of the same program carries each string once. Path
// identifiers are delta-encoded: profile entries as signed deltas in
// stored order, CCT path-count sums as strictly-ascending gaps. Metric
// words stay uvarints.
//
// String table (secBatchStrings):
//
//	uvarint count, count x (uvarint len, bytes)
//
// Profile item (secBatchProfile):
//
//	uvarint programIdx, uvarint modeIdx,
//	uvarint numEvents, numEvents x uvarint eventIdx,
//	uvarint numProcs, per proc:
//	  varint procID, uvarint nameIdx, varint numPaths, uvarint numEntries,
//	  per entry: varint dSum (sum - prev, prev starts at 0),
//	             uvarint freq, numEvents x uvarint metric
//	[uvarint k, numProcs x uvarint procK]   trailing, only when k > 1
//
// The trailing k fields carry a k-iteration profile's degree (and each
// procedure's effective degree, which clamping may leave below it).
// Classic profiles omit them; the decoder detects them by leftover
// payload bytes.
//
// CCT item (secBatchCCT):
//
//	uvarint programIdx,
//	uvarint numProcs, bool distinguishSites, uvarint numMetrics, byte flags,
//	when structural (flags bit 0): uvarint sizeBytes, uvarint listElems,
//	uvarint numNodes, per node (preorder, implicit id 1..numNodes):
//	  uvarint parentID (< id; 0 is the root),
//	  varint proc,
//	  uvarint nMetrics, nMetrics x varint,
//	  uvarint nPathCounts, first: varint sum, varint count,
//	                       rest:  uvarint gap (sum = prev + gap + 1), varint count,
//	  when structural: uvarint size, uvarint nSlots,
//	                   per slot: byte state, varint prefix when one-path
//	uvarint numBackedges, numBackedges x (uvarint fromID, uvarint toID)
//
// The decoder (Frame) parses in place: string-table entries and item
// payloads are subslices of the caller's buffer, and the item decoders
// fill caller-owned scratch structs whose backing arrays are reused
// across frames, so a steady-state ingest performs no allocation.
//
// Corrupt, truncated or oversized input yields a positioned error, never
// a panic; the trailing checksum rejects bit flips that still parse.
// Input without a version-3 header is refused at the header. That
// includes the single-payload envelopes of versions 1 and 2, which this
// package no longer reads.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

var magic = [4]byte{'P', 'P', 'W', '1'}

// Kind discriminates the payload carried by a frame item.
type Kind byte

const (
	KindProfile Kind = 1
	KindCCT     Kind = 2
)

func (k Kind) String() string {
	switch k {
	case KindProfile:
		return "profile"
	case KindCCT:
		return "cct"
	default:
		return fmt.Sprintf("kind(%d)", byte(k))
	}
}

// KindError reports a frame item carrying the wrong payload kind.
type KindError struct{ Want, Got Kind }

func (e *KindError) Error() string {
	return "wire: payload is a " + e.Got.String() + ", want " + e.Want.String()
}

// secEnd is the end-of-sections marker.
const secEnd = 0

// maxSectionLen bounds a single section's declared payload length; it is
// far above anything the encoder produces and exists so hostile length
// fields cannot demand absurd allocations.
const maxSectionLen = 1 << 30

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// maxWireEvents bounds the schema width a decoded item may declare —
// generous against hpm.MaxCounters, tight against hostile items.
const maxWireEvents = 256

// maxWireProcs bounds the procedure count a decoded CCT may declare. Its
// nodes need not mention every procedure, so the count is not bounded by
// the payload size, yet the collector's fold sizes a per-procedure table
// from it.
const maxWireProcs = 1 << 20

// maxWireK bounds the iteration degree a decoded profile may declare —
// far above instrument's own ceiling, tight against hostile payloads.
const maxWireK = 255

// flagStructure marks a CCT item carrying the structural extras.
const flagStructure = 1

// Buffer append helpers.

func putUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }
func putVarint(b []byte, v int64) []byte   { return binary.AppendVarint(b, v) }

func putString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func putBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// --- section payload cursor ---

// cursor parses primitives out of one section's payload.
type cursor struct {
	b   []byte
	pos int
}

func (c *cursor) remaining() int { return len(c.b) - c.pos }

func (c *cursor) ReadByte() (byte, error) {
	if c.pos >= len(c.b) {
		return 0, io.ErrUnexpectedEOF
	}
	b := c.b[c.pos]
	c.pos++
	return b, nil
}

var errVarint = errors.New("truncated varint")

// uvarint decodes one uvarint straight from the payload slice. A
// malformed varint consumes exactly what binary.ReadUvarint would have
// pulled from a byte reader — everything left when truncated, at most
// binary.MaxVarintLen64 bytes on overflow — so every positioned error
// keeps its offset.
func (c *cursor) uvarint() (uint64, error) {
	if c.pos < len(c.b) && c.b[c.pos] < 0x80 {
		v := uint64(c.b[c.pos])
		c.pos++
		return v, nil
	}
	v, n := binary.Uvarint(c.b[c.pos:])
	if n <= 0 {
		if n == 0 {
			c.pos = len(c.b)
		} else {
			c.pos += min(-n, binary.MaxVarintLen64)
		}
		return 0, errVarint
	}
	c.pos += n
	return v, nil
}

func (c *cursor) varint() (int64, error) {
	ux, err := c.uvarint()
	if err != nil {
		return 0, err
	}
	return unzigzag(ux), nil
}

// unzigzag maps a zigzag-encoded uvarint back to its signed value, as
// binary.Varint does.
func unzigzag(ux uint64) int64 {
	x := int64(ux >> 1)
	if ux&1 != 0 {
		x = ^x
	}
	return x
}

// failVarint re-reads the malformed varint at pos through the cursor, so
// an item loop that decodes the slice inline fails with the cursor's own
// error and leaves the cursor where that error is positioned.
func (c *cursor) failVarint(pos int) error {
	c.pos = pos
	_, err := c.uvarint()
	return err
}

func (c *cursor) bool() (bool, error) {
	b, err := c.ReadByte()
	if err != nil {
		return false, fmt.Errorf("truncated bool")
	}
	if b > 1 {
		return false, fmt.Errorf("bad bool byte %d", b)
	}
	return b == 1, nil
}

// count reads a collection length and validates it against the bytes left
// in the section (each element needs at least minBytes), so corrupt counts
// cannot demand absurd allocations.
func (c *cursor) count(minBytes int) (int, error) {
	n, err := c.uvarint()
	if err != nil {
		return 0, err
	}
	if minBytes < 1 {
		minBytes = 1
	}
	if n > uint64(c.remaining()/minBytes) {
		return 0, fmt.Errorf("count %d exceeds section size", n)
	}
	return int(n), nil
}

func (c *cursor) done() error {
	if c.pos != len(c.b) {
		return fmt.Errorf("%d trailing bytes in section", len(c.b)-c.pos)
	}
	return nil
}
