// Package wire implements the compact binary encoding profiles travel in
// between producers and the collection tier (internal/collector): a
// versioned envelope of varint-encoded, length-prefixed sections with a
// CRC-32C trailer, carrying either a flow-sensitive path profile
// (profile.Profile) or a calling context tree export (cct.Export).
//
// Layout:
//
//	"PPW1"                         magic
//	version  byte                  format version (currently 2; 1 still decodes)
//	kind     byte                  1 = profile, 2 = CCT export
//	sections { id byte, uvarint length, payload }*
//	end      byte 0                end-of-sections marker
//	crc      uint32 little-endian  CRC-32C of every preceding byte
//
// Version 2 replaces the profile header section with a schema-carrying
// variant (secProfileSchema): instead of exactly two event-name strings it
// holds the full N-event metric schema, and each path entry carries N
// metric accumulators. Version 1 envelopes — fixed two-metric layout — are
// still decoded (the reader maps them onto a two-event schema), so blobs
// produced by old producers keep working; see testdata/v1_*.bin.
//
// Sections stream: encoders emit one section per procedure (profiles) or
// per call record (CCTs), and decoders consume section by section, so
// neither side holds more than one section's payload beyond the decoded
// result itself. The codec round-trips byte-identically against the text
// encoders: re-encoding a decoded value with profile.(*Profile).Write or
// cct.(*Export).WriteText reproduces the original text file. Unlike the
// text format, the CCT message also carries the structural detail Table 3
// needs (record sizes, per-site slot states, heap footprint), so merged
// aggregates report exact statistics.
//
// Corrupt, truncated or oversized input yields a descriptive error (never
// a panic); the trailing checksum rejects bit flips that still parse.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"

	"pathprof/internal/cct"
	"pathprof/internal/profile"
)

// Version is the format version this package writes.
const Version = 2

// minVersion is the oldest format version the decoder accepts.
const minVersion = 1

var magic = [4]byte{'P', 'P', 'W', '1'}

// Kind discriminates the payload carried by an envelope.
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

// Section IDs.
const (
	secEnd           = 0
	secProfileHeader = 1 // v1 profile header: exactly two event names
	secProfileProc   = 2
	secCCTHeader     = 3
	secCCTNode       = 4
	secCCTBackedges  = 5
	secProfileSchema = 6 // v2 profile header: N-event metric schema
)

// maxSectionLen bounds a single section's declared payload length; it is
// far above anything the encoders produce and exists so hostile length
// fields cannot demand absurd allocations.
const maxSectionLen = 1 << 30

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Payload is a decoded envelope: exactly one of Profile / Export is set,
// per Kind.
type Payload struct {
	Kind    Kind
	Profile *profile.Profile
	Export  *cct.Export
}

// Program returns the name of the program the payload profiles.
func (p *Payload) Program() string {
	switch p.Kind {
	case KindProfile:
		return p.Profile.Program
	case KindCCT:
		return p.Export.Program
	}
	return ""
}

// Encode writes v — a *profile.Profile or *cct.Export — as one envelope.
func Encode(w io.Writer, v any) error {
	switch v := v.(type) {
	case *profile.Profile:
		return EncodeProfile(w, v)
	case *cct.Export:
		return EncodeExport(w, v)
	default:
		return fmt.Errorf("wire: cannot encode %T", v)
	}
}

// Decode reads one envelope and returns its payload.
func Decode(r io.Reader) (*Payload, error) {
	d := newDecoder(r)
	kind, err := d.header()
	if err != nil {
		return nil, err
	}
	pl := &Payload{Kind: kind}
	switch kind {
	case KindProfile:
		pl.Profile, err = decodeProfileSections(d)
	case KindCCT:
		pl.Export, err = decodeExportSections(d)
	default:
		return nil, d.errorf("unknown payload kind %d", byte(kind))
	}
	if err != nil {
		return nil, err
	}
	if err := d.verifyTrailer(); err != nil {
		return nil, err
	}
	return pl, nil
}

// --- encoder ---

type encoder struct {
	w   io.Writer
	crc hash.Hash32
	tmp []byte
}

func newEncoder(w io.Writer) *encoder {
	return &encoder{w: w, crc: crc32.New(crcTable)}
}

func (e *encoder) raw(b []byte) error {
	e.crc.Write(b)
	_, err := e.w.Write(b)
	return err
}

func (e *encoder) header(kind Kind) error {
	return e.raw([]byte{magic[0], magic[1], magic[2], magic[3], Version, byte(kind)})
}

// section emits one length-prefixed section. The payload buffer is reused
// across sections (callers rebuild it via e.tmp).
func (e *encoder) section(id byte, payload []byte) error {
	hdr := binary.AppendUvarint([]byte{id}, uint64(len(payload)))
	if err := e.raw(hdr); err != nil {
		return err
	}
	return e.raw(payload)
}

// finish writes the end marker and the checksum trailer.
func (e *encoder) finish() error {
	if err := e.raw([]byte{secEnd}); err != nil {
		return err
	}
	sum := e.crc.Sum32()
	var tr [4]byte
	binary.LittleEndian.PutUint32(tr[:], sum)
	_, err := e.w.Write(tr[:]) // the trailer is not part of its own checksum
	return err
}

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

// --- decoder ---

type decoder struct {
	r       *bufio.Reader
	crc     hash.Hash32
	offset  int64
	version byte   // envelope format version, set by header()
	buf     []byte // section payload buffer, reused across sections
}

func newDecoder(r io.Reader) *decoder {
	return &decoder{r: bufio.NewReader(r), crc: crc32.New(crcTable)}
}

func (d *decoder) errorf(format string, args ...interface{}) error {
	return fmt.Errorf("wire: offset %d: %s", d.offset, fmt.Sprintf(format, args...))
}

// ReadByte implements io.ByteReader over the checksummed stream.
func (d *decoder) ReadByte() (byte, error) {
	b, err := d.r.ReadByte()
	if err != nil {
		return 0, err
	}
	d.crc.Write([]byte{b})
	d.offset++
	return b, nil
}

func (d *decoder) uvarint() (uint64, error) {
	v, err := binary.ReadUvarint(d)
	if err != nil {
		return 0, d.eof(err, "varint")
	}
	return v, nil
}

// eof normalizes read errors: a clean EOF mid-structure is truncation.
func (d *decoder) eof(err error, what string) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return d.errorf("truncated input reading %s", what)
	}
	return fmt.Errorf("wire: offset %d: reading %s: %w", d.offset, what, err)
}

// readFull reads exactly n bytes through the checksum into the decoder's
// reusable payload buffer — section decoders copy everything they keep, so
// one buffer serves every section of the envelope. Growth is chunked with
// the bytes actually present, so a lying length field fails at the true
// end of input instead of pre-allocating n bytes.
func (d *decoder) readFull(n int) ([]byte, error) {
	const chunk = 64 << 10
	buf := d.buf[:0]
	if cap(buf) < n && cap(buf) < chunk {
		buf = make([]byte, 0, min(n, chunk))
	}
	for len(buf) < n {
		c := min(n-len(buf), chunk)
		start := len(buf)
		buf = append(buf, make([]byte, c)...)
		if _, err := io.ReadFull(d.r, buf[start:]); err != nil {
			return nil, d.eof(err, "section payload")
		}
		d.crc.Write(buf[start:])
		d.offset += int64(c)
	}
	d.buf = buf
	return buf, nil
}

func (d *decoder) header() (Kind, error) {
	var m [6]byte
	if _, err := io.ReadFull(d.r, m[:]); err != nil {
		return 0, d.eof(err, "envelope header")
	}
	d.crc.Write(m[:])
	d.offset += 6
	if [4]byte(m[:4]) != magic {
		return 0, d.errorf("bad magic %q", m[:4])
	}
	if m[4] < minVersion || m[4] > Version {
		return 0, d.errorf("unsupported version %d (accept %d..%d)", m[4], minVersion, Version)
	}
	d.version = m[4]
	return Kind(m[5]), nil
}

// nextSection reads a section header and payload; it returns id secEnd
// with a nil payload at the end marker.
func (d *decoder) nextSection() (byte, []byte, error) {
	id, err := d.ReadByte()
	if err != nil {
		return 0, nil, d.eof(err, "section id")
	}
	if id == secEnd {
		return secEnd, nil, nil
	}
	n, err := d.uvarint()
	if err != nil {
		return 0, nil, err
	}
	if n > maxSectionLen {
		return 0, nil, d.errorf("section %d length %d exceeds limit", id, n)
	}
	payload, err := d.readFull(int(n))
	if err != nil {
		return 0, nil, err
	}
	return id, payload, nil
}

// verifyTrailer reads the 4-byte checksum (outside the checksummed stream)
// and compares it with the accumulated CRC.
func (d *decoder) verifyTrailer() error {
	want := d.crc.Sum32()
	var tr [4]byte
	if _, err := io.ReadFull(d.r, tr[:]); err != nil {
		return d.eof(err, "checksum trailer")
	}
	got := binary.LittleEndian.Uint32(tr[:])
	if got != want {
		return d.errorf("checksum mismatch: trailer %08x, computed %08x", got, want)
	}
	return nil
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

func (c *cursor) string() (string, error) {
	n, err := c.uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(c.remaining()) {
		return "", fmt.Errorf("string length %d exceeds section", n)
	}
	s := string(c.b[c.pos : c.pos+int(n)])
	c.pos += int(n)
	return s, nil
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
