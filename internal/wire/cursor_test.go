package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"testing"
)

// refCursor is the byte-at-a-time cursor the slice decoder replaced:
// binary.ReadUvarint pulling one byte per call through io.ByteReader. It
// stays here as the reference the slice cursor must reproduce.
type refCursor struct {
	b   []byte
	pos int
}

func (c *refCursor) ReadByte() (byte, error) {
	if c.pos >= len(c.b) {
		return 0, io.ErrUnexpectedEOF
	}
	b := c.b[c.pos]
	c.pos++
	return b, nil
}

func (c *refCursor) uvarint() (uint64, error) {
	v, err := binary.ReadUvarint(c)
	if err != nil {
		return 0, fmt.Errorf("truncated varint")
	}
	return v, nil
}

func (c *refCursor) varint() (int64, error) {
	v, err := binary.ReadVarint(c)
	if err != nil {
		return 0, fmt.Errorf("truncated varint")
	}
	return v, nil
}

// varintBytes fills b with a random string weighted toward continuation
// bytes, so truncated and overflowing varints (ten or more continuation
// bytes, or a tenth byte above 1) are common.
func varintBytes(rng *rand.Rand, b []byte) {
	for i := range b {
		switch r := rng.Intn(20); {
		case r < 12:
			b[i] = 0x80 | byte(rng.Intn(0x80))
		case r == 12:
			b[i] = 0xff
		case r == 13:
			b[i] = 0x80
		case r < 16:
			b[i] = byte(rng.Intn(3)) // 0, 1 and 2 decide overflow on a tenth byte
		default:
			b[i] = byte(rng.Intn(0x80))
		}
	}
}

// TestCursorMatchesReference: over seeded byte strings of length 0-13,
// read from every start position, the slice cursor returns the same
// value, the same error and consumes the same bytes as the reference, for
// both the unsigned and the signed decoder.
func TestCursorMatchesReference(t *testing.T) {
	n := 1 << 20
	if testing.Short() {
		n = 1 << 16
	}
	rng := rand.New(rand.NewSource(1))
	buf := make([]byte, 13)
	for i := 0; i < n; i++ {
		b := buf[:rng.Intn(len(buf)+1)]
		varintBytes(rng, b)
		start := 0
		if len(b) > 0 && rng.Intn(4) == 0 {
			start = rng.Intn(len(b) + 1)
		}

		ref, got := refCursor{b: b, pos: start}, cursor{b: b, pos: start}
		rv, rerr := ref.uvarint()
		gv, gerr := got.uvarint()
		if rv != gv || !sameErr(rerr, gerr) || ref.pos != got.pos {
			t.Fatalf("uvarint % x from %d: got (%d, %v, pos %d), reference (%d, %v, pos %d)",
				b, start, gv, gerr, got.pos, rv, rerr, ref.pos)
		}

		ref, got = refCursor{b: b, pos: start}, cursor{b: b, pos: start}
		rs, rerr := ref.varint()
		gs, gerr := got.varint()
		if rs != gs || !sameErr(rerr, gerr) || ref.pos != got.pos {
			t.Fatalf("varint % x from %d: got (%d, %v, pos %d), reference (%d, %v, pos %d)",
				b, start, gs, gerr, got.pos, rs, rerr, ref.pos)
		}
	}
}

func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Error() == b.Error()
}
