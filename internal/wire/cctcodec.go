package wire

import (
	"fmt"
	"io"
	"slices"

	"pathprof/internal/cct"
	"pathprof/internal/flat"
)

// CCT payload layout.
//
// Section secCCTHeader (one, first):
//
//	string program, uvarint numProcs, bool distinguishSites,
//	uvarint numMetrics, byte flags (bit 0: structural extras present),
//	then when structural: uvarint sizeBytes, uvarint listElems
//
// Section secCCTNode (one per record, depth-first preorder):
//
//	uvarint id, uvarint parentID, varint proc,
//	uvarint numMetrics + varint each,
//	uvarint numPathCounts + (varint sum, varint count)* sorted by sum,
//	then when structural: uvarint size, uvarint numSlots +
//	per slot: byte (bit 0 used, bits 1-2 path state),
//	          varint prefix when path state == 1
//
// Section secCCTBackedges (one, last, present when any backedges exist):
//
//	uvarint count, (uvarint fromID, uvarint toID)*

const flagStructure = 1

// EncodeExport writes ex as one wire envelope.
func EncodeExport(w io.Writer, ex *cct.Export) error {
	e := newEncoder(w)
	if err := e.header(KindCCT); err != nil {
		return err
	}
	b := e.tmp[:0]
	b = putString(b, ex.Program)
	b = putUvarint(b, uint64(ex.NumProcs))
	b = putBool(b, ex.DistinguishSites)
	b = putUvarint(b, uint64(ex.NumMetrics))
	var flags byte
	if ex.HasStructure {
		flags |= flagStructure
	}
	b = append(b, flags)
	if ex.HasStructure {
		b = putUvarint(b, ex.SizeBytes)
		b = putUvarint(b, uint64(ex.ListElems))
	}
	if err := e.section(secCCTHeader, b); err != nil {
		return err
	}

	var backedges [][2]int
	var encErr error
	var rec func(n *cct.ExportedNode)
	rec = func(n *cct.ExportedNode) {
		if encErr != nil {
			return
		}
		for _, be := range n.Backedges {
			backedges = append(backedges, [2]int{n.ID, be})
		}
		for _, ch := range n.Children {
			b = b[:0]
			b = putUvarint(b, uint64(ch.ID))
			b = putUvarint(b, uint64(n.ID))
			b = putVarint(b, int64(ch.Proc))
			b = putUvarint(b, uint64(len(ch.Metrics)))
			for _, m := range ch.Metrics {
				b = putVarint(b, m)
			}
			sums := make([]int64, 0, ch.PathCounts.Len())
			ch.PathCounts.Range(func(s, _ int64) bool {
				sums = append(sums, s)
				return true
			})
			slices.Sort(sums)
			b = putUvarint(b, uint64(len(sums)))
			for _, s := range sums {
				cnt, _ := ch.PathCounts.Get(s)
				b = putVarint(b, s)
				b = putVarint(b, cnt)
			}
			if ex.HasStructure {
				b = putUvarint(b, ch.Size)
				b = putUvarint(b, uint64(len(ch.Slots)))
				for _, s := range ch.Slots {
					st := byte(0)
					if s.Used {
						st |= 1
					}
					st |= s.PathState << 1
					b = append(b, st)
					if s.PathState == 1 {
						b = putVarint(b, s.PathPrefix)
					}
				}
			}
			if err := e.section(secCCTNode, b); err != nil {
				encErr = err
				return
			}
			rec(ch)
		}
	}
	rec(ex.Root)
	if encErr != nil {
		return encErr
	}
	if len(backedges) > 0 {
		b = b[:0]
		b = putUvarint(b, uint64(len(backedges)))
		for _, be := range backedges {
			b = putUvarint(b, uint64(be[0]))
			b = putUvarint(b, uint64(be[1]))
		}
		if err := e.section(secCCTBackedges, b); err != nil {
			return err
		}
	}
	e.tmp = b
	return e.finish()
}

// DecodeExport reads one envelope that must carry a CCT export.
func DecodeExport(r io.Reader) (*cct.Export, error) {
	pl, err := Decode(r)
	if err != nil {
		return nil, err
	}
	if pl.Kind != KindCCT {
		return nil, errKind(KindCCT, pl.Kind)
	}
	return pl.Export, nil
}

func decodeExportSections(d *decoder) (*cct.Export, error) {
	var ex *cct.Export
	sawBackedges := false
	for {
		id, payload, err := d.nextSection()
		if err != nil {
			return nil, err
		}
		if id == secEnd {
			break
		}
		c := &cursor{b: payload}
		switch id {
		case secCCTHeader:
			if ex != nil {
				return nil, d.errorf("duplicate cct header section")
			}
			if ex, err = decodeCCTHeader(c); err != nil {
				return nil, d.errorf("cct header: %v", err)
			}
		case secCCTNode:
			if ex == nil {
				return nil, d.errorf("node section before cct header")
			}
			if sawBackedges {
				return nil, d.errorf("node section after backedges")
			}
			if err := decodeCCTNode(c, ex); err != nil {
				return nil, d.errorf("cct node: %v", err)
			}
		case secCCTBackedges:
			if ex == nil {
				return nil, d.errorf("backedge section before cct header")
			}
			if sawBackedges {
				return nil, d.errorf("duplicate backedge section")
			}
			sawBackedges = true
			if err := decodeCCTBackedges(c, ex); err != nil {
				return nil, d.errorf("cct backedges: %v", err)
			}
		default:
			return nil, d.errorf("unexpected section %d in cct payload", id)
		}
	}
	if ex == nil {
		return nil, d.errorf("cct payload has no header section")
	}
	return ex, nil
}

func decodeCCTHeader(c *cursor) (*cct.Export, error) {
	ex := &cct.Export{}
	var err error
	if ex.Program, err = c.string(); err != nil {
		return nil, err
	}
	np, err := c.uvarint()
	if err != nil {
		return nil, err
	}
	if np > maxWireProcs {
		return nil, fmt.Errorf("%d procs exceeds limit", np)
	}
	ex.NumProcs = int(np)
	if ex.DistinguishSites, err = c.bool(); err != nil {
		return nil, err
	}
	nm, err := c.uvarint()
	if err != nil {
		return nil, err
	}
	ex.NumMetrics = int(nm)
	flags, err := c.ReadByte()
	if err != nil {
		return nil, io.ErrUnexpectedEOF
	}
	if flags&flagStructure != 0 {
		ex.HasStructure = true
		if ex.SizeBytes, err = c.uvarint(); err != nil {
			return nil, err
		}
		le, err := c.uvarint()
		if err != nil {
			return nil, err
		}
		ex.ListElems = int(le)
	}
	if err := c.done(); err != nil {
		return nil, err
	}
	root := &cct.ExportedNode{ID: 0, Proc: -1, PathCounts: flat.New(0)}
	ex.Root = root
	ex.Nodes = map[int]*cct.ExportedNode{0: root}
	return ex, nil
}

func decodeCCTNode(c *cursor, ex *cct.Export) error {
	id64, err := c.uvarint()
	if err != nil {
		return err
	}
	pid64, err := c.uvarint()
	if err != nil {
		return err
	}
	id, pid := int(id64), int(pid64)
	if id == 0 {
		return errNodeIDZero
	}
	if _, dup := ex.Nodes[id]; dup {
		return &nodeError{id: id, msg: "duplicate node id"}
	}
	parent, ok := ex.Nodes[pid]
	if !ok {
		return &nodeError{id: id, msg: "unknown parent"}
	}
	proc, err := c.varint()
	if err != nil {
		return err
	}
	n := &cct.ExportedNode{ID: id, ParentID: pid, Proc: int(proc)}
	nm, err := c.count(1)
	if err != nil {
		return err
	}
	if nm > 0 {
		n.Metrics = make([]int64, nm)
		for i := range n.Metrics {
			if n.Metrics[i], err = c.varint(); err != nil {
				return err
			}
		}
	}
	np, err := c.count(2)
	if err != nil {
		return err
	}
	n.PathCounts = flat.New(np)
	for i := 0; i < np; i++ {
		s, err := c.varint()
		if err != nil {
			return err
		}
		cnt, err := c.varint()
		if err != nil {
			return err
		}
		n.PathCounts.Set(s, cnt)
	}
	if ex.HasStructure {
		if n.Size, err = c.uvarint(); err != nil {
			return err
		}
		ns, err := c.count(1)
		if err != nil {
			return err
		}
		n.Slots = make([]cct.SlotStat, ns)
		for i := range n.Slots {
			st, err := c.ReadByte()
			if err != nil {
				return io.ErrUnexpectedEOF
			}
			n.Slots[i].Used = st&1 != 0
			n.Slots[i].PathState = st >> 1
			if n.Slots[i].PathState > 2 {
				return &nodeError{id: id, msg: "bad slot state"}
			}
			if n.Slots[i].PathState == 1 {
				if n.Slots[i].PathPrefix, err = c.varint(); err != nil {
					return err
				}
			}
		}
	}
	if err := c.done(); err != nil {
		return err
	}
	parent.Children = append(parent.Children, n)
	ex.Nodes[id] = n
	return nil
}

func decodeCCTBackedges(c *cursor, ex *cct.Export) error {
	n, err := c.count(2)
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		from64, err := c.uvarint()
		if err != nil {
			return err
		}
		to64, err := c.uvarint()
		if err != nil {
			return err
		}
		from, ok := ex.Nodes[int(from64)]
		if !ok {
			return &nodeError{id: int(from64), msg: "backedge from unknown node"}
		}
		if _, ok := ex.Nodes[int(to64)]; !ok {
			return &nodeError{id: int(to64), msg: "backedge to unknown node"}
		}
		from.Backedges = append(from.Backedges, int(to64))
	}
	return c.done()
}

type nodeError struct {
	id  int
	msg string
}

func (e *nodeError) Error() string { return e.msg + " (node " + itoa(e.id) + ")" }

var errNodeIDZero = &nodeError{id: 0, msg: "node id 0 is reserved for the root"}

// itoa avoids importing strconv for one error path.
func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [24]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}
