package wire

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"slices"

	"pathprof/internal/cct"
	"pathprof/internal/flat"
	"pathprof/internal/profile"
)

// Wire version 3: batched multi-profile frames.
//
// A frame carries many envelopes in one POST so the per-request costs
// (HTTP round trip, header parse, checksum, admission) amortize across
// the batch, and so the decoder can work zero-copy over one contiguous
// buffer instead of pulling a checksummed byte stream. Layout:
//
//	"PPW1"                         magic (shared with v1/v2)
//	version  byte                  3
//	kind     byte                  3 (KindBatch)
//	section  secBatchStrings       shared string table (one, first)
//	sections { secBatchProfile | secBatchCCT }*   one item per envelope
//	end      byte 0
//	crc      uint32 little-endian  CRC-32C of every preceding byte
//
// All program names, modes and event names live in the string table and
// items reference them by index, so a batch of N profiles of the same
// program carries each string once. Path identifiers are delta-encoded:
// profile entries as signed deltas in stored order, CCT path-count sums
// as strictly-ascending gaps. Metric words stay uvarints.
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
// Classic profiles omit them and encode byte-identically to before; the
// decoder detects them by leftover payload bytes.
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
// across frames, so a steady-state batch ingest performs no allocation.

// FrameVersion is the wire version of batched frames.
const FrameVersion = 3

// KindBatch marks a batched multi-envelope frame.
const KindBatch Kind = 3

// Batch section IDs (disjoint from the v1/v2 envelope sections).
const (
	secBatchStrings = 7
	secBatchProfile = 8
	secBatchCCT     = 9
)

// maxBatchStrings bounds the string-table size a frame may declare.
const maxBatchStrings = 1 << 20

// IsFrame reports whether data begins like a version-3 batched frame.
// Collectors use it to route a request body between the streaming
// envelope decoder and the frame parser.
func IsFrame(data []byte) bool {
	return len(data) >= 6 && [4]byte(data[:4]) == magic &&
		data[4] == FrameVersion && Kind(data[5]) == KindBatch
}

// --- writer ---

// BatchWriter accumulates envelopes into one version-3 frame. The zero
// value is ready to use; Reset makes a writer reusable without
// reallocating its buffers.
type BatchWriter struct {
	strIdx map[string]uint64
	strs   []string
	strLen int    // total bytes of table strings
	items  []byte // encoded item sections, ready to splice into the frame
	nitems int
	tmp    []byte  // per-item payload scratch
	sums   []int64 // path-count sort scratch

	// AddExport's per-export scratch, cleared at the start of each call:
	// node ID -> preorder ID, and the backedges found in preorder.
	preID map[int]uint64
	backs []preBackedge
}

// preBackedge is one backedge between preorder node IDs.
type preBackedge struct{ from, to uint64 }

// NewBatchWriter returns an empty writer.
func NewBatchWriter() *BatchWriter { return &BatchWriter{} }

// Reset discards buffered items, keeping capacity.
func (w *BatchWriter) Reset() {
	for k := range w.strIdx {
		delete(w.strIdx, k)
	}
	w.strs = w.strs[:0]
	w.strLen = 0
	w.items = w.items[:0]
	w.nitems = 0
}

// Items returns the number of envelopes buffered so far.
func (w *BatchWriter) Items() int { return w.nitems }

// Len returns an upper bound on the assembled frame size in bytes.
func (w *BatchWriter) Len() int {
	// header + items + string table (count + per-string length prefix)
	// + end marker + trailer, with 10 bytes of varint slack per string.
	return 6 + len(w.items) + w.strLen + 10*len(w.strs) + 20
}

// intern returns s's string-table index, adding it on first use.
func (w *BatchWriter) intern(s string) uint64 {
	if w.strIdx == nil {
		w.strIdx = make(map[string]uint64)
	}
	if i, ok := w.strIdx[s]; ok {
		return i
	}
	i := uint64(len(w.strs))
	w.strIdx[s] = i
	w.strs = append(w.strs, s)
	w.strLen += len(s)
	return i
}

// section appends one item section to the buffered items.
func (w *BatchWriter) section(id byte, payload []byte) {
	w.items = append(w.items, id)
	w.items = binary.AppendUvarint(w.items, uint64(len(payload)))
	w.items = append(w.items, payload...)
	w.nitems++
}

// AddProfile appends p as one profile item.
func (w *BatchWriter) AddProfile(p *profile.Profile) error {
	b := w.tmp[:0]
	b = putUvarint(b, w.intern(p.Program))
	b = putUvarint(b, w.intern(p.Mode))
	b = putUvarint(b, uint64(len(p.Events)))
	for _, ev := range p.Events {
		b = putUvarint(b, w.intern(ev))
	}
	b = putUvarint(b, uint64(len(p.Procs)))
	for _, pp := range p.Procs {
		b = putVarint(b, int64(pp.ProcID))
		b = putUvarint(b, w.intern(pp.Name))
		b = putVarint(b, pp.NumPaths)
		b = putUvarint(b, uint64(len(pp.Entries)))
		prev := int64(0)
		for i := range pp.Entries {
			en := &pp.Entries[i]
			b = putVarint(b, en.Sum-prev)
			prev = en.Sum
			b = putUvarint(b, en.Freq)
			for k := range p.Events {
				b = putUvarint(b, en.Metric(k))
			}
		}
	}
	if p.K > 1 {
		b = putUvarint(b, uint64(p.K))
		for _, pp := range p.Procs {
			b = putUvarint(b, uint64(max(pp.K, 1)))
		}
	}
	w.tmp = b
	w.section(secBatchProfile, b)
	return nil
}

// AddExport appends ex as one CCT item. Nodes are renumbered into
// preorder so the frame never carries explicit node IDs.
func (w *BatchWriter) AddExport(ex *cct.Export) error {
	b := w.tmp[:0]
	b = putUvarint(b, w.intern(ex.Program))
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

	// Count nodes, then walk in preorder assigning implicit IDs. Backedge
	// targets are ancestors in well-formed trees, so they are always
	// numbered before the node that references them and resolve inline;
	// a backedge to anything else is dropped, exactly as cct.MergeExports
	// drops backedges it cannot resolve to an ancestor.
	var count func(n *cct.ExportedNode) int
	count = func(n *cct.ExportedNode) int {
		total := len(n.Children)
		for _, ch := range n.Children {
			total += count(ch)
		}
		return total
	}
	numNodes := count(ex.Root)
	b = putUvarint(b, uint64(numNodes))

	if w.preID == nil {
		w.preID = make(map[int]uint64, numNodes+1)
	}
	clear(w.preID)
	newID := w.preID
	newID[ex.Root.ID] = 0
	backedges := w.backs[:0]
	next := uint64(1)
	var rec func(n *cct.ExportedNode)
	rec = func(n *cct.ExportedNode) {
		if from := newID[n.ID]; from != 0 {
			for _, to := range n.Backedges {
				t, ok := newID[to]
				if !ok || t == 0 {
					continue
				}
				backedges = append(backedges, preBackedge{from: from, to: t})
			}
		}
		for _, ch := range n.Children {
			id := next
			next++
			newID[ch.ID] = id
			b = putUvarint(b, newID[n.ID])
			b = putVarint(b, int64(ch.Proc))
			b = putUvarint(b, uint64(len(ch.Metrics)))
			for _, m := range ch.Metrics {
				b = putVarint(b, m)
			}
			sums := w.sums[:0]
			ch.PathCounts.Range(func(s, _ int64) bool {
				sums = append(sums, s)
				return true
			})
			slices.Sort(sums)
			w.sums = sums
			b = putUvarint(b, uint64(len(sums)))
			prev := int64(0)
			for i, s := range sums {
				cnt, _ := ch.PathCounts.Get(s)
				if i == 0 {
					b = putVarint(b, s)
				} else {
					b = putUvarint(b, uint64(s-prev-1))
				}
				prev = s
				b = putVarint(b, cnt)
			}
			if ex.HasStructure {
				b = putUvarint(b, ch.Size)
				b = putUvarint(b, uint64(len(ch.Slots)))
				for _, sl := range ch.Slots {
					st := byte(0)
					if sl.Used {
						st |= 1
					}
					st |= sl.PathState << 1
					b = append(b, st)
					if sl.PathState == 1 {
						b = putVarint(b, sl.PathPrefix)
					}
				}
			}
			rec(ch)
		}
	}
	rec(ex.Root)
	b = putUvarint(b, uint64(len(backedges)))
	for _, be := range backedges {
		b = putUvarint(b, be.from)
		b = putUvarint(b, be.to)
	}
	w.tmp, w.backs = b, backedges
	w.section(secBatchCCT, b)
	return nil
}

// AppendFrame assembles the buffered items into one complete frame
// appended to dst and returns the extended slice.
func (w *BatchWriter) AppendFrame(dst []byte) []byte {
	start := len(dst)
	dst = append(dst, magic[0], magic[1], magic[2], magic[3], FrameVersion, byte(KindBatch))
	// String table section.
	tmp := w.tmp[:0]
	tmp = putUvarint(tmp, uint64(len(w.strs)))
	for _, s := range w.strs {
		tmp = putString(tmp, s)
	}
	w.tmp = tmp
	dst = append(dst, secBatchStrings)
	dst = binary.AppendUvarint(dst, uint64(len(tmp)))
	dst = append(dst, tmp...)
	dst = append(dst, w.items...)
	dst = append(dst, secEnd)
	sum := crc32.Checksum(dst[start:], crcTable)
	var tr [4]byte
	binary.LittleEndian.PutUint32(tr[:], sum)
	return append(dst, tr[:]...)
}

// Frame assembles and returns the encoded frame.
func (w *BatchWriter) Frame() []byte { return w.AppendFrame(nil) }

// --- reader ---

// frameItem records one item's kind and payload extent inside the frame
// buffer.
type frameItem struct {
	kind     Kind
	off, end int
}

// Frame is a parsed version-3 batched frame. It references the buffer
// passed to Reset — the caller must keep the buffer alive and unmodified
// while the frame is in use. A Frame is reusable: Reset clears and
// refills its internal tables without reallocating them in steady state.
type Frame struct {
	data  []byte
	strs  [][]byte
	items []frameItem
	cur   cursor // reused by parseStrings so Reset never allocates one
}

// ParseFrame parses data as one batched frame.
func ParseFrame(data []byte) (*Frame, error) {
	f := &Frame{}
	if err := f.Reset(data); err != nil {
		return nil, err
	}
	return f, nil
}

func frameErr(off int, format string, args ...interface{}) error {
	return fmt.Errorf("wire: frame offset %d: %s", off, fmt.Sprintf(format, args...))
}

// Reset re-points the frame at data, parsing the header, verifying the
// CRC-32C trailer, indexing the string table and locating every item.
func (f *Frame) Reset(data []byte) error {
	f.data = data
	f.strs = f.strs[:0]
	f.items = f.items[:0]
	if len(data) < 6+1+4 {
		return frameErr(0, "truncated frame (%d bytes)", len(data))
	}
	if [4]byte(data[:4]) != magic {
		return frameErr(0, "bad magic %q", data[:4])
	}
	if data[4] != FrameVersion {
		return frameErr(4, "unsupported frame version %d (want %d)", data[4], FrameVersion)
	}
	if Kind(data[5]) != KindBatch {
		return frameErr(5, "frame kind %d is not a batch", data[5])
	}
	body := data[:len(data)-4]
	want := binary.LittleEndian.Uint32(data[len(data)-4:])
	if got := crc32.Checksum(body, crcTable); got != want {
		return frameErr(len(body), "checksum mismatch: trailer %08x, computed %08x", want, got)
	}

	pos := 6
	sawStrings, sawEnd := false, false
	for pos < len(body) {
		id := body[pos]
		pos++
		if id == secEnd {
			sawEnd = true
			break
		}
		n, sz := binary.Uvarint(body[pos:])
		if sz <= 0 {
			return frameErr(pos, "bad section length")
		}
		pos += sz
		if n > maxSectionLen || n > uint64(len(body)-pos) {
			return frameErr(pos, "section %d length %d exceeds frame", id, n)
		}
		off, end := pos, pos+int(n)
		pos = end
		switch id {
		case secBatchStrings:
			if sawStrings {
				return frameErr(off, "duplicate string table section")
			}
			if len(f.items) > 0 {
				return frameErr(off, "string table after items")
			}
			sawStrings = true
			if err := f.parseStrings(body[off:end], off); err != nil {
				return err
			}
		case secBatchProfile:
			if !sawStrings {
				return frameErr(off, "profile item before string table")
			}
			f.items = append(f.items, frameItem{kind: KindProfile, off: off, end: end})
		case secBatchCCT:
			if !sawStrings {
				return frameErr(off, "cct item before string table")
			}
			f.items = append(f.items, frameItem{kind: KindCCT, off: off, end: end})
		default:
			return frameErr(off, "unexpected section %d in batch frame", id)
		}
	}
	if !sawEnd {
		return frameErr(pos, "frame has no end marker")
	}
	if pos != len(body) {
		return frameErr(pos, "%d trailing bytes after end marker", len(body)-pos)
	}
	if !sawStrings {
		return frameErr(6, "frame has no string table")
	}
	return nil
}

func (f *Frame) parseStrings(payload []byte, base int) error {
	c := &f.cur
	*c = cursor{b: payload}
	n, err := c.count(1)
	if err != nil {
		return frameErr(base, "string table: %v", err)
	}
	if n > maxBatchStrings {
		return frameErr(base, "string table declares %d entries", n)
	}
	for i := 0; i < n; i++ {
		l, err := c.uvarint()
		if err != nil {
			return frameErr(base+c.pos, "string table: %v", err)
		}
		if l > uint64(c.remaining()) {
			return frameErr(base+c.pos, "string %d length %d exceeds section", i, l)
		}
		f.strs = append(f.strs, payload[c.pos:c.pos+int(l)])
		c.pos += int(l)
	}
	if err := c.done(); err != nil {
		return frameErr(base+c.pos, "string table: %v", err)
	}
	return nil
}

// growCols extends *col by n elements, growing its backing array at most
// once, and returns the new tail for the caller to fill.
func growCols[E any](col *[]E, n int) []E {
	off := len(*col)
	*col = slices.Grow(*col, n)[:off+n]
	return (*col)[off:]
}

// Items returns the number of envelopes in the frame.
func (f *Frame) Items() int { return len(f.items) }

// Kind returns item i's payload kind (KindProfile or KindCCT).
func (f *Frame) Kind(i int) Kind { return f.items[i].kind }

// str resolves a string-table index, or errors.
func (f *Frame) str(idx uint64) ([]byte, error) {
	if idx >= uint64(len(f.strs)) {
		return nil, fmt.Errorf("string index %d out of table (size %d)", idx, len(f.strs))
	}
	return f.strs[idx], nil
}

// BatchProfile is the scratch target of a profile-item decode. All
// fields reference either the frame buffer (the byte slices) or the
// struct's own backing arrays, which are reused across decodes.
type BatchProfile struct {
	Program []byte
	Mode    []byte
	Events  [][]byte
	K       int // iteration degree; 0 or 1 means classic
	Procs   []BatchProc

	// Per-entry columns: entry j of proc p lives at index Procs[p].Off+j;
	// its metrics occupy Metrics[(Off+j)*len(Events) : ...+len(Events)].
	Sums    []int64
	Freqs   []uint64
	Metrics []uint64

	cur cursor // reused across decodes so DecodeProfile never allocates one
}

// BatchProc is one procedure's slice of a decoded profile item.
type BatchProc struct {
	ProcID   int
	Name     []byte
	NumPaths int64
	K        int // effective degree; 0 in classic profiles
	Off, N   int
}

// EntryMetrics returns the metric words of entry j (absolute index into
// the item's entry columns).
func (bp *BatchProfile) EntryMetrics(j int) []uint64 {
	w := len(bp.Events)
	return bp.Metrics[j*w : (j+1)*w : (j+1)*w]
}

// DecodeProfile parses item i (which must be a profile item) into s.
func (f *Frame) DecodeProfile(i int, s *BatchProfile) error {
	it := f.items[i]
	if it.kind != KindProfile {
		return errKind(KindProfile, it.kind)
	}
	s.Events = s.Events[:0]
	s.K = 0
	s.Procs = s.Procs[:0]
	s.Sums = s.Sums[:0]
	s.Freqs = s.Freqs[:0]
	s.Metrics = s.Metrics[:0]
	c := &s.cur
	*c = cursor{b: f.data[it.off:it.end]}
	fail := func(err error) error {
		return frameErr(it.off+c.pos, "profile item: %v", err)
	}
	idx, err := c.uvarint()
	if err != nil {
		return fail(err)
	}
	if s.Program, err = f.str(idx); err != nil {
		return fail(err)
	}
	if idx, err = c.uvarint(); err != nil {
		return fail(err)
	}
	if s.Mode, err = f.str(idx); err != nil {
		return fail(err)
	}
	nEvents, err := c.count(1)
	if err != nil {
		return fail(err)
	}
	if nEvents > maxWireEvents {
		return fail(fmt.Errorf("%d events exceeds limit", nEvents))
	}
	for k := 0; k < nEvents; k++ {
		if idx, err = c.uvarint(); err != nil {
			return fail(err)
		}
		ev, err := f.str(idx)
		if err != nil {
			return fail(err)
		}
		s.Events = append(s.Events, ev)
	}
	nProcs, err := c.count(4)
	if err != nil {
		return fail(err)
	}
	s.Procs = slices.Grow(s.Procs, nProcs)
	for p := 0; p < nProcs; p++ {
		var pr BatchProc
		id, err := c.varint()
		if err != nil {
			return fail(err)
		}
		pr.ProcID = int(id)
		if idx, err = c.uvarint(); err != nil {
			return fail(err)
		}
		if pr.Name, err = f.str(idx); err != nil {
			return fail(err)
		}
		if pr.NumPaths, err = c.varint(); err != nil {
			return fail(err)
		}
		n, err := c.count(2 + nEvents)
		if err != nil {
			return fail(err)
		}
		pr.Off, pr.N = len(s.Sums), n
		// The entry loop reads the slice inline, each varint behind a
		// one-byte fast path (a helper holding both would be too large
		// to inline). n is already bounded by the bytes left, so each
		// column grows once, to a size the payload can fill.
		sums := growCols(&s.Sums, n)
		freqs := growCols(&s.Freqs, n)
		mets := growCols(&s.Metrics, n*nEvents)
		b, pos := c.b, c.pos
		prev := int64(0)
		for j := range sums {
			var d, fr uint64
			if pos < len(b) && b[pos] < 0x80 {
				d = uint64(b[pos])
				pos++
			} else {
				var k int
				if d, k = binary.Uvarint(b[pos:]); k <= 0 {
					return fail(c.failVarint(pos))
				}
				pos += k
			}
			prev += unzigzag(d)
			sums[j] = prev
			if pos < len(b) && b[pos] < 0x80 {
				fr = uint64(b[pos])
				pos++
			} else {
				var k int
				if fr, k = binary.Uvarint(b[pos:]); k <= 0 {
					return fail(c.failVarint(pos))
				}
				pos += k
			}
			freqs[j] = fr
			m := mets[j*nEvents : (j+1)*nEvents]
			for e := range m {
				if pos < len(b) && b[pos] < 0x80 {
					m[e] = uint64(b[pos])
					pos++
				} else {
					var k int
					if m[e], k = binary.Uvarint(b[pos:]); k <= 0 {
						return fail(c.failVarint(pos))
					}
					pos += k
				}
			}
		}
		c.pos = pos
		s.Procs = append(s.Procs, pr)
	}
	if c.remaining() > 0 {
		// Trailing k-iteration degrees (k>1 profiles only).
		k, err := c.uvarint()
		if err != nil {
			return fail(err)
		}
		if k < 2 || k > maxWireK {
			return fail(fmt.Errorf("bad iteration degree %d", k))
		}
		s.K = int(k)
		for p := range s.Procs {
			pk, err := c.uvarint()
			if err != nil {
				return fail(err)
			}
			if pk < 1 || pk > k {
				return fail(fmt.Errorf("proc %d: effective degree %d outside [1,%d]", p, pk, k))
			}
			s.Procs[p].K = int(pk)
		}
	}
	if err := c.done(); err != nil {
		return fail(err)
	}
	return nil
}

// BatchCCT is the scratch target of a CCT-item decode. Node i of Nodes
// has implicit ID i+1; ID 0 is the synthetic root.
type BatchCCT struct {
	Program          []byte
	NumProcs         int
	DistinguishSites bool
	NumMetrics       int
	HasStructure     bool
	SizeBytes        uint64
	ListElems        int

	Nodes     []BatchNode
	Metrics   []int64
	PCSums    []int64
	PCCounts  []int64
	Slots     []cct.SlotStat
	Backedges []BatchBackedge

	// Children adjacency: node id p (0-based including the root) has
	// children ChildIDs[ChildOff[p]:ChildOff[p+1]], in sibling order.
	ChildOff []int32
	ChildIDs []int32

	cur cursor // reused across decodes so DecodeCCT never allocates one
}

// BatchNode is one decoded CCT record; offsets index the owning
// BatchCCT's column arrays.
type BatchNode struct {
	Parent         int32 // node ID of the parent (0 = root)
	Proc           int32
	MetOff, MetN   int32
	PCOff, PCN     int32
	SlotOff, SlotN int32
	Size           uint64
}

// BatchBackedge is one recursion edge between node IDs.
type BatchBackedge struct{ From, To int32 }

// Children returns the child IDs of node id (0 = root).
func (bc *BatchCCT) Children(id int32) []int32 {
	return bc.ChildIDs[bc.ChildOff[id]:bc.ChildOff[id+1]]
}

// DecodeCCT parses item i (which must be a CCT item) into s.
func (f *Frame) DecodeCCT(i int, s *BatchCCT) error {
	it := f.items[i]
	if it.kind != KindCCT {
		return errKind(KindCCT, it.kind)
	}
	s.Nodes = s.Nodes[:0]
	s.Metrics = s.Metrics[:0]
	s.PCSums = s.PCSums[:0]
	s.PCCounts = s.PCCounts[:0]
	s.Slots = s.Slots[:0]
	s.Backedges = s.Backedges[:0]
	c := &s.cur
	*c = cursor{b: f.data[it.off:it.end]}
	fail := func(err error) error {
		return frameErr(it.off+c.pos, "cct item: %v", err)
	}
	idx, err := c.uvarint()
	if err != nil {
		return fail(err)
	}
	if s.Program, err = f.str(idx); err != nil {
		return fail(err)
	}
	np, err := c.uvarint()
	if err != nil {
		return fail(err)
	}
	if np > maxWireProcs {
		return fail(fmt.Errorf("%d procs exceeds limit", np))
	}
	s.NumProcs = int(np)
	if s.DistinguishSites, err = c.bool(); err != nil {
		return fail(err)
	}
	nm, err := c.uvarint()
	if err != nil {
		return fail(err)
	}
	if nm > maxWireEvents {
		return fail(fmt.Errorf("%d metrics exceeds limit", nm))
	}
	s.NumMetrics = int(nm)
	flags, err := c.ReadByte()
	if err != nil {
		return fail(fmt.Errorf("truncated flags"))
	}
	s.HasStructure = flags&flagStructure != 0
	s.SizeBytes, s.ListElems = 0, 0
	if s.HasStructure {
		if s.SizeBytes, err = c.uvarint(); err != nil {
			return fail(err)
		}
		le, err := c.uvarint()
		if err != nil {
			return fail(err)
		}
		s.ListElems = int(le)
	}
	numNodes, err := c.count(4)
	if err != nil {
		return fail(err)
	}
	s.Nodes = slices.Grow(s.Nodes, numNodes)
	for id := 1; id <= numNodes; id++ {
		var n BatchNode
		parent, err := c.uvarint()
		if err != nil {
			return fail(err)
		}
		if parent >= uint64(id) {
			return fail(fmt.Errorf("node %d: parent %d is not an earlier node", id, parent))
		}
		n.Parent = int32(parent)
		proc, err := c.varint()
		if err != nil {
			return fail(err)
		}
		// Checked before narrowing, so no int64 proc aliases a valid
		// int32 one, and checked here rather than in the fold, so no item
		// with a bad proc folds partway before it is rejected.
		if proc < 0 || proc >= int64(s.NumProcs) {
			return fail(fmt.Errorf("node %d: proc %d out of range (program has %d procs)", id, proc, s.NumProcs))
		}
		n.Proc = int32(proc)

		// The metric, path-count and slot loops read the slice inline,
		// the path-count loop with DecodeProfile's one-byte fast paths;
		// each column grows once per node, by a count already bounded by
		// the bytes left.
		nMet, err := c.count(1)
		if err != nil {
			return fail(err)
		}
		if nMet > maxWireEvents {
			return fail(fmt.Errorf("node %d: %d metrics exceeds limit", id, nMet))
		}
		n.MetOff, n.MetN = int32(len(s.Metrics)), int32(nMet)
		b, pos := c.b, c.pos
		mets := growCols(&s.Metrics, nMet)
		for k := range mets {
			m, w := binary.Uvarint(b[pos:])
			if w <= 0 {
				return fail(c.failVarint(pos))
			}
			pos += w
			mets[k] = unzigzag(m)
		}
		c.pos = pos

		nPC, err := c.count(2)
		if err != nil {
			return fail(err)
		}
		n.PCOff, n.PCN = int32(len(s.PCSums)), int32(nPC)
		pos = c.pos
		sums := growCols(&s.PCSums, nPC)
		cnts := growCols(&s.PCCounts, nPC)
		prev := int64(0)
		for k := range sums {
			var u, v uint64
			if pos < len(b) && b[pos] < 0x80 {
				u = uint64(b[pos])
				pos++
			} else {
				var w int
				if u, w = binary.Uvarint(b[pos:]); w <= 0 {
					return fail(c.failVarint(pos))
				}
				pos += w
			}
			sum := unzigzag(u)
			if k > 0 {
				sum = prev + int64(u) + 1
				if sum <= prev {
					c.pos = pos
					return fail(fmt.Errorf("node %d: path-count sum overflow", id))
				}
			}
			prev = sum
			if pos < len(b) && b[pos] < 0x80 {
				v = uint64(b[pos])
				pos++
			} else {
				var w int
				if v, w = binary.Uvarint(b[pos:]); w <= 0 {
					return fail(c.failVarint(pos))
				}
				pos += w
			}
			sums[k], cnts[k] = sum, unzigzag(v)
		}
		c.pos = pos

		if s.HasStructure {
			if n.Size, err = c.uvarint(); err != nil {
				return fail(err)
			}
			nSlots, err := c.count(1)
			if err != nil {
				return fail(err)
			}
			n.SlotOff, n.SlotN = int32(len(s.Slots)), int32(nSlots)
			pos = c.pos
			slots := growCols(&s.Slots, nSlots)
			for k := range slots {
				if pos >= len(b) {
					c.pos = pos
					return fail(fmt.Errorf("truncated slot"))
				}
				st := b[pos]
				pos++
				sl := cct.SlotStat{Used: st&1 != 0, PathState: st >> 1}
				if sl.PathState > 2 {
					c.pos = pos
					return fail(fmt.Errorf("node %d: bad slot state %d", id, st>>1))
				}
				if sl.PathState == 1 {
					u, w := binary.Uvarint(b[pos:])
					if w <= 0 {
						return fail(c.failVarint(pos))
					}
					pos += w
					sl.PathPrefix = unzigzag(u)
				}
				slots[k] = sl
			}
			c.pos = pos
		}
		s.Nodes = append(s.Nodes, n)
	}
	nBE, err := c.count(2)
	if err != nil {
		return fail(err)
	}
	for k := 0; k < nBE; k++ {
		from, err := c.uvarint()
		if err != nil {
			return fail(err)
		}
		to, err := c.uvarint()
		if err != nil {
			return fail(err)
		}
		if from == 0 || from > uint64(numNodes) || to == 0 || to > uint64(numNodes) {
			return fail(fmt.Errorf("backedge %d-%d out of node range", from, to))
		}
		s.Backedges = append(s.Backedges, BatchBackedge{From: int32(from), To: int32(to)})
	}
	if err := c.done(); err != nil {
		return fail(err)
	}
	s.IndexChildren()
	return nil
}

// IndexChildren rebuilds the children adjacency from Nodes (a counting
// sort by parent, which preserves sibling order because nodes are in
// preorder). Callers that fill a BatchCCT by hand must call it before
// Children.
func (s *BatchCCT) IndexChildren() {
	numNodes := len(s.Nodes)
	s.ChildOff = s.ChildOff[:0]
	s.ChildIDs = s.ChildIDs[:0]
	for i := 0; i <= numNodes+1; i++ {
		s.ChildOff = append(s.ChildOff, 0)
	}
	for _, n := range s.Nodes {
		s.ChildOff[n.Parent+1]++
	}
	for i := 1; i <= numNodes+1; i++ {
		s.ChildOff[i] += s.ChildOff[i-1]
	}
	for i := 0; i < numNodes; i++ {
		s.ChildIDs = append(s.ChildIDs, 0)
	}
	// Second pass tracks per-parent fill cursors in ChildOff itself; after
	// the pass each ChildOff[p] holds the end of p's range, so one shift
	// restores the starts without a scratch copy.
	for id := int32(1); id <= int32(numNodes); id++ {
		p := s.Nodes[id-1].Parent
		s.ChildIDs[s.ChildOff[p]] = id
		s.ChildOff[p]++
	}
	// ChildOff[p] now holds the END of p's range; shift back to starts.
	for p := numNodes; p > 0; p-- {
		s.ChildOff[p] = s.ChildOff[p-1]
	}
	s.ChildOff[0] = 0
}

// ProfileAt materializes item i as a profile.Profile (the convenience
// path used by tests and offline tooling; the collector hot path folds
// the scratch form directly into its aggregates instead).
func (f *Frame) ProfileAt(i int) (*profile.Profile, error) {
	var s BatchProfile
	if err := f.DecodeProfile(i, &s); err != nil {
		return nil, err
	}
	p := &profile.Profile{Program: string(s.Program), Mode: string(s.Mode), K: s.K}
	if len(s.Events) > 0 {
		p.Events = make([]string, len(s.Events))
		for k, ev := range s.Events {
			p.Events[k] = string(ev)
		}
	}
	p.Procs = make([]*profile.ProcPaths, len(s.Procs))
	for pi := range s.Procs {
		pr := &s.Procs[pi]
		pp := &profile.ProcPaths{ProcID: pr.ProcID, Name: string(pr.Name), NumPaths: pr.NumPaths, K: pr.K}
		pp.Entries = make([]profile.PathEntry, pr.N)
		for j := 0; j < pr.N; j++ {
			e := &pp.Entries[j]
			e.Sum = s.Sums[pr.Off+j]
			e.Freq = s.Freqs[pr.Off+j]
			if len(s.Events) > 0 {
				e.Metrics = pp.NewMetrics(len(s.Events))
				copy(e.Metrics, s.EntryMetrics(pr.Off+j))
			}
		}
		p.Procs[pi] = pp
	}
	return p, nil
}

// ExportAt materializes item i as a cct.Export.
func (f *Frame) ExportAt(i int) (*cct.Export, error) {
	var s BatchCCT
	if err := f.DecodeCCT(i, &s); err != nil {
		return nil, err
	}
	return s.Export()
}

// Export converts decoded scratch into a cct.Export.
func (s *BatchCCT) Export() (*cct.Export, error) {
	ex := &cct.Export{
		NumProcs:         s.NumProcs,
		DistinguishSites: s.DistinguishSites,
		NumMetrics:       s.NumMetrics,
		Program:          string(s.Program),
		HasStructure:     s.HasStructure,
		SizeBytes:        s.SizeBytes,
		ListElems:        s.ListElems,
	}
	nodes := make([]*cct.ExportedNode, len(s.Nodes)+1)
	root := &cct.ExportedNode{ID: 0, Proc: -1, PathCounts: flat.New(0)}
	nodes[0] = root
	ex.Root = root
	ex.Nodes = make(map[int]*cct.ExportedNode, len(nodes))
	ex.Nodes[0] = root
	for i := range s.Nodes {
		bn := &s.Nodes[i]
		id := i + 1
		n := &cct.ExportedNode{ID: id, ParentID: int(bn.Parent), Proc: int(bn.Proc)}
		if bn.MetN > 0 {
			n.Metrics = append([]int64(nil), s.Metrics[bn.MetOff:bn.MetOff+bn.MetN]...)
		}
		n.PathCounts = flat.New(int(bn.PCN))
		for k := int32(0); k < bn.PCN; k++ {
			n.PathCounts.Set(s.PCSums[bn.PCOff+k], s.PCCounts[bn.PCOff+k])
		}
		if s.HasStructure {
			n.Size = bn.Size
			n.Slots = append([]cct.SlotStat(nil), s.Slots[bn.SlotOff:bn.SlotOff+bn.SlotN]...)
		}
		parent := nodes[bn.Parent]
		parent.Children = append(parent.Children, n)
		nodes[id] = n
		ex.Nodes[id] = n
	}
	for _, be := range s.Backedges {
		nodes[be.From].Backedges = append(nodes[be.From].Backedges, int(be.To))
	}
	return ex, nil
}
