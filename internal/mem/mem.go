// Package mem provides the simulated flat address space that programs,
// instrumentation data (path counter arrays, metric accumulators) and the
// CCT heap live in. Keeping all profiling state in simulated memory is what
// lets instrumentation genuinely perturb the simulated caches, reproducing
// the perturbation phenomenon of Table 2 of the paper.
package mem

import (
	"fmt"
	"slices"
)

// Standard region bases. The layout mirrors a conventional process image:
// globals low, a downward-growing stack, then separate regions for
// instrumentation counters and the CCT heap (the paper memory-maps the CCT
// heap into its own demand-paged region).
const (
	GlobalBase  uint64 = 0x0001_0000
	StackTop    uint64 = 0x0800_0000 // stack grows down from here
	CounterBase uint64 = 0x4000_0000 // path counter arrays and accumulators
	CCTBase     uint64 = 0x8000_0000 // calling-context-tree heap
	TextBase    uint64 = 0x1000_0000 // instruction addresses (I-cache only)
)

const (
	pageWordShift = 9 // 512 words = 4 KiB pages
	pageWords     = 1 << pageWordShift
	wordShift     = 3 // 8-byte words
	pageShift     = pageWordShift + wordShift
)

type page [pageWords]int64

// recentBits sizes the direct-mapped cache of page pointers that sits in
// front of the page map: 1<<recentBits slots.
const recentBits = 6

// recentPage is one slot of that cache; p is nil in an empty slot.
type recentPage struct {
	pn uint64
	p  *page
}

// Memory is a sparse 64-bit word-addressable address space. All accesses
// are 8-byte words at 8-byte-aligned byte addresses; unaligned access
// panics, since it indicates a program or instrumentation bug.
type Memory struct {
	pages map[uint64]*page

	// recent caches page pointers by page number, so most accesses skip
	// hashing into pages. Pages are never freed, so a cached pointer
	// stays valid for the life of the Memory.
	recent [1 << recentBits]recentPage

	// lastPN and lastP hold the page the latest access found, for the
	// same reason. lastPN starts at noPage, which no address maps to, so
	// lastP is only read once it is set.
	lastPN uint64
	lastP  *page
}

// noPage is never a page number: addresses are 64 bits wide, so a page
// number is below 1<<52.
const noPage = ^uint64(0)

// New returns an empty address space.
func New() *Memory {
	return &Memory{pages: make(map[uint64]*page), lastPN: noPage}
}

// checkAligned panics on an address that is not 8-byte aligned.
func checkAligned(addr uint64) {
	if addr&7 != 0 {
		unaligned(addr)
	}
}

//go:noinline
func unaligned(addr uint64) {
	panic(fmt.Sprintf("mem: unaligned access at %#x", addr))
}

// slot returns pn's entry in recent. The multiplicative hash spreads the
// regions' base pages, which share their low bits, over the slots.
func (m *Memory) slot(pn uint64) *recentPage {
	return &m.recent[(pn*0x9E3779B97F4A7C15)>>(64-recentBits)]
}

// lookup returns page pn, or nil when it was never written.
func (m *Memory) lookup(pn uint64) *page {
	s := m.slot(pn)
	if s.pn == pn && s.p != nil {
		return s.p
	}
	p := m.pages[pn]
	if p != nil {
		*s = recentPage{pn, p}
	}
	return p
}

// Load reads the 64-bit word at addr (0 if never written).
func (m *Memory) Load(addr uint64) int64 {
	checkAligned(addr)
	return m.LoadAligned(addr)
}

// Store writes the 64-bit word at addr.
func (m *Memory) Store(addr uint64, v int64) {
	checkAligned(addr)
	m.StoreAligned(addr, v)
}

// LoadAligned is Load for an address the caller has already checked is
// 8-byte aligned, as the simulator does before every load. An access to
// the page the latest access found skips the page lookup.
func (m *Memory) LoadAligned(addr uint64) int64 {
	if addr>>pageShift == m.lastPN {
		return m.lastP[addr>>wordShift&(pageWords-1)]
	}
	return m.loadPage(addr)
}

// StoreAligned is Store for an address the caller has already checked is
// 8-byte aligned, with LoadAligned's page memo.
func (m *Memory) StoreAligned(addr uint64, v int64) {
	if addr>>pageShift == m.lastPN {
		m.lastP[addr>>wordShift&(pageWords-1)] = v
		return
	}
	m.storePage(addr, v)
}

// loadPage reads the word at addr through the page lookup.
func (m *Memory) loadPage(addr uint64) int64 {
	pn := addr >> pageShift
	p := m.lookup(pn)
	if p == nil {
		return 0
	}
	m.lastPN, m.lastP = pn, p
	return p[addr>>wordShift&(pageWords-1)]
}

// storePage writes the word at addr through the page lookup, creating its
// page on the first write.
func (m *Memory) storePage(addr uint64, v int64) {
	pn := addr >> pageShift
	p := m.lookup(pn)
	if p == nil {
		p = new(page)
		m.pages[pn] = p
		*m.slot(pn) = recentPage{pn, p}
	}
	m.lastPN, m.lastP = pn, p
	p[addr>>wordShift&(pageWords-1)] = v
}

// Add adds delta to the word at addr and returns the new value; a common
// operation for counters.
func (m *Memory) Add(addr uint64, delta int64) int64 {
	v := m.Load(addr) + delta
	m.Store(addr, v)
	return v
}

// FootprintBytes reports the bytes of simulated memory backed by pages.
func (m *Memory) FootprintBytes() uint64 {
	return uint64(len(m.pages)) * pageWords * 8
}

// CopyRegion bulk-copies words (used to initialize the global segment).
func (m *Memory) CopyRegion(base uint64, words []int64) {
	for i, w := range words {
		m.Store(base+uint64(i)*8, w)
	}
}

// ReadRegion reads n words starting at base.
func (m *Memory) ReadRegion(base uint64, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = m.Load(base + uint64(i)*8)
	}
	return out
}

// Equal reports whether two address spaces hold identical contents: every
// word present in either must match the other, with absent pages reading as
// zero. Differential semantic-preservation tests compare the final memory
// images of original and rewritten programs with this.
func Equal(a, b *Memory) bool {
	check := func(x, y *Memory) bool {
		var zero page
		for pn, px := range x.pages {
			py := y.pages[pn]
			if py == nil {
				py = &zero
			}
			if *px != *py {
				return false
			}
		}
		return true
	}
	return check(a, b) && check(b, a)
}

// DiffWord returns the byte address and both values of the first differing
// word between two address spaces (scanning pages in ascending order), or
// ok=false when they are equal. Harnesses use it to report where a rewritten
// program's memory image diverged.
func DiffWord(a, b *Memory) (addr uint64, av, bv int64, ok bool) {
	seen := make(map[uint64]bool, len(a.pages)+len(b.pages))
	var pns []uint64
	for pn := range a.pages {
		seen[pn] = true
		pns = append(pns, pn)
	}
	for pn := range b.pages {
		if !seen[pn] {
			pns = append(pns, pn)
		}
	}
	slices.Sort(pns)
	var zero page
	for _, pn := range pns {
		pa, pb := a.pages[pn], b.pages[pn]
		if pa == nil {
			pa = &zero
		}
		if pb == nil {
			pb = &zero
		}
		for i := 0; i < pageWords; i++ {
			if pa[i] != pb[i] {
				byteAddr := ((pn << pageWordShift) + uint64(i)) << wordShift
				return byteAddr, pa[i], pb[i], true
			}
		}
	}
	return 0, 0, 0, false
}

// Allocator hands out non-overlapping address ranges within a region.
type Allocator struct {
	next  uint64
	limit uint64
}

// NewAllocator returns an allocator over [base, base+size).
func NewAllocator(base, size uint64) *Allocator {
	return &Allocator{next: base, limit: base + size}
}

// Alloc reserves n bytes aligned to align (a power of two, at least 8) and
// returns the base address. It panics when the region is exhausted, which
// indicates a configuration error rather than a runtime condition.
func (a *Allocator) Alloc(n, align uint64) uint64 {
	if align < 8 {
		align = 8
	}
	if align&(align-1) != 0 {
		panic(fmt.Sprintf("mem: alignment %d is not a power of two", align))
	}
	base := (a.next + align - 1) &^ (align - 1)
	if base+n > a.limit || base+n < base {
		panic(fmt.Sprintf("mem: region exhausted (want %d bytes at %#x, limit %#x)", n, base, a.limit))
	}
	a.next = base + n
	return base
}

// Used reports how many bytes have been allocated (including alignment
// padding).
func (a *Allocator) Used(base uint64) uint64 { return a.next - base }

// Clone returns an independent allocator that continues from the same
// position. Callers that need identical address sequences from a shared
// starting point (e.g. wiring one instrumentation plan onto several
// machines) clone the allocator instead of mutating the shared one.
func (a *Allocator) Clone() *Allocator {
	c := *a
	return &c
}
