// Package cache simulates set-associative caches with LRU replacement. The
// default configurations mirror the UltraSPARC-I caches the paper measured:
// a 16 KB direct-mapped L1 data cache with 32-byte lines and a 16 KB 2-way
// L1 instruction cache.
package cache

import "fmt"

// Config describes a cache geometry.
type Config struct {
	Name      string
	SizeBytes int
	LineBytes int
	Assoc     int // 1 = direct mapped
}

// UltraSPARC-like default geometries (Section 6.4.1 of the paper describes
// the L1 data cache as "an on-chip 16 Kb, direct mapped cache").
var (
	DefaultL1D = Config{Name: "L1D", SizeBytes: 16 << 10, LineBytes: 32, Assoc: 1}
	DefaultL1I = Config{Name: "L1I", SizeBytes: 16 << 10, LineBytes: 32, Assoc: 2}
	// DefaultL2 approximates the UltraSPARC's external unified E-cache; the
	// simulator leaves it disabled unless explicitly configured.
	DefaultL2 = Config{Name: "L2", SizeBytes: 512 << 10, LineBytes: 64, Assoc: 1}
)

// Stats accumulates access counts.
type Stats struct {
	ReadHits    uint64
	ReadMisses  uint64
	WriteHits   uint64
	WriteMisses uint64
}

// Reads returns total read accesses.
func (s Stats) Reads() uint64 { return s.ReadHits + s.ReadMisses }

// Writes returns total write accesses.
func (s Stats) Writes() uint64 { return s.WriteHits + s.WriteMisses }

// Misses returns total misses.
func (s Stats) Misses() uint64 { return s.ReadMisses + s.WriteMisses }

// Accesses returns total accesses.
func (s Stats) Accesses() uint64 { return s.Reads() + s.Writes() }

// MissRatio returns misses/accesses (0 when idle).
func (s Stats) MissRatio() float64 {
	a := s.Accesses()
	if a == 0 {
		return 0
	}
	return float64(s.Misses()) / float64(a)
}

// Cache is a set-associative cache with true-LRU replacement and
// write-allocate semantics. It tracks only tags (contents are irrelevant to
// miss behaviour).
//
// Each set is a run of assoc words in one flat array (sets start at a
// power-of-two stride, so finding one is a shift), kept in recency order:
// way 0 holds the most recently used line, the last way the least
// recently used one. A word holds its line number plus one, so tag and
// valid bit are one compare and 0 marks an empty way. Because a miss
// evicts the last way and a fill goes to the front, empty ways always sit
// at the back of their set, and evicting the last way is the same as
// taking the first invalid way, else the least recently used one. The
// order alone decides every victim, so the model needs no recency stamps.
type Cache struct {
	cfg      Config
	assoc    int
	lineBits uint
	setMask  uint64
	setShift uint     // a set's ways start at set<<setShift
	keys     []uint64 // line+1, or 0 for an empty way
	stats    Stats
}

// New builds a cache from cfg. It panics on a non-power-of-two geometry or
// on lines narrower than one 8-byte word, which are configuration errors.
func New(cfg Config) *Cache {
	if cfg.Assoc <= 0 || cfg.LineBytes < 8 || cfg.SizeBytes <= 0 {
		panic(fmt.Sprintf("cache %s: invalid config %+v", cfg.Name, cfg))
	}
	lines := cfg.SizeBytes / cfg.LineBytes
	sets := lines / cfg.Assoc
	if sets <= 0 || sets&(sets-1) != 0 || cfg.LineBytes&(cfg.LineBytes-1) != 0 {
		panic(fmt.Sprintf("cache %s: geometry must be power of two (sets=%d lines=%d)", cfg.Name, sets, lines))
	}
	lineBits := uint(0)
	for 1<<lineBits != cfg.LineBytes {
		lineBits++
	}
	setShift := uint(0)
	for 1<<setShift < cfg.Assoc {
		setShift++
	}
	return &Cache{
		cfg:      cfg,
		assoc:    cfg.Assoc,
		lineBits: lineBits,
		setMask:  uint64(sets - 1),
		setShift: setShift,
		keys:     make([]uint64, sets<<setShift),
	}
}

// Config returns the cache's geometry.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns the accumulated access statistics.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats zeroes the statistics without disturbing cache contents.
func (c *Cache) ResetStats() { c.stats = Stats{} }

// Flush invalidates all lines and clears statistics.
func (c *Cache) Flush() {
	clear(c.keys)
	c.stats = Stats{}
}

// Access simulates one access; write=true for stores. It returns true on a
// hit. Misses allocate the line (write-allocate for stores).
func (c *Cache) Access(addr uint64, write bool) bool {
	if write {
		return c.Write(addr)
	}
	return c.Read(addr)
}

// Read is Access(addr, false).
func (c *Cache) Read(addr uint64) bool {
	return c.TryRead(addr) || c.slow(addr>>c.lineBits, false)
}

// Write is Access(addr, true).
func (c *Cache) Write(addr uint64) bool {
	return c.TryWrite(addr) || c.slow(addr>>c.lineBits, true)
}

// TryRead is the inline hit path of Read: when addr's line is the most
// recently used line of its set, the read hits and changes no order, so
// TryRead counts the hit and returns true. Otherwise it counts nothing and
// returns false, and the caller completes the access with Read.
func (c *Cache) TryRead(addr uint64) bool {
	line := addr >> c.lineBits
	if c.keys[int(line&c.setMask)<<c.setShift] != line+1 {
		return false
	}
	c.stats.ReadHits++
	return true
}

// TryWrite is the inline hit path of Write, as TryRead is of Read.
func (c *Cache) TryWrite(addr uint64) bool {
	line := addr >> c.lineBits
	if c.keys[int(line&c.setMask)<<c.setShift] != line+1 {
		return false
	}
	c.stats.WriteHits++
	return true
}

// CountReadHits counts n read hits that changed no cache state: repeated
// reads of the line the cache read last, which is resident and most
// recently used in its set. The simulator fetches through the cache only
// at the first instruction of each line and counts the rest with this.
func (c *Cache) CountReadHits(n uint64) { c.stats.ReadHits += n }

// slow completes an access that TryRead or TryWrite turned down: it moves
// line to the front of its set, shifting the more recent ways back one
// place (a miss shifts the last way out), counts the access and reports
// whether it hit.
//
//go:noinline
func (c *Cache) slow(line uint64, write bool) bool {
	base := int(line&c.setMask) << c.setShift
	ways := c.keys[base : base+c.assoc]
	key := line + 1
	j := len(ways) - 1
	hit := false
	for w := 1; w < len(ways); w++ {
		if ways[w] == key {
			j, hit = w, true
			break
		}
	}
	copy(ways[1:j+1], ways[:j])
	ways[0] = key
	switch {
	case hit && write:
		c.stats.WriteHits++
	case hit:
		c.stats.ReadHits++
	case write:
		c.stats.WriteMisses++
	default:
		c.stats.ReadMisses++
	}
	return hit
}

// Contains reports whether addr's line is currently cached (no statistics
// side effects); used by tests.
func (c *Cache) Contains(addr uint64) bool {
	line := addr >> c.lineBits
	base := int(line&c.setMask) << c.setShift
	for _, k := range c.keys[base : base+c.assoc] {
		if k == line+1 {
			return true
		}
	}
	return false
}
