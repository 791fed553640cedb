package hpm

import (
	"math/bits"
	"math/rand"
	"slices"
	"testing"
)

// eagerUnit is the reference model for Unit: every occurrence of every
// event, instructions and cycles included, reaches the selected PICs the
// moment it is counted.
type eagerUnit struct {
	pic     []uint32
	sel     []Event
	picMask [NumEvents]uint32
	totals  [NumEvents]uint64

	pendingWrite bool
	pendingPair  int
	pendingVal   uint64
	pendingFuel  int

	Strict bool
}

func newEagerUnit(k int) *eagerUnit {
	return &eagerUnit{pic: make([]uint32, k), sel: make([]Event, k), Strict: true}
}

func (u *eagerUnit) SelectAll(events []Event) {
	for i := range u.sel {
		if i < len(events) {
			u.sel[i] = events[i]
		} else {
			u.sel[i] = EvNone
		}
	}
	for ev := Event(0); ev < NumEvents; ev++ {
		var m uint32
		for i, sel := range u.sel {
			if matches(sel, ev) {
				m |= 1 << i
			}
		}
		u.picMask[ev] = m
	}
}

func (u *eagerUnit) Count(ev Event, n uint64) {
	u.totals[ev] += n
	if ev == EvDCacheReadMiss || ev == EvDCacheWriteMiss {
		u.totals[EvDCacheMiss] += n
	}
	for m := u.picMask[ev]; m != 0; m &= m - 1 {
		u.pic[bits.TrailingZeros32(m)] += uint32(n)
	}
}

func (u *eagerUnit) Retire() {
	if u.pendingWrite {
		u.pendingFuel--
		if u.pendingFuel <= 0 {
			u.applyPending()
		}
	}
}

func (u *eagerUnit) applyPending() {
	u.setPair(u.pendingPair, u.pendingVal)
	u.pendingWrite = false
}

func (u *eagerUnit) setPair(p int, v uint64) {
	u.pic[2*p] = uint32(v)
	if 2*p+1 < len(u.pic) {
		u.pic[2*p+1] = uint32(v >> 32)
	}
}

func (u *eagerUnit) WritePair(p int, v uint64) {
	if !u.Strict {
		u.setPair(p, v)
		return
	}
	if u.pendingWrite && u.pendingPair != p {
		u.applyPending()
	}
	u.pendingWrite = true
	u.pendingPair = p
	u.pendingVal = v
	u.pendingFuel = writeLatency
}

func (u *eagerUnit) ReadPair(p int) uint64 {
	if u.pendingWrite {
		u.applyPending()
	}
	v := uint64(u.pic[2*p])
	if 2*p+1 < len(u.pic) {
		v |= uint64(u.pic[2*p+1]) << 32
	}
	return v
}

func (u *eagerUnit) ReadAll() []uint32 {
	if u.pendingWrite {
		u.applyPending()
	}
	return slices.Clone(u.pic)
}

func (u *eagerUnit) WriteAll(vals []uint32) {
	for p := 0; 2*p < len(u.pic); p++ {
		var v uint64
		if 2*p < len(vals) {
			v = uint64(vals[2*p])
		}
		if 2*p+1 < len(vals) {
			v |= uint64(vals[2*p+1]) << 32
		}
		u.WritePair(p, v)
	}
}

func (u *eagerUnit) ResetTotals() { u.totals = [NumEvents]uint64{} }

// TestLazyCountsMatchEagerModel drives Unit and the eager model with the
// same random operation sequences, at bank widths 1, 2 and 4 with strict
// write buffering on and off, and demands identical PIC readings and
// shadow totals throughout. Selections put lazy and eager events on one or
// several PICs, and counts and writes straddle the 32-bit wrap. A block
// charge counts a run of instructions the way the simulator does, each
// lazy event summed over the run and then RetireN once, while the model
// counts and retires instruction by instruction; the run never goes past
// the retirement at which a buffered write drains, as the simulator stops
// there.
func TestLazyCountsMatchEagerModel(t *testing.T) {
	menu := []Event{EvNone, EvCycles, EvInsts, EvDCacheMiss, EvDCacheReadMiss, EvDCacheWriteMiss, EvLoads,
		EvStores, EvDCacheRead, EvDCacheWrite, EvBranches, EvCalls}
	counted := []Event{EvCycles, EvInsts, EvDCacheReadMiss, EvDCacheWriteMiss, EvLoads, EvStoreBufStalls,
		EvStores, EvDCacheRead, EvDCacheWrite, EvBranches, EvCalls}
	blockEvents := []Event{EvLoads, EvStores, EvDCacheRead, EvDCacheWrite, EvBranches, EvCalls}
	// amount draws an event count: usually small, sometimes large enough
	// to wrap a PIC on its own.
	amount := func(rng *rand.Rand) uint64 {
		if rng.Intn(8) == 0 {
			return uint64(rng.Int63())
		}
		return uint64(rng.Intn(10))
	}
	// pairValue draws a PIC pair value, often just below the wrap.
	pairValue := func(rng *rand.Rand) uint64 {
		v := rng.Uint64()
		if rng.Intn(2) == 0 {
			v |= 0xFFFF_FF00_FFFF_FF00
		}
		return v
	}
	for _, k := range []int{1, 2, 4} {
		for _, strict := range []bool{true, false} {
			for seed := int64(0); seed < 50; seed++ {
				rng := rand.New(rand.NewSource(seed))
				u, ref := NewK(k), newEagerUnit(k)
				u.Strict, ref.Strict = strict, strict
				pairs := (k + 1) / 2
				for step := 0; step < 2000; step++ {
					op := rng.Intn(22)
					switch {
					case op >= 20:
						// A block charge of n instructions.
						n := 1 + uint64(rng.Intn(12))
						if d := u.DrainsIn(); n > d {
							n = d
						}
						var sum [NumEvents]uint64
						for i := uint64(0); i < n; i++ {
							ref.Count(EvInsts, 1)
							sum[EvInsts]++
							c := uint64(rng.Intn(3))
							ref.Count(EvCycles, c)
							sum[EvCycles] += c
							for _, ev := range blockEvents {
								if rng.Intn(4) == 0 {
									ref.Count(ev, 1)
									sum[ev]++
								}
							}
							ref.Retire()
						}
						for ev, c := range sum {
							u.Count(Event(ev), c)
						}
						u.RetireN(n)
					case op < 8:
						// One simulated instruction: its instruction and
						// cycle charge, maybe a stall or another event,
						// then retirement.
						cycles := 1 + uint64(rng.Intn(3))*uint64(rng.Intn(8))
						ev := counted[rng.Intn(len(counted))]
						n := amount(rng)
						charge := func(x interface {
							Count(Event, uint64)
							Retire()
						}) {
							x.Count(EvInsts, 1)
							x.Count(EvCycles, cycles)
							if op < 3 {
								x.Count(ev, n)
							}
							x.Retire()
						}
						charge(u)
						charge(ref)
					case op < 10:
						ev, n := counted[rng.Intn(len(counted))], amount(rng)
						u.Count(ev, n)
						ref.Count(ev, n)
					case op < 12:
						u.Retire()
						ref.Retire()
						if rng.Intn(2) == 0 {
							n := uint64(rng.Intn(5))
							u.RetireN(n)
							for i := uint64(0); i < n; i++ {
								ref.Retire()
							}
						}
					case op < 14:
						p := rng.Intn(pairs)
						if got, want := u.ReadPair(p), ref.ReadPair(p); got != want {
							t.Fatalf("k=%d strict=%v seed %d step %d: ReadPair(%d) = %#x, want %#x", k, strict, seed, step, p, got, want)
						}
					case op < 16:
						p, v := rng.Intn(pairs), pairValue(rng)
						u.WritePair(p, v)
						ref.WritePair(p, v)
					case op == 16:
						if got, want := u.ReadAll(nil), ref.ReadAll(); !slices.Equal(got, want) {
							t.Fatalf("k=%d strict=%v seed %d step %d: ReadAll = %#x, want %#x", k, strict, seed, step, got, want)
						}
					case op == 17:
						vals := make([]uint32, rng.Intn(k+2))
						for i := range vals {
							vals[i] = uint32(pairValue(rng))
						}
						u.WriteAll(vals)
						ref.WriteAll(vals)
					case op == 18:
						sel := make([]Event, rng.Intn(k+2))
						for i := range sel {
							sel[i] = menu[rng.Intn(len(menu))]
						}
						u.SelectAll(sel)
						ref.SelectAll(sel)
					default:
						u.ResetTotals()
						ref.ResetTotals()
					}
					if u.Totals() != ref.totals {
						t.Fatalf("k=%d strict=%v seed %d step %d: totals %v, want %v", k, strict, seed, step, u.Totals(), ref.totals)
					}
				}
				if got, want := u.ReadAll(nil), ref.ReadAll(); !slices.Equal(got, want) {
					t.Fatalf("k=%d strict=%v seed %d: final ReadAll = %#x, want %#x", k, strict, seed, got, want)
				}
			}
		}
	}
}

// TestRetireNMatchesRetire: RetireN(n) leaves the unit exactly as n calls
// of Retire do when nothing is counted between them, also when a buffered
// write drains partway through the n retirements or on the last of them.
func TestRetireNMatchesRetire(t *testing.T) {
	for fuel := 0; fuel <= writeLatency; fuel++ {
		for n := uint64(0); n <= writeLatency+2; n++ {
			bulk, single := New(), New()
			for _, u := range []*Unit{bulk, single} {
				u.Select(EvInsts, EvCycles)
				u.Count(EvInsts, 100)
				u.Count(EvCycles, 250)
				if fuel > 0 {
					u.WritePair(0, Pack(7, 9))
					for i := fuel; i < writeLatency; i++ {
						u.Retire() // age the write to fuel retirements left
					}
				}
				u.Count(EvInsts, 5)
				u.Count(EvCycles, 11)
			}
			bulk.RetireN(n)
			for i := uint64(0); i < n; i++ {
				single.Retire()
			}
			// Instructions after a drain count on top of the written
			// value; before it, the drain at the read below loses them.
			bulk.Count(EvInsts, 3)
			single.Count(EvInsts, 3)
			if bulk.DrainsIn() != single.DrainsIn() {
				t.Fatalf("fuel %d, n %d: drains in %d, want %d", fuel, n, bulk.DrainsIn(), single.DrainsIn())
			}
			drained := fuel > 0 && n >= uint64(fuel)
			if got := bulk.DrainsIn() == ^uint64(0); got != (fuel == 0 || drained) {
				t.Fatalf("fuel %d, n %d: buffered write still pending = %v", fuel, n, !got)
			}
			if bulk.ReadPair(0) != single.ReadPair(0) || bulk.Totals() != single.Totals() {
				t.Fatalf("fuel %d, n %d: PICs %#x, want %#x", fuel, n, bulk.ReadPair(0), single.ReadPair(0))
			}
		}
	}
}
