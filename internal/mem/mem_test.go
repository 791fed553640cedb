package mem

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLoadStoreRoundTrip(t *testing.T) {
	m := New()
	m.Store(0x1000, 42)
	if v := m.Load(0x1000); v != 42 {
		t.Fatalf("load = %d, want 42", v)
	}
	if v := m.Load(0x2000); v != 0 {
		t.Fatalf("untouched load = %d, want 0", v)
	}
}

func TestAddCounter(t *testing.T) {
	m := New()
	if v := m.Add(0x40, 5); v != 5 {
		t.Fatalf("add = %d", v)
	}
	if v := m.Add(0x40, -2); v != 3 {
		t.Fatalf("add = %d", v)
	}
}

func TestUnalignedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unaligned access did not panic")
		}
	}()
	New().Load(0x1001)
}

// TestAgainstMapModel: the paged memory behaves like a plain map. The
// addresses spread over every region and above 4 GiB, many more pages than
// the page-pointer cache has slots, so slots are shared and refilled; runs
// of accesses stay on one page, as the simulator's do, so the last-page
// memo of LoadAligned and StoreAligned serves many of them, among them
// loads of pages never written.
func TestAgainstMapModel(t *testing.T) {
	regions := []uint64{0, GlobalBase, StackTop - 1<<16, CounterBase, CCTBase, 1 << 32, 1<<40 + 1<<32}
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := New()
		ref := map[uint64]int64{}
		var used []uint64
		var prev uint64
		for i := 0; i < 3000; i++ {
			addr := (regions[rng.Intn(len(regions))] + uint64(rng.Intn(1<<16))) &^ 7
			switch r := rng.Intn(4); {
			case r < 2 && len(used) > 0:
				addr = used[rng.Intn(len(used))] // revisit a written word
			case r == 2 && i > 0:
				addr = prev&^(pageWords*8-1) | uint64(rng.Intn(pageWords))*8 // stay on the page
			}
			prev = addr
			aligned := rng.Intn(2) == 0
			if rng.Intn(2) == 0 {
				used = append(used, addr)
				v := rng.Int63()
				if aligned {
					m.StoreAligned(addr, v)
				} else {
					m.Store(addr, v)
				}
				ref[addr] = v
				continue
			}
			got := m.Load(addr)
			if aligned {
				got = m.LoadAligned(addr)
			}
			if got != ref[addr] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestRegions(t *testing.T) {
	m := New()
	words := []int64{1, 2, 3, 4}
	m.CopyRegion(0x8000, words)
	got := m.ReadRegion(0x8000, 4)
	for i, w := range words {
		if got[i] != w {
			t.Fatalf("region[%d] = %d, want %d", i, got[i], w)
		}
	}
}

func TestAllocatorAlignment(t *testing.T) {
	a := NewAllocator(0x100, 0x1000)
	p1 := a.Alloc(24, 8)
	p2 := a.Alloc(8, 64)
	if p1 != 0x100 {
		t.Fatalf("first alloc at %#x", p1)
	}
	if p2%64 != 0 || p2 < p1+24 {
		t.Fatalf("second alloc at %#x not 64-aligned past first", p2)
	}
	if a.Used(0x100) == 0 {
		t.Fatal("used bytes not tracked")
	}
}

func TestAllocatorExhaustionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("exhausted allocator did not panic")
		}
	}()
	a := NewAllocator(0, 16)
	a.Alloc(32, 8)
}

func TestFootprint(t *testing.T) {
	m := New()
	if m.FootprintBytes() != 0 {
		t.Fatal("fresh memory has footprint")
	}
	m.Store(0, 1)
	m.Store(8, 1) // same page
	if m.FootprintBytes() != 4096 {
		t.Fatalf("footprint = %d, want one 4K page", m.FootprintBytes())
	}
}
