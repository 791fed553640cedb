package profile

import (
	"slices"
	"strings"
	"testing"
)

func sample() *Profile {
	return &Profile{
		Program: "prog", Mode: "flow+hw", Events: []string{"dcache-miss", "insts"},
		Procs: []*ProcPaths{
			{ProcID: 0, Name: "main", NumPaths: 6, Entries: []PathEntry{
				NewEntry(0, 10, 5, 100),
				NewEntry(3, 2, 1, 20),
			}},
			{ProcID: 1, Name: "leaf", NumPaths: 2, Entries: []PathEntry{
				NewEntry(1, 7, 3, 70),
			}},
		},
	}
}

func TestTotals(t *testing.T) {
	f, ms := sample().Totals()
	if f != 19 || !slices.Equal(ms, []uint64{9, 190}) {
		t.Fatalf("totals = %d %v", f, ms)
	}
}

func TestMerge(t *testing.T) {
	a := sample()
	b := sample()
	b.Procs[0].Entries = append(b.Procs[0].Entries, PathEntry{Sum: 5, Freq: 1})
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if e := a.Procs[0].Entries; len(e) != 3 {
		t.Fatalf("merged entries = %d", len(e))
	}
	if a.Proc(0).Entries[0].Freq != 20 {
		t.Fatalf("freq not doubled: %+v", a.Proc(0).Entries[0])
	}
	// Shape mismatch errors.
	c := sample()
	c.Procs = c.Procs[:1]
	if err := a.Merge(c); err == nil {
		t.Fatal("shape mismatch accepted")
	}
	// Schema mismatch errors.
	d := sample()
	d.Events = []string{"cycles", "insts"}
	if err := a.Merge(d); err == nil {
		t.Fatal("schema mismatch accepted")
	}
}

func TestProcLookup(t *testing.T) {
	p := sample()
	if p.Proc(1) == nil || p.Proc(99) != nil {
		t.Fatal("Proc lookup broken")
	}
}

func TestNewMetricsArena(t *testing.T) {
	pp := &ProcPaths{}
	a := pp.NewMetrics(3)
	b := pp.NewMetrics(2)
	a[2] = 7 // must not be visible through b
	if b[0] != 0 || b[1] != 0 {
		t.Fatalf("arena slices alias: %v", b)
	}
	// Appending past a chunk boundary must not touch earlier slices.
	var all [][]uint64
	for i := 0; i < 2000; i++ {
		m := pp.NewMetrics(2)
		m[0] = uint64(i)
		all = append(all, m)
	}
	for i, m := range all {
		if m[0] != uint64(i) {
			t.Fatalf("slice %d clobbered: %v", i, m)
		}
	}

	// The first chunk is the first request, and the capacity kept (every
	// chunk opened so far) stays under twice the words handed out, for
	// requests below, at and above the chunk cap.
	for _, n := range []int{1, 2, 3, 7, arenaChunk, arenaChunk + 1} {
		pp := &ProcPaths{}
		var kept, words int
		var chunk *uint64
		for i := 0; i < 3000; i++ {
			pp.NewMetrics(n)
			words += n
			if i == 0 && cap(pp.arena) != n {
				t.Fatalf("n=%d: first chunk holds %d words", n, cap(pp.arena))
			}
			if c := &pp.arena[0]; c != chunk {
				chunk = c
				kept += cap(pp.arena)
			}
			if kept >= 2*words {
				t.Fatalf("n=%d: %d requests keep %d words for %d handed out", n, i+1, kept, words)
			}
		}
	}
}

func TestSortOrders(t *testing.T) {
	pp := &ProcPaths{Entries: []PathEntry{{Sum: 5}, {Sum: 1}, {Sum: 3}}}
	pp.Sort()
	if pp.Entries[0].Sum != 1 || pp.Entries[2].Sum != 5 {
		t.Fatalf("not sorted: %+v", pp.Entries)
	}
}

// TestWriteGolden pins the text dump: one metric column per schema event
// (missing slots print 0), k= tokens only on k-iteration profiles, and
// names with spaces or empty names escaped to single fields.
func TestWriteGolden(t *testing.T) {
	wide := &Profile{
		Program: "has space", Mode: "flow+hw", K: 2,
		Events: []string{"cycles", "", "dcache-miss", "icache-miss"},
		Procs: []*ProcPaths{
			{ProcID: 0, Name: "main", NumPaths: 6, K: 2, Entries: []PathEntry{
				NewEntry(0, 9, 1, 2, 3, 4),
				NewEntry(2, 1, 0, 0, 7),
			}},
			{ProcID: 1, Name: "a leaf", NumPaths: 2},
		},
	}
	for _, c := range []struct {
		p    *Profile
		want string
	}{
		{sample(), `profile prog flow+hw dcache-miss insts
proc 0 main 6
path 0 10 5 100
path 3 2 1 20
proc 1 leaf 2
path 1 7 3 70
`},
		{wide, `profile has_space flow+hw k=2 cycles - dcache-miss icache-miss
proc 0 main 6 k=2
path 0 9 1 2 3 4
path 2 1 0 0 7 0
proc 1 a_leaf 2 k=1
`},
	} {
		var got strings.Builder
		if err := c.p.Write(&got); err != nil {
			t.Fatal(err)
		}
		if got.String() != c.want {
			t.Errorf("Write:\n%s\nwant:\n%s", got.String(), c.want)
		}
	}
}
