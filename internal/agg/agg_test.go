package agg

import (
	"errors"
	"strings"
	"testing"

	"pathprof/internal/profile"
	"pathprof/internal/wire"
)

func testProfile(program, mode string) *profile.Profile {
	return &profile.Profile{
		Program: program, Mode: mode, Events: []string{"dcache-miss", "insts"},
		Procs: []*profile.ProcPaths{
			{ProcID: 0, Name: "main", NumPaths: 4, Entries: []profile.PathEntry{
				profile.NewEntry(0, 10, 1, 2),
				profile.NewEntry(3, 1, 5, 6),
			}},
		},
	}
}

func frameOf(t *testing.T, ps ...*profile.Profile) []byte {
	t.Helper()
	bw := wire.NewBatchWriter()
	for _, p := range ps {
		if err := bw.AddProfile(p); err != nil {
			t.Fatal(err)
		}
	}
	return bw.Frame()
}

func text(t *testing.T, p *profile.Profile) string {
	t.Helper()
	var b strings.Builder
	if err := p.Write(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestFoldFrameStopsAtConflict: a zero Set folds a frame item by item. An
// item that conflicts with its program's aggregate stops the fold with a
// *ConflictError and leaves that aggregate as it was, the items before it
// stay folded, and every fold, the failed one included, advances the
// fold stamps.
func TestFoldFrameStopsAtConflict(t *testing.T) {
	p, q := testProfile("p", "flow+hw"), testProfile("q", "flow+hw")
	var set Set
	var sc Scratch
	if err := set.FoldFrame(&sc, frameOf(t, p, p)); err != nil {
		t.Fatal(err)
	}
	twice := testProfile("p", "flow+hw")
	if err := twice.Merge(p); err != nil {
		t.Fatal(err)
	}
	if got, want := text(t, set.Profiles["p"].Materialize()), text(t, twice); got != want {
		t.Fatalf("two folds of p:\n%s\nwant profile.Merge's:\n%s", got, want)
	}

	err := set.FoldFrame(&sc, frameOf(t, q, testProfile("p", "context+hw"), q))
	var ce *ConflictError
	if !errors.As(err, &ce) {
		t.Fatalf("conflicting item: err = %v, want a *ConflictError", err)
	}
	if got, want := text(t, set.Profiles["p"].Materialize()), text(t, twice); got != want {
		t.Fatalf("the conflicting item changed p's aggregate:\n%s", got)
	}
	if got, want := text(t, set.Profiles["q"].Materialize()), text(t, q); got != want {
		t.Fatalf("q folded %q, want one fold before the conflict", got)
	}
	if gp, gq := set.Profiles["p"].Gen(), set.Profiles["q"].Gen(); gp != 4 || gq != 3 {
		t.Fatalf("fold stamps p %d, q %d; want 4 (the failed fold) and 3", gp, gq)
	}
}
