package wire_test

import (
	"bytes"
	"testing"

	"pathprof/internal/profile"
	"pathprof/internal/wire"
)

func kSeedProfile(k int) *profile.Profile {
	p := &profile.Profile{
		Program: "kwire", Mode: "flow", Events: []string{"dcache-miss", "insts"},
		Procs: []*profile.ProcPaths{
			{ProcID: 0, Name: "main", NumPaths: 6, Entries: []profile.PathEntry{
				profile.NewEntry(0, 3, 7, 41),
				profile.NewEntry(5, 1, 0, 9),
			}},
			{ProcID: 1, Name: "leaf", NumPaths: 2, Entries: []profile.PathEntry{
				profile.NewEntry(1, 2, 4, 4),
			}},
		},
	}
	if k > 1 {
		p.K = k
		p.Procs[0].K = k
		p.Procs[1].K = 1 // clamped: no backedges
	}
	return p
}

// TestProfileKRoundTrip: a one-item frame preserves the iteration
// degree and per-proc effective degrees exactly.
func TestProfileKRoundTrip(t *testing.T) {
	p := kSeedProfile(3)
	f, err := wire.ParseFrame(frameOf(t, p))
	if err != nil {
		t.Fatal(err)
	}
	got, err := f.ProfileAt(0)
	if err != nil {
		t.Fatal(err)
	}
	if got.K != 3 {
		t.Fatalf("decoded K = %d, want 3", got.K)
	}
	if got.Procs[0].K != 3 || got.Procs[1].K != 1 {
		t.Fatalf("decoded proc degrees %d,%d, want 3,1", got.Procs[0].K, got.Procs[1].K)
	}
	if got.SchemaKey() != p.SchemaKey() {
		t.Fatalf("schema key changed across the wire: %q != %q", got.SchemaKey(), p.SchemaKey())
	}
}

// TestProfileClassicBytesUnchangedByK: a classic profile must encode
// byte-identically whether its K field is 0 (decoded form) or 1 (the
// instrument default) — the k extension may not disturb existing frames.
func TestProfileClassicBytesUnchangedByK(t *testing.T) {
	p1 := kSeedProfile(0)
	p1.K = 1
	if !bytes.Equal(frameOf(t, kSeedProfile(0)), frameOf(t, p1)) {
		t.Fatal("K=1 changed a classic profile's frame bytes")
	}
}

// TestBatchKRoundTrip: the v3 frame codec carries the degrees through both
// the scratch decode and the materialized form.
func TestBatchKRoundTrip(t *testing.T) {
	w := wire.NewBatchWriter()
	if err := w.AddProfile(kSeedProfile(2)); err != nil {
		t.Fatal(err)
	}
	if err := w.AddProfile(kSeedProfile(0)); err != nil {
		t.Fatal(err)
	}
	f, err := wire.ParseFrame(w.Frame())
	if err != nil {
		t.Fatal(err)
	}
	var s wire.BatchProfile
	if err := f.DecodeProfile(0, &s); err != nil {
		t.Fatal(err)
	}
	if s.K != 2 || s.Procs[0].K != 2 || s.Procs[1].K != 1 {
		t.Fatalf("scratch decode: K=%d procs %d,%d, want 2 and 2,1", s.K, s.Procs[0].K, s.Procs[1].K)
	}
	// The scratch struct is reused across items: the classic profile must
	// clear the degrees the k-profile left behind.
	if err := f.DecodeProfile(1, &s); err != nil {
		t.Fatal(err)
	}
	if s.K != 0 || s.Procs[0].K != 0 {
		t.Fatalf("scratch reuse leaked degrees: K=%d proc0=%d", s.K, s.Procs[0].K)
	}
	p, err := f.ProfileAt(0)
	if err != nil {
		t.Fatal(err)
	}
	if p.K != 2 || p.Procs[0].K != 2 || p.Procs[1].K != 1 {
		t.Fatalf("materialized: K=%d procs %d,%d, want 2 and 2,1", p.K, p.Procs[0].K, p.Procs[1].K)
	}
}
