package collector

import (
	"bytes"
	"context"
	"net/http"
	"strings"
	"testing"

	"pathprof/internal/cct"
	"pathprof/internal/flat"
	"pathprof/internal/store"
)

// hostileExport builds a one-level CCT export of a numProcs-procedure
// program "hostile": one root child per {proc, metric} pair.
func hostileExport(numProcs int, children ...[2]int) *cct.Export {
	root := &cct.ExportedNode{ID: 0, Proc: -1, PathCounts: flat.New(0)}
	ex := &cct.Export{NumProcs: numProcs, NumMetrics: 1, Program: "hostile", Root: root,
		Nodes: map[int]*cct.ExportedNode{0: root}}
	for i, ch := range children {
		n := &cct.ExportedNode{ID: i + 1, Proc: ch[0], Metrics: []int64{int64(ch[1])}, PathCounts: flat.New(0)}
		root.Children = append(root.Children, n)
		ex.Nodes[n.ID] = n
	}
	return ex
}

// Hostile pushes against a two-procedure program whose valid push has
// metric total 12, and a 2^40-procedure CCT of a program no aggregate
// holds yet, so nothing but the decoder stands between its procedure
// count and the fold.
var (
	validHostileExport = hostileExport(2, [2]int{0, 5}, [2]int{1, 7})
	secondChildProc99  = hostileExport(2, [2]int{0, 5}, [2]int{99, 5})
	procAliasesOne     = hostileExport(2, [2]int{1<<32 + 1, 12})
	hugeNumProcs       = func() *cct.Export {
		ex := hostileExport(1 << 40)
		ex.Program = "huge"
		return ex
	}()
)

// snapshotBytes is the whole aggregate at byte level: every program's
// MergedProfile and MergedExport encoded as one v3 frame.
func snapshotBytes(t testing.TB, c *Collector) []byte {
	t.Helper()
	b, err := c.SnapshotFrame()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func metricTotal(t *testing.T, c *Collector) int64 {
	t.Helper()
	ex, ok := c.MergedExport("hostile")
	if !ok {
		t.Fatal("no hostile export aggregated")
	}
	var total int64
	for _, n := range ex.Nodes {
		for _, m := range n.Metrics {
			total += m
		}
	}
	return total
}

// TestHugeNumProcsRejected: a CCT declaring 2^40 procedures is rejected
// at decode, before the fold sizes anything from the count, and a
// durable collector whose log holds that record reopens with the record
// counted as one apply error.
func TestHugeNumProcsRejected(t *testing.T) {
	c := New(Config{Shards: 1})
	if _, _, err := c.IngestFrame(exportFrame(t, validHostileExport)); err != nil {
		t.Fatal(err)
	}
	before := snapshotBytes(t, c)
	_, _, err := c.IngestFrame(exportFrame(t, hugeNumProcs))
	if err == nil || !strings.Contains(err.Error(), "1099511627776 procs exceeds limit") {
		t.Fatalf("IngestFrame of a 2^40-proc CCT: err = %v", err)
	}
	if !bytes.Equal(snapshotBytes(t, c), before) {
		t.Fatal("rejected CCT changed the aggregate")
	}

	dir := t.TempDir()
	dc, cl, l, _ := newDurableServer(t, dir, Config{Shards: 1}, store.Options{})
	ctx := context.Background()
	if _, err := cl.PushFrame(ctx, exportFrame(t, validHostileExport)); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.PushFrame(ctx, exportFrame(t, hugeNumProcs)); statusOf(t, err) != http.StatusBadRequest {
		t.Fatalf("durable push of a 2^40-proc CCT: err = %v, want 400", err)
	}
	want := snapshotBytes(t, dc)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	rc, _, _, rec := newDurableServer(t, dir, Config{Shards: 1}, store.Options{})
	if rec.Records != 2 || rec.ApplyErrors != 1 {
		t.Fatalf("reopen replayed %d records with %d apply errors, want 2 and 1", rec.Records, rec.ApplyErrors)
	}
	if !bytes.Equal(snapshotBytes(t, rc), want) {
		t.Fatal("reopened aggregate differs from the one before the restart")
	}
}

// TestOutOfRangeProcRejectedBeforeFold: a push with a node proc outside
// [0, NumProcs) is rejected whole — no earlier sibling folds first — and
// a proc that would narrow to a valid int32 is rejected rather than
// merged under the wrong procedure.
func TestOutOfRangeProcRejectedBeforeFold(t *testing.T) {
	c, cl := newServer(t, Config{Shards: 1})
	ctx := context.Background()
	if _, err := cl.PushFrame(ctx, exportFrame(t, validHostileExport)); err != nil {
		t.Fatal(err)
	}
	if got := metricTotal(t, c); got != 12 {
		t.Fatalf("metric total after the valid push = %d, want 12", got)
	}
	for _, tc := range []struct {
		name string
		ex   *cct.Export
		want string
	}{
		{"second child proc 99", secondChildProc99, "proc 99 out of range"},
		{"proc 2^32+1", procAliasesOne, "proc 4294967297 out of range"},
	} {
		before := snapshotBytes(t, c)
		_, err := cl.PushFrame(ctx, exportFrame(t, tc.ex))
		if statusOf(t, err) != http.StatusBadRequest || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: err = %v, want 400 naming %q", tc.name, err, tc.want)
		}
		if !bytes.Equal(snapshotBytes(t, c), before) {
			t.Fatalf("%s: rejected push changed the aggregate", tc.name)
		}
		if got := metricTotal(t, c); got != 12 {
			t.Fatalf("%s: metric total = %d, want 12", tc.name, got)
		}
	}
}
