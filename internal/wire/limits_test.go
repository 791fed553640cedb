package wire

import (
	"bytes"
	"strings"
	"testing"

	"pathprof/internal/cct"
	"pathprof/internal/flat"
)

// procExport builds a one-level CCT export of a numProcs-procedure
// program: one root child per entry of procs, each with metric 1.
func procExport(numProcs int, procs ...int) *cct.Export {
	root := &cct.ExportedNode{ID: 0, Proc: -1, PathCounts: flat.New(0)}
	ex := &cct.Export{NumProcs: numProcs, NumMetrics: 1, Program: "limits", Root: root,
		Nodes: map[int]*cct.ExportedNode{0: root}}
	for i, p := range procs {
		n := &cct.ExportedNode{ID: i + 1, Proc: p, Metrics: []int64{1}, PathCounts: flat.New(0)}
		root.Children = append(root.Children, n)
		ex.Nodes[n.ID] = n
	}
	return ex
}

// decodeOneExport encodes ex as a one-item frame and decodes the item.
func decodeOneExport(t *testing.T, ex *cct.Export) error {
	t.Helper()
	w := NewBatchWriter()
	if err := w.AddExport(ex); err != nil {
		t.Fatal(err)
	}
	f, err := ParseFrame(w.Frame())
	if err != nil {
		t.Fatal(err)
	}
	var bc BatchCCT
	return f.DecodeCCT(0, &bc)
}

// TestCCTNumProcsBound: a CCT may declare at most maxWireProcs
// procedures, in a frame item and in a v2 envelope alike, and the
// rejection is positioned.
func TestCCTNumProcsBound(t *testing.T) {
	if err := decodeOneExport(t, procExport(maxWireProcs, 0)); err != nil {
		t.Fatalf("%d procs rejected: %v", maxWireProcs, err)
	}
	for _, np := range []int{maxWireProcs + 1, 1 << 40} {
		err := decodeOneExport(t, procExport(np))
		if err == nil || !strings.HasPrefix(err.Error(), "wire: frame offset ") ||
			!strings.HasSuffix(err.Error(), "cct item: "+itoa(np)+" procs exceeds limit") {
			t.Fatalf("frame item with %d procs: err = %v", np, err)
		}
		var buf bytes.Buffer
		if err := EncodeExport(&buf, procExport(np)); err != nil {
			t.Fatal(err)
		}
		_, err = DecodeExport(&buf)
		if err == nil || !strings.HasPrefix(err.Error(), "wire: offset ") ||
			!strings.HasSuffix(err.Error(), "cct header: "+itoa(np)+" procs exceeds limit") {
			t.Fatalf("v2 envelope with %d procs: err = %v", np, err)
		}
	}
}

// TestCCTNodeProcRange: every node's procedure must lie in
// [0, NumProcs), checked on the full varint value, so a proc that would
// narrow to a valid int32 is rejected too.
func TestCCTNodeProcRange(t *testing.T) {
	if err := decodeOneExport(t, procExport(2, 0, 1)); err != nil {
		t.Fatalf("valid procs rejected: %v", err)
	}
	for _, tc := range []struct {
		procs []int
		want  string
	}{
		{[]int{0, 99}, "node 2: proc 99 out of range (program has 2 procs)"},
		{[]int{1<<32 + 1}, "node 1: proc 4294967297 out of range (program has 2 procs)"},
		{[]int{2}, "node 1: proc 2 out of range (program has 2 procs)"},
		{[]int{-1}, "node 1: proc -1 out of range (program has 2 procs)"},
	} {
		err := decodeOneExport(t, procExport(2, tc.procs...))
		if err == nil || !strings.HasSuffix(err.Error(), tc.want) {
			t.Fatalf("procs %v: err = %v, want suffix %q", tc.procs, err, tc.want)
		}
	}
}
