package cct

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"pathprof/internal/flat"
)

func buildTreeFromTrace(rng *rand.Rand, nProcs, nSites, length int, paths bool) *Tree {
	opts := Options{DistinguishCallSites: true, NumMetrics: 2, PathCounts: paths}
	pr := procs(nProcs, nSites)
	tr := New(pr, opts, 0)
	trace := randomTrace(rng, nProcs, nSites, length)
	for _, c := range trace {
		if c.site >= 0 {
			tr.AtCall(c.site, NoPrefix, nil)
			tr.Enter(c.proc, nil)
			tr.AddMetric(0, 1, nil)
			tr.AddMetric(1, int64(rng.Intn(50)), nil)
			if paths {
				tr.CountPath(int64(rng.Intn(4)), nil)
			}
		} else {
			tr.Exit(nil)
		}
	}
	return tr
}

func TestDump(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	tr := buildTreeFromTrace(rng, 3, 2, 60, false)
	var sb strings.Builder
	tr.Dump(&sb, func(id int) string { return tr.ProcName(id) })
	out := sb.String()
	if !strings.Contains(out, "<root>") {
		t.Fatalf("dump missing root:\n%s", out)
	}
	if !strings.Contains(out, "metrics=") {
		t.Fatal("dump missing metrics")
	}
	if len(strings.Split(out, "\n")) < tr.NumNodes() {
		t.Fatal("dump shorter than the tree")
	}
}

// TestMergeExports: merging a tree with itself doubles every metric and
// path count while preserving the shape.
func TestMergeExports(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	tr := buildTreeFromTrace(rng, 4, 2, 600, true)
	a, b := tr.Export("x"), tr.Export("x")
	m, err := MergeExports(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumNodes() != a.NumNodes() {
		t.Fatalf("merged nodes %d != %d", m.NumNodes(), a.NumNodes())
	}
	if got, want := m.TotalMetric(0), 2*a.TotalMetric(0); got != want {
		t.Fatalf("metric 0: %d, want %d", got, want)
	}
	var aPaths, mPaths int64
	for _, n := range a.Nodes {
		n.PathCounts.Range(func(_, c int64) bool {
			aPaths += c
			return true
		})
	}
	for _, n := range m.Nodes {
		n.PathCounts.Range(func(_, c int64) bool {
			mPaths += c
			return true
		})
	}
	if mPaths != 2*aPaths {
		t.Fatalf("path counts: %d, want %d", mPaths, 2*aPaths)
	}
	// Shape statistics unchanged.
	if m.Stats().MaxHeight != a.Stats().MaxHeight {
		t.Fatal("merge changed tree height")
	}
}

func TestMergeExportsShapeMismatch(t *testing.T) {
	a := &Export{NumProcs: 3, Root: &ExportedNode{}, Nodes: map[int]*ExportedNode{}}
	b := &Export{NumProcs: 4, Root: &ExportedNode{}, Nodes: map[int]*ExportedNode{}}
	if _, err := MergeExports(a, b); err == nil {
		t.Fatal("mismatched exports merged")
	}
}

// TestExportStructuralStats: a live snapshot carries the structural extras
// and reproduces ComputeStats exactly, including the size and call-site
// columns the text dump leaves out.
func TestExportStructuralStats(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 20; trial++ {
		tr := buildTreeFromTrace(rng, rng.Intn(5)+2, rng.Intn(3)+1, rng.Intn(600)+50, true)
		ex := tr.Export("x")
		if !ex.HasStructure {
			t.Fatal("Export did not mark structure")
		}
		if got, want := ex.Stats(), tr.ComputeStats(); got != want {
			t.Fatalf("trial %d: structural stats\n got %+v\nwant %+v", trial, got, want)
		}
	}
}

// TestMergeExportsPreservesBackedges: merging keeps recursion edges, so
// AvgOutDegree (which counts them) survives collection-tier merging.
func TestMergeExportsPreservesBackedges(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for trial := 0; trial < 30; trial++ {
		tr := buildTreeFromTrace(rng, rng.Intn(4)+2, rng.Intn(3)+1, rng.Intn(700)+100, true)
		a := tr.Export("x")
		b := tr.Export("x")
		var backs int
		for _, n := range a.Nodes {
			backs += len(n.Backedges)
		}
		m, err := MergeExports(a, b)
		if err != nil {
			t.Fatal(err)
		}
		var got int
		for _, n := range m.Nodes {
			got += len(n.Backedges)
		}
		if got != backs {
			t.Fatalf("trial %d: merged backedges %d, want %d", trial, got, backs)
		}
		if got, want := m.Stats(), tr.ComputeStats(); got != want {
			t.Fatalf("trial %d: merged structural stats\n got %+v\nwant %+v", trial, got, want)
		}
		var text, mergedText bytes.Buffer
		if err := a.WriteText(&text); err != nil {
			t.Fatal(err)
		}
		// Halving the merged counters must reproduce the original text.
		for _, n := range m.Nodes {
			for i := range n.Metrics {
				n.Metrics[i] /= 2
			}
			n.PathCounts.Range(func(s, c int64) bool {
				n.PathCounts.Set(s, c/2)
				return true
			})
		}
		if err := m.WriteText(&mergedText); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(text.Bytes(), mergedText.Bytes()) {
			t.Fatalf("trial %d: merged tree text (halved) differs from input", trial)
		}
	}
}

// TestWriteTextGolden pins the text dump: node lines in preorder with
// their metrics, nonzero path counts in sum order under each node, and
// the back lines last, in postorder of their from-nodes.
func TestWriteTextGolden(t *testing.T) {
	ex := &Export{NumProcs: 3, NumMetrics: 2, Nodes: map[int]*ExportedNode{}}
	add := func(id int, parent *ExportedNode, proc int, metrics []int64, paths ...int64) *ExportedNode {
		n := &ExportedNode{ID: id, Proc: proc, Metrics: metrics, PathCounts: flat.New(len(paths) / 2)}
		for i := 0; i < len(paths); i += 2 {
			n.PathCounts.Set(paths[i], paths[i+1])
		}
		if parent != nil {
			n.ParentID = parent.ID
			parent.Children = append(parent.Children, n)
		}
		ex.Nodes[id] = n
		return n
	}
	ex.Root = add(0, nil, -1, nil)
	n1 := add(1, ex.Root, 0, []int64{3, 40}, 5, 2, 1, 1, 3, 0)
	n2 := add(2, n1, 1, []int64{2, 25}, 0, 2)
	n3 := add(3, n2, 2, []int64{1, 7})
	add(4, n1, 2, []int64{1, 5}, 7, 1)
	n1.Backedges = []int{1}
	n3.Backedges = []int{2}

	var got strings.Builder
	if err := ex.WriteText(&got); err != nil {
		t.Fatal(err)
	}
	const want = `cct 3 false 2
node 1 0 0 3 40
path 1 1 1
path 1 5 2
node 2 1 1 2 25
path 2 0 2
node 3 2 2 1 7
node 4 1 2 1 5
path 4 7 1
back 3 2
back 1 1
`
	if got.String() != want {
		t.Fatalf("WriteText:\n%s\nwant:\n%s", got.String(), want)
	}
}
