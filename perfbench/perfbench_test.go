package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"pathprof/internal/workload"
)

// benchmarkFile is BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// smallConfig is the smallest run of a workload: test-scale programs,
// tiny draws, a fraction of a second.
func smallConfig(t *testing.T, name string, trace bool) config {
	return config{workload: name, seed: 7, seconds: 0.3, trace: trace, small: true,
		root: "..", out: t.TempDir()}
}

func TestCatalogMatchesBenchmarkFile(t *testing.T) {
	b := readBenchmarkFile(t)
	check := func(kind string, want []metricDef, got []struct{ Name, Unit, Better string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", kind, len(got), len(want))
		}
		for i, m := range want {
			if got[i].Name != m.name || got[i].Unit != m.unit || got[i].Better != m.better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the benchmark reports %+v", kind, i, got[i], m)
			}
		}
	}
	check("end_to_end", endToEnd, b.EndToEnd)
	check("per_layer", perLayer, b.PerLayer)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for n := range workloads {
		have = append(have, n)
	}
	sort.Strings(names)
	sort.Strings(have)
	if !slices.Equal(names, have) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark workloads %v", names, have)
	}
}

// TestSmallestRunsPrintEveryMetric runs each workload at its smallest
// size, untraced and traced, and requires the printed result line to
// carry exactly the metrics BENCHMARK.json names, each with its unit.
func TestSmallestRunsPrintEveryMetric(t *testing.T) {
	b := readBenchmarkFile(t)
	for _, w := range b.Workloads {
		for _, trace := range []bool{false, true} {
			cfg := smallConfig(t, w.Name, trace)
			res, report, err := execute(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			line, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			var printed struct {
				Correct   bool
				Attempted int64
				Failed    int64
				Metrics   map[string]metricValue
			}
			if err := json.Unmarshal(line, &printed); err != nil {
				t.Fatal(err)
			}
			want := b.EndToEnd
			if trace {
				want = b.PerLayer
			}
			if !printed.Correct || printed.Attempted < 1 || printed.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.Name, trace, printed.Correct, printed.Attempted, printed.Failed)
			}
			if len(printed.Metrics) != len(want) {
				t.Errorf("%s trace=%v: printed %d metrics, want %d", w.Name, trace, len(printed.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := printed.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w.Name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s unit %q, want %q", w.Name, trace, m.Name, got.Unit, m.Unit)
				case !trace && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, m.Name, got.Value)
				}
			}
			if len(report) == 0 || !strings.HasPrefix(report[0], "perfbench: workload="+w.Name) {
				t.Errorf("%s trace=%v: report does not start with the run header: %q", w.Name, trace, report)
			}
			if trace {
				if _, err := os.Stat(filepath.Join(cfg.out, "trace-"+w.Name+"-seed7.json")); err != nil {
					t.Errorf("%s: traced run wrote no spans: %v", w.Name, err)
				}
			}
		}
	}
}

func TestSeedDeterminesDraws(t *testing.T) {
	if a, b := profileOrder(3, 91), profileOrder(3, 91); !slices.Equal(a, b) {
		t.Errorf("profile order of seed 3 differs between calls: %v vs %v", a, b)
	}
	if a, b := profileOrder(1, 91), profileOrder(2, 91); slices.Equal(a, b) {
		t.Errorf("seeds 1 and 2 draw the same profile order %v", a)
	}
	for _, small := range []bool{false, true} {
		a, b := drawService(3, small), drawService(3, small)
		if joinNames(a.ref) != joinNames(b.ref) || joinNames(a.test) != joinNames(b.test) {
			t.Errorf("service draw of seed 3 differs between calls")
		}
	}
	if a, b := drawService(1, false), drawService(2, false); joinNames(a.ref) == joinNames(b.ref) {
		t.Errorf("seeds 1 and 2 draw the same ref-scale programs %s", joinNames(a.ref))
	}
	if len(allPrograms().kiter) == 0 {
		t.Error("the profile workload holds no k-iteration program")
	}
}

// TestSeedDeterminesFrames collects the envelope pool twice for one seed
// and requires byte-identical frames, and different frames for another
// seed.
func TestSeedDeterminesFrames(t *testing.T) {
	frames := func(seed int64) [][]byte {
		pool, err := collectEnvelopes(drawService(seed, true))
		if err != nil {
			t.Fatal(err)
		}
		gen := newFrameGen(seed, 0, pool)
		var out [][]byte
		for i := 0; i < 3; i++ {
			f, _, err := gen.next()
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, bytes.Clone(f))
		}
		return out
	}
	a, b, c := frames(5), frames(5), frames(6)
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Errorf("frame %d of seed 5 differs between two collections", i)
		}
		if bytes.Equal(a[i], c[i]) {
			t.Errorf("frame %d is the same for seeds 5 and 6", i)
		}
	}
}

// TestTable1CheckFiresOnAlteredRow runs searcher's four Table 1 cells at
// ref scale, checks them against the committed reference, and then
// against a copy with one of searcher's fields altered.
func TestTable1CheckFiresOnAlteredRow(t *testing.T) {
	searcher, _ := workload.ByName("searcher")
	cells, err := buildCells(profileSet{suite: []workload.Workload{searcher}}, workload.Ref, nil, newOutcome())
	if err != nil {
		t.Fatal(err)
	}
	results := make([]cellResult, len(cells))
	for i := range cells {
		if results[i], _, _, err = runCell(&cells[i], nil, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := checkOutputs(cells, results); err != nil {
		t.Fatal(err)
	}
	ref, err := os.ReadFile("../ref_results.txt")
	if err != nil {
		t.Fatal(err)
	}
	rows := table1Rows(cells, results)
	if err := checkTable1(rows, string(ref)); err != nil {
		t.Fatalf("the real rows fail against the committed reference: %v", err)
	}
	lines := strings.Split(string(ref), "\n")
	for i, l := range lines {
		if f := strings.Fields(l); len(f) == 8 && f[0] == "searcher" {
			lines[i] = strings.Replace(l, " "+f[3]+" ", " 9.99 ", 1)
			break
		}
	}
	altered := strings.Join(lines, "\n")
	if altered == string(ref) {
		t.Fatal("could not alter searcher's Table 1 row")
	}
	if err := checkTable1(rows, altered); err == nil || !strings.Contains(err.Error(), "searcher") {
		t.Errorf("check passed an altered searcher row: %v", err)
	}
	results[1].res.Output = append([]int64{1}, results[1].res.Output...)
	if err := checkOutputs(cells, results); err == nil {
		t.Error("check passed an instrumented run whose output differs from the base run's")
	}
}

// dropOne removes one acknowledged copy of the first counted envelope, as
// if the collector had lost it.
func dropOne(counts []int64) {
	for i, n := range counts {
		if n > 0 {
			counts[i]--
			return
		}
	}
}

func TestServedTablesCheckFiresOnDroppedEnvelope(t *testing.T) {
	for _, name := range []string{"ingest", "query"} {
		cfg := smallConfig(t, name, false)
		cfg.hooks.counts = dropOne
		_, err := workloads[name](cfg, nil)
		if err == nil || !strings.Contains(err.Error(), "check: ") {
			t.Errorf("%s: check passed with one envelope dropped from the reference: %v", name, err)
		}
	}
}

func TestReplayCheckFiresOnTruncatedLog(t *testing.T) {
	cfg := smallConfig(t, "durable", false)
	cfg.hooks.log = func(dir string) error {
		segs, err := filepath.Glob(filepath.Join(dir, "*"))
		if err != nil {
			return err
		}
		var last string
		var size int64
		for _, s := range segs {
			if fi, err := os.Stat(s); err == nil && !fi.IsDir() && fi.Size() > size {
				last, size = s, fi.Size()
			}
		}
		if last == "" {
			t.Fatalf("no segment file in %s", dir)
		}
		// Cut into the final record: recovery drops the torn tail.
		return os.Truncate(last, size-100)
	}
	_, err := runDurable(cfg, nil)
	if err == nil || !strings.Contains(err.Error(), "after replay") {
		t.Errorf("check passed a truncated log: %v", err)
	}
}

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{ID: 1, Name: "parent", Start: 0, End: 10},
		{ID: 2, Parent: 1, Name: "child", Start: 2, End: 4},
		{ID: 3, Parent: 1, Name: "child", Start: 3, End: 6},
		{ID: 4, Parent: 1, Name: "child", Start: 8, End: 12},
	}
	ls := tr.layers()
	// The children cover [2,6] and [8,10] of the parent: 6 of its 10 ns.
	if got := ls["parent"].SelfNs; got != 4 {
		t.Errorf("parent self time %d ns, want 4", got)
	}
	if got := ls["child"].SelfNs; got != 2+3+4 {
		t.Errorf("child self time %d ns, want 9", got)
	}
}
