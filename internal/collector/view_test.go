package collector

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"pathprof/internal/agg"
	"pathprof/internal/analysis"
	"pathprof/internal/experiments"
	"pathprof/internal/profile"
	"pathprof/internal/report"
	"pathprof/internal/wire"
)

var viewTables = []string{"3", "4", "5", "metrics"}

// holding returns the programs holding a CCT aggregate (a profile
// aggregate when ccts is false), read straight from the shard maps.
func holding(c *Collector, ccts bool) []string {
	seen := map[string]bool{}
	for _, sh := range c.shards {
		sh.mu.Lock()
		if ccts {
			for name := range sh.CCTs {
				seen[name] = true
			}
		} else {
			for name := range sh.Profiles {
				seen[name] = true
			}
		}
		sh.mu.Unlock()
	}
	out := []string{}
	for name := range seen {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// refMetricTable renders the named-metric table from merged profiles as
// the handler did when it merged on every request.
func refMetricTable(names []string, profs []*profile.Profile, w io.Writer) {
	var cols []string
	seen := map[string]bool{}
	totals := make([]map[string]uint64, len(profs))
	freqs := make([]uint64, len(profs))
	for k, p := range profs {
		freq, ms := p.Totals()
		totals[k] = map[string]uint64{}
		freqs[k] = freq
		for i, ev := range p.Events {
			if ev == "" {
				ev = "slot" + strconv.Itoa(i)
			}
			if !seen[ev] {
				seen[ev] = true
				cols = append(cols, ev)
			}
			totals[k][ev] += ms[i]
		}
	}
	t := &report.Table{
		Title: "Merged profile totals by named metric",
		Cols:  append([]string{"Program", "Path execs"}, cols...),
	}
	for k, name := range names {
		vals := []interface{}{name, freqs[k]}
		for _, ev := range cols {
			if v, ok := totals[k][ev]; ok {
				vals = append(vals, v)
			} else {
				vals = append(vals, "-")
			}
		}
		t.AddRow(vals...)
	}
	t.Render(w)
}

// freshTable is what a table request must answer: status and body
// rendered from fresh MergedProfile/MergedExport calls. names nil is the
// whole-table request.
func freshTable(c *Collector, table string, names []string) (int, string) {
	if names == nil {
		names = holding(c, table == "3")
	}
	var buf bytes.Buffer
	if table == "3" {
		var rows []experiments.Table3Row
		for _, name := range names {
			ex, ok := c.MergedExport(name)
			if !ok {
				return http.StatusNotFound, "no CCT aggregate for " + name + "\n"
			}
			rows = append(rows, experiments.Table3Row{Name: name, Stats: ex.Stats()})
		}
		experiments.RenderTable3(rows, &buf)
		return http.StatusOK, buf.String()
	}
	var profs []*profile.Profile
	for _, name := range names {
		p, ok := c.MergedProfile(name)
		if !ok {
			return http.StatusNotFound, "no profile aggregate for " + name + "\n"
		}
		profs = append(profs, p)
	}
	switch table {
	case "4":
		var rows []experiments.Table4Result
		for i, p := range profs {
			rows = append(rows, experiments.Table4FromProfile(names[i], p))
		}
		experiments.RenderTable4(rows, &buf)
	case "5":
		var rows []analysis.ProcReport
		for _, p := range profs {
			rows = append(rows, analysis.ClassifyProcs(p, analysis.DefaultHotThreshold))
		}
		experiments.RenderTable5(rows, &buf)
	default:
		refMetricTable(names, profs, &buf)
	}
	return http.StatusOK, buf.String()
}

// serveTable answers one table request through h.
func serveTable(h http.Handler, table string, names []string) (int, string) {
	url := "/table/" + table
	if names != nil {
		url += "?programs=" + strings.Join(names, ",")
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
	return rec.Code, rec.Body.String()
}

// checkTable serves one request and compares it with a fresh compute.
func checkTable(t *testing.T, what string, c *Collector, h http.Handler, table string, names []string) {
	t.Helper()
	code, body := serveTable(h, table, names)
	wantCode, wantBody := freshTable(c, table, names)
	if code != wantCode || body != wantBody {
		t.Fatalf("%s: /table/%s %v served %d:\n%s\nfresh compute %d:\n%s", what, table, names, code, body, wantCode, wantBody)
	}
}

// postIngest pushes one payload through h and returns the status.
func postIngest(h http.Handler, payload []byte) int {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/ingest", bytes.NewReader(payload)))
	return rec.Code
}

// TestViewsMatchFreshReads is the model test for table views: seeded
// random interleavings of frame folds, one-item pushes,
// conflicting pushes, Take and table reads, at 1-5 shards. Every served
// table must equal the one rendered from fresh merges at that point.
func TestViewsMatchFreshReads(t *testing.T) {
	inputs := mergeInputs(t)
	names := []string{"compiler", "compress", "compiler-k2", "compiler-noevents", "nonesuch"}
	seeds := 60
	if testing.Short() {
		seeds = 10
	}
	var conflicts, hits, reads int
	for seed := 1; seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		shards := 1 + (seed-1)%5
		c := New(Config{Shards: shards})
		h := c.Handler()
		what := func(step int) string { return fmt.Sprintf("seed %d shards %d step %d", seed, shards, step) }
		for step := 0; step < 80; step++ {
			in := inputs[rng.Intn(len(inputs))]
			switch op := rng.Intn(20); {
			case op < 4:
				bw := wire.NewBatchWriter()
				for n := 1 + rng.Intn(4); n > 0; n-- {
					in := inputs[rng.Intn(len(inputs))]
					var err error
					if in.tree != nil && rng.Intn(2) == 0 {
						err = bw.AddExport(varyExport(rng, in.tree, in.name))
					} else {
						err = bw.AddProfile(varyProfile(rng, in.prof, in.name))
					}
					if err != nil {
						t.Fatal(err)
					}
				}
				// An earlier conflicting push that met no aggregate of its
				// program (after a Take, say) seeded one that later items
				// conflict with.
				var ce *agg.ConflictError
				if _, _, err := c.IngestFrame(bw.Frame()); err != nil && !errors.As(err, &ce) {
					t.Fatalf("%s: %v", what(step), err)
				}
			case op < 10: // a one-item frame; from op 8 on, one that conflicts
				var frame []byte
				if in.tree != nil && rng.Intn(2) == 0 {
					ex := varyExport(rng, in.tree, in.name)
					if op >= 8 {
						ex.NumProcs++
					}
					frame = exportFrame(t, ex)
				} else {
					p := varyProfile(rng, in.prof, in.name)
					if op >= 8 {
						p.Mode = "context+hw"
					}
					frame = profileFrame(t, p)
				}
				switch code := postIngest(h, frame); code {
				case http.StatusConflict:
					conflicts++
				case http.StatusOK:
				default:
					t.Fatalf("%s: push answered %d", what(step), code)
				}
			case op == 10:
				c.Take()
				if len(c.profViews)+len(c.cctViews) != 0 {
					t.Fatalf("%s: Take left %d profile and %d CCT views", what(step), len(c.profViews), len(c.cctViews))
				}
			default:
				var sel []string
				if rng.Intn(2) == 0 {
					for _, i := range rng.Perm(len(names))[:1+rng.Intn(len(names))] {
						sel = append(sel, names[i])
					}
				}
				checkTable(t, what(step), c, h, viewTables[rng.Intn(len(viewTables))], sel)
				reads++
			}
		}
		checkHomes(t, c)
		hits += int(c.Metrics().TableViewHits)
	}
	t.Logf("%d reads, %d row reads served from a view, %d pushes refused as conflicts", reads, hits, conflicts)
	if conflicts == 0 || hits == 0 {
		t.Fatalf("the interleavings exercised %d conflicts and %d view hits; the test needs both", conflicts, hits)
	}
}

// viewCounts reads the view counters from /metrics.
func viewCounts(t *testing.T, h http.Handler) (hits, misses uint64) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	var m struct {
		Hits   *uint64 `json:"table_view_hits"`
		Misses *uint64 `json:"table_view_misses"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil || m.Hits == nil || m.Misses == nil {
		t.Fatalf("/metrics lacks the view counters (err %v):\n%s", err, rec.Body.Bytes())
	}
	return *m.Hits, *m.Misses
}

// TestViewInvalidation pins the invalidation rule and its counters: a
// read with no fold since the last is served from the views; a fold of
// one program recomputes that program's view of that kind and nothing
// else, though its home shard may home other programs too; Take leaves no
// views.
func TestViewInvalidation(t *testing.T) {
	inputs := mergeInputs(t)
	const shards = 3
	c := New(Config{Shards: shards})
	h := c.Handler()
	bw := wire.NewBatchWriter()
	for _, in := range inputs {
		p := cloneProfile(in.prof)
		p.Program = in.name
		for range shards {
			if err := bw.AddProfile(p); err != nil {
				t.Fatal(err)
			}
			if in.tree != nil {
				if err := bw.AddExport(in.tree.Export(in.name)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if _, _, err := c.IngestFrame(bw.Frame()); err != nil {
		t.Fatal(err)
	}
	profs, ccts := len(holding(c, false)), len(holding(c, true))
	readAll := func(what string) {
		t.Helper()
		for _, table := range viewTables {
			checkTable(t, what, c, h, table, nil)
		}
	}
	expect := func(what string, hits, misses uint64) {
		t.Helper()
		if h, m := viewCounts(t, h); h != hits || m != misses {
			t.Fatalf("%s: %d hits and %d misses, want %d and %d", what, h, m, hits, misses)
		}
	}

	// Table 4 derives each profile view; Tables 5 and metrics reuse it.
	readAll("cold")
	hits, misses := uint64(2*profs), uint64(profs+ccts)
	expect("cold read", hits, misses)
	readAll("warm")
	hits += uint64(3*profs + ccts)
	expect("warm read", hits, misses)

	rng := rand.New(rand.NewSource(1))
	for i := range 4 {
		for _, in := range inputs[:2] {
			profBefore, cctBefore := maps.Clone(c.profViews), maps.Clone(c.cctViews)
			frame := profileFrame(t, varyProfile(rng, in.prof, in.name))
			if i%2 == 1 {
				frame = exportFrame(t, varyExport(rng, in.tree, in.name))
			}
			if _, _, err := c.IngestFrame(frame); err != nil {
				t.Fatal(err)
			}
			if i%2 == 0 {
				readAll("after a profile fold")
				hits += uint64(3*profs - 1 + ccts)
			} else {
				readAll("after a CCT fold")
				hits += uint64(3*profs + ccts - 1)
			}
			misses++
			expect(fmt.Sprintf("fold %d of %s", i, in.name), hits, misses)
			for name, v := range c.profViews {
				if changed := profBefore[name] != v; changed != (i%2 == 0 && name == in.name) {
					t.Errorf("fold %d of %s: profile view of %s recomputed: %v", i, in.name, name, changed)
				}
			}
			for name, v := range c.cctViews {
				if changed := cctBefore[name] != v; changed != (i%2 == 1 && name == in.name) {
					t.Errorf("fold %d of %s: CCT view of %s recomputed: %v", i, in.name, name, changed)
				}
			}
		}
	}

	c.Take()
	if len(c.profViews)+len(c.cctViews) != 0 {
		t.Fatalf("Take left %d profile and %d CCT views", len(c.profViews), len(c.cctViews))
	}
	readAll("after Take")
}

// TestViewsConcurrent: readers and writers share the collector (CI runs
// it under -race); once they finish, every table must equal a fresh
// compute.
func TestViewsConcurrent(t *testing.T) {
	inputs := mergeInputs(t)
	c := New(Config{Shards: 4})
	h := c.Handler()
	rng := rand.New(rand.NewSource(1))
	const writers, readers, frames = 2, 3, 30
	var payloads [writers][][]byte
	for w := range payloads {
		for range frames {
			bw := wire.NewBatchWriter()
			for _, in := range inputs {
				if err := bw.AddProfile(varyProfile(rng, in.prof, in.name)); err != nil {
					t.Fatal(err)
				}
				if in.tree != nil {
					if err := bw.AddExport(varyExport(rng, in.tree, in.name)); err != nil {
						t.Fatal(err)
					}
				}
			}
			payloads[w] = append(payloads[w], append([]byte(nil), bw.Frame()...))
		}
	}
	var wg sync.WaitGroup
	for _, ps := range payloads {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, p := range ps {
				if _, _, err := c.IngestFrame(p); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	for range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < frames; i++ {
				for _, table := range viewTables {
					if code, body := serveTable(h, table, nil); code != http.StatusOK {
						t.Errorf("/table/%s answered %d: %s", table, code, body)
					}
				}
			}
		}()
	}
	wg.Wait()
	for _, table := range viewTables {
		checkTable(t, "after the concurrent reads and folds", c, h, table, nil)
	}
}

// TestViewCellsFormattedOnRead: a profile view formats each table's
// cells on the first read of that table from it, so after a fold a
// /table/metrics read formats neither Table 4's nor Table 5's cells, and
// a following /table/4 read formats Table 4's alone.
func TestViewCellsFormattedOnRead(t *testing.T) {
	prof, _ := fixtures(t)
	c := New(Config{Shards: 2})
	h := c.Handler()
	view := func() *profView {
		c.viewMu.Lock()
		defer c.viewMu.Unlock()
		return c.profViews[prof.Program]
	}
	serve := func(table string) {
		t.Helper()
		if code, body := serveTable(h, table, nil); code != http.StatusOK {
			t.Fatalf("/table/%s answered %d: %s", table, code, body)
		}
	}
	for range 2 {
		if _, _, err := c.IngestFrame(profileFrame(t, prof)); err != nil {
			t.Fatal(err)
		}
		serve("4")
		serve("5")
	}
	if v := view(); v.t4cells == nil || v.t5cells == nil {
		t.Fatal("Table 4 and 5 reads left their cells unformatted")
	}

	if _, _, err := c.IngestFrame(profileFrame(t, prof)); err != nil {
		t.Fatal(err)
	}
	serve("metrics")
	v := view()
	if v.t4cells != nil || v.t5cells != nil {
		t.Fatal("a /table/metrics read formatted Table 4 or Table 5 cells")
	}
	serve("4")
	if view() != v {
		t.Fatal("the /table/4 read did not answer from the view /table/metrics built")
	}
	if v.t4cells == nil || v.t5cells != nil {
		t.Fatalf("after a /table/4 read: Table 4 cells formatted %v, Table 5 cells formatted %v; want true, false",
			v.t4cells != nil, v.t5cells != nil)
	}
}
