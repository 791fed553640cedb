package collector

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"pathprof/internal/cct"
	"pathprof/internal/experiments"
	"pathprof/internal/hpm"
	"pathprof/internal/instrument"
	"pathprof/internal/profile"
	"pathprof/internal/workload"
)

// Shared fixture: one real profile and tree (Test scale) reused by every
// test in the package.
var (
	fixtureOnce sync.Once
	fixtureProf *profile.Profile
	fixtureTree *cct.Tree
)

func fixtures(t testing.TB) (*profile.Profile, *cct.Tree) {
	t.Helper()
	fixtureOnce.Do(func() {
		s := experiments.NewSession(workload.Test)
		w, ok := workload.ByName("compress")
		if !ok {
			panic("no compress workload")
		}
		pc, err := s.RunSet(w, instrument.ModePathHW, hpm.NewMetricSet(experiments.StandardEvents[:]...))
		if err != nil {
			panic(err)
		}
		tc, err := s.RunSet(w, instrument.ModeContextFlow, hpm.NewMetricSet(experiments.StandardEvents[:]...))
		if err != nil {
			panic(err)
		}
		fixtureProf, fixtureTree = pc.Profile, tc.Tree
	})
	if fixtureProf == nil || fixtureTree == nil {
		t.Fatal("fixture build failed")
	}
	return fixtureProf, fixtureTree
}

// cloneProfile deep-copies p, metric storage included, so tests can
// derive variants of the shared fixture without mutating it.
func cloneProfile(p *profile.Profile) *profile.Profile {
	q := &profile.Profile{Program: p.Program, Mode: p.Mode, K: p.K}
	if len(p.Events) > 0 {
		q.Events = append([]string(nil), p.Events...)
	}
	q.Procs = make([]*profile.ProcPaths, len(p.Procs))
	for i, pp := range p.Procs {
		cp := &profile.ProcPaths{ProcID: pp.ProcID, Name: pp.Name, NumPaths: pp.NumPaths, K: pp.K}
		cp.Entries = make([]profile.PathEntry, len(pp.Entries))
		copy(cp.Entries, pp.Entries)
		for j := range cp.Entries {
			if src := pp.Entries[j].Metrics; len(src) > 0 {
				cp.Entries[j].Metrics = cp.NewMetrics(len(src))
				copy(cp.Entries[j].Metrics, src)
			}
		}
		q.Procs[i] = cp
	}
	return q
}

func newServer(t *testing.T, cfg Config) (*Collector, *Client) {
	t.Helper()
	c := New(cfg)
	srv := httptest.NewServer(c.Handler())
	t.Cleanup(srv.Close)
	return c, &Client{BaseURL: srv.URL, HTTPClient: srv.Client()}
}

func statusOf(t *testing.T, err error) int {
	t.Helper()
	var ae *apiError
	if !errors.As(err, &ae) {
		t.Fatalf("expected collector apiError, got %v", err)
	}
	return ae.Status
}

func TestIngestAndQuery(t *testing.T) {
	prof, tree := fixtures(t)
	c, cl := newServer(t, Config{Shards: 3})
	ctx := context.Background()

	for i := 0; i < 3; i++ {
		if _, err := cl.PushProfile(ctx, prof); err != nil {
			t.Fatal(err)
		}
		if _, err := cl.PushExport(ctx, tree.Export("compress")); err != nil {
			t.Fatal(err)
		}
	}
	progs, err := cl.Programs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(progs) != 1 || progs[0] != "compress" {
		t.Fatalf("programs = %v", progs)
	}

	merged, ok := c.MergedProfile("compress")
	if !ok {
		t.Fatal("no merged profile")
	}
	wf, wms := prof.Totals()
	gf, gms := merged.Totals()
	wm0, gm0 := wms[0], gms[0]
	if gf != 3*wf || gm0 != 3*wm0 {
		t.Fatalf("merged totals freq=%d m0=%d, want 3x (%d, %d)", gf, gm0, wf, wm0)
	}
	ex, ok := c.MergedExport("compress")
	if !ok {
		t.Fatal("no merged export")
	}
	// Merging identical trees preserves every Table 3 statistic exactly.
	if got, want := ex.Stats(), tree.ComputeStats(); got != want {
		t.Fatalf("merged stats\n got %+v\nwant %+v", got, want)
	}

	for _, n := range []int{3, 4, 5} {
		out, err := cl.Table(ctx, n, []string{"compress"})
		if err != nil {
			t.Fatalf("table %d: %v", n, err)
		}
		if !strings.Contains(out, "compress") {
			t.Fatalf("table %d misses the program row:\n%s", n, out)
		}
	}
	m := c.Metrics()
	if m.IngestedProfiles != 3 || m.IngestedCCTs != 3 || m.IngestedBytes == 0 {
		t.Fatalf("metrics: %+v", m)
	}
}

func TestQueryUnknownProgram(t *testing.T) {
	_, cl := newServer(t, Config{})
	_, err := cl.Table(context.Background(), 3, []string{"nonesuch"})
	if statusOf(t, err) != http.StatusNotFound {
		t.Fatalf("want 404, got %v", err)
	}
}

// TestWholeTableDefault: a request without ?programs= lists only the
// programs holding that table's kind of aggregate, so a profile-only
// program does not break Table 3, nor a CCT-only one Tables 4, 5 and
// metrics. A program named explicitly without one still gets 404.
func TestWholeTableDefault(t *testing.T) {
	prof, tree := fixtures(t)
	_, cl := newServer(t, Config{Shards: 2})
	ctx := context.Background()
	k2 := cloneProfile(prof)
	k2.Program = "compress.k2"
	for _, push := range []func() error{
		func() error { _, err := cl.PushProfile(ctx, prof); return err },
		func() error { _, err := cl.PushProfile(ctx, k2); return err },
		func() error { _, err := cl.PushExport(ctx, tree.Export("compress")); return err },
		func() error { _, err := cl.PushExport(ctx, tree.Export("cctonly")); return err },
	} {
		if err := push(); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		table       int
		rows, avoid []string
	}{
		{3, []string{"compress"}, []string{"compress.k2"}},
		{4, []string{"compress", "compress.k2"}, []string{"cctonly"}},
		{5, []string{"compress", "compress.k2"}, []string{"cctonly"}},
		{0, []string{"compress", "compress.k2"}, []string{"cctonly"}},
	} {
		var out string
		var err error
		if tc.table == 0 {
			out, err = cl.MetricTable(ctx, nil)
		} else {
			out, err = cl.Table(ctx, tc.table, nil)
		}
		if err != nil {
			t.Fatalf("whole table %d: %v", tc.table, err)
		}
		for _, name := range tc.rows {
			if !strings.Contains(out, name+" ") {
				t.Errorf("whole table %d lacks %s:\n%s", tc.table, name, out)
			}
		}
		for _, name := range tc.avoid {
			if strings.Contains(out, name) {
				t.Errorf("whole table %d lists %s:\n%s", tc.table, name, out)
			}
		}
	}
	if _, err := cl.Table(ctx, 3, []string{"compress.k2"}); statusOf(t, err) != http.StatusNotFound {
		t.Errorf("table 3 naming a profile-only program: want 404, got %v", err)
	}
	if _, err := cl.MetricTable(ctx, []string{"cctonly"}); statusOf(t, err) != http.StatusNotFound {
		t.Errorf("metrics naming a CCT-only program: want 404, got %v", err)
	}
}

func TestOversizedBodyRejected(t *testing.T) {
	prof, _ := fixtures(t)
	c, cl := newServer(t, Config{MaxBodyBytes: 64})
	_, err := cl.PushProfile(context.Background(), prof)
	if statusOf(t, err) != http.StatusRequestEntityTooLarge {
		t.Fatalf("want 413, got %v", err)
	}
	if c.Metrics().RejectedTooLarge != 1 {
		t.Fatalf("metrics: %+v", c.Metrics())
	}
}

func TestBadPayloadRejected(t *testing.T) {
	c, cl := newServer(t, Config{})
	resp, err := cl.http().Post(cl.BaseURL+"/ingest", "application/octet-stream",
		strings.NewReader("this is not a wire envelope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("want 400, got %d", resp.StatusCode)
	}
	if c.Metrics().RejectedBad != 1 {
		t.Fatalf("metrics: %+v", c.Metrics())
	}
}

func TestModeConflictRejected(t *testing.T) {
	prof, _ := fixtures(t)
	_, cl := newServer(t, Config{Shards: 1})
	ctx := context.Background()
	if _, err := cl.PushProfile(ctx, prof); err != nil {
		t.Fatal(err)
	}
	other := cloneProfile(prof)
	other.Mode = "context+hw"
	_, err := cl.PushProfile(ctx, other)
	if statusOf(t, err) != http.StatusConflict {
		t.Fatalf("want 409, got %v", err)
	}
}

func TestSchemaConflictRejected(t *testing.T) {
	prof, _ := fixtures(t)
	c, cl := newServer(t, Config{Shards: 1})
	ctx := context.Background()
	if _, err := cl.PushProfile(ctx, prof); err != nil {
		t.Fatal(err)
	}
	// Same program, same mode, same shape — but the pusher counted
	// different events, so slot-wise summing would be meaningless.
	other := cloneProfile(prof)
	other.Events = []string{"cycles", "branches"}
	_, err := cl.PushProfile(ctx, other)
	if statusOf(t, err) != http.StatusConflict {
		t.Fatalf("want 409, got %v", err)
	}
	if c.Metrics().RejectedConflict != 1 {
		t.Fatalf("metrics: %+v", c.Metrics())
	}
	// The aggregate still answers with the original schema.
	merged, ok := c.MergedProfile(prof.Program)
	if !ok || merged.SchemaKey() != prof.SchemaKey() {
		t.Fatalf("aggregate schema %q, want %q", merged.SchemaKey(), prof.SchemaKey())
	}
}

// TestNamedMetricTable: /table/metrics renders each program's totals under
// the metric names its schema declares, and programs with disjoint schemas
// contribute disjoint columns.
func TestNamedMetricTable(t *testing.T) {
	prof, _ := fixtures(t)
	_, cl := newServer(t, Config{Shards: 2})
	ctx := context.Background()
	if _, err := cl.PushProfile(ctx, prof); err != nil {
		t.Fatal(err)
	}
	wide := &profile.Profile{
		Program: "wideprog", Mode: prof.Mode,
		Events: []string{"cycles", "branches", "icache-miss"},
		Procs: []*profile.ProcPaths{
			{ProcID: 0, Name: "main", NumPaths: 2, Entries: []profile.PathEntry{
				profile.NewEntry(0, 5, 500, 60, 7),
			}},
		},
	}
	if _, err := cl.PushProfile(ctx, wide); err != nil {
		t.Fatal(err)
	}
	out, err := cl.MetricTable(ctx, []string{prof.Program, "wideprog"})
	if err != nil {
		t.Fatal(err)
	}
	header := out[:strings.Index(out, "\n----")]
	for _, ev := range append(append([]string{}, prof.Events...), wide.Events...) {
		if !strings.Contains(header, ev) {
			t.Fatalf("column %q missing from header of:\n%s", ev, out)
		}
	}
	for _, want := range []string{prof.Program, "wideprog", "500"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table misses %q:\n%s", want, out)
		}
	}
	// wideprog has no dcache-miss column; its row must show the blank
	// placeholder.
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "wideprog") && !strings.Contains(line, "-") {
			t.Fatalf("wideprog row has no placeholder for unschemed columns: %q", line)
		}
	}
	// Unknown program: 404, same as the numbered tables.
	_, err = cl.MetricTable(ctx, []string{"nonesuch"})
	if statusOf(t, err) != http.StatusNotFound {
		t.Fatalf("want 404, got %v", err)
	}
}

func TestShapeConflictRejected(t *testing.T) {
	_, tree := fixtures(t)
	_, cl := newServer(t, Config{Shards: 1})
	ctx := context.Background()
	if _, err := cl.PushExport(ctx, tree.Export("compress")); err != nil {
		t.Fatal(err)
	}
	bad := tree.Export("compress")
	bad.NumProcs++
	_, err := cl.PushExport(ctx, bad)
	if statusOf(t, err) != http.StatusConflict {
		t.Fatalf("want 409, got %v", err)
	}
}

// TestSlowClientTimesOut: a client that stalls mid-body gets 408 instead
// of pinning an admission slot forever. Driven over raw TCP because the
// point is the server's behaviour while the body is still incomplete.
func TestSlowClientTimesOut(t *testing.T) {
	c, cl := newServer(t, Config{RequestTimeout: 50 * time.Millisecond})
	conn, err := net.Dial("tcp", strings.TrimPrefix(cl.BaseURL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Declare a large body, send four bytes, stall.
	_, err = io.WriteString(conn, "POST /ingest HTTP/1.1\r\nHost: collector\r\n"+
		"Content-Type: application/octet-stream\r\nContent-Length: 4096\r\n\r\nPPW1")
	if err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatalf("server never timed the request out: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestTimeout {
		t.Fatalf("want 408, got %d", resp.StatusCode)
	}
	if c.Metrics().RejectedTimeout != 1 {
		t.Fatalf("metrics: %+v", c.Metrics())
	}
}

// TestShutdownDrains: Shutdown waits for an in-flight push to finish
// merging, and everything after the drain is rejected with 503.
func TestShutdownDrains(t *testing.T) {
	prof, _ := fixtures(t)
	c, cl := newServer(t, Config{})
	ctx := context.Background()

	data := profileFrame(t, prof)

	pr, pw := io.Pipe()
	resp := make(chan int, 1)
	go func() {
		r, err := cl.http().Post(cl.BaseURL+"/ingest", "application/octet-stream", pr)
		if err != nil {
			resp <- -1
			return
		}
		r.Body.Close()
		resp <- r.StatusCode
	}()
	// First half of the body, then hold the request in flight.
	if _, err := pw.Write(data[:len(data)/2]); err != nil {
		t.Fatal(err)
	}
	for i := 0; c.Metrics().Inflight == 0; i++ {
		if i > 1000 {
			t.Fatal("ingest never became in-flight")
		}
		time.Sleep(time.Millisecond)
	}

	shut := make(chan error, 1)
	go func() { shut <- c.Shutdown(ctx) }()
	select {
	case err := <-shut:
		t.Fatalf("Shutdown returned %v with a push still in flight", err)
	case <-time.After(50 * time.Millisecond):
	}

	// Finish the body: the in-flight push must complete and merge.
	if _, err := pw.Write(data[len(data)/2:]); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	if code := <-resp; code != http.StatusOK {
		t.Fatalf("in-flight push got %d, want 200", code)
	}
	if err := <-shut; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if _, ok := c.MergedProfile("compress"); !ok {
		t.Fatal("drained push was not merged")
	}
	// Everything after the drain: 503.
	_, err := cl.PushProfile(ctx, prof)
	if statusOf(t, err) != http.StatusServiceUnavailable {
		t.Fatalf("want 503 after drain, got %v", err)
	}
	hr, err := cl.http().Get(cl.BaseURL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz after drain: %d, want 503", hr.StatusCode)
	}
}

// TestShutdownTimeout: a drain that cannot finish respects ctx.
func TestShutdownTimeout(t *testing.T) {
	c, cl := newServer(t, Config{})
	pr, pw := io.Pipe()
	defer pw.Close()
	go func() {
		resp, err := cl.http().Post(cl.BaseURL+"/ingest", "application/octet-stream", pr)
		if err == nil {
			resp.Body.Close()
		}
	}()
	pw.Write([]byte("PP"))
	for i := 0; c.Metrics().Inflight == 0; i++ {
		if i > 1000 {
			t.Fatal("ingest never became in-flight")
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := c.Shutdown(ctx); err == nil {
		t.Fatal("Shutdown ignored its context")
	}
}

// TestConcurrentPushAndQuery: pushes and table queries interleave without
// races (run under -race in CI) and every push lands in the aggregate.
func TestConcurrentPushAndQuery(t *testing.T) {
	prof, tree := fixtures(t)
	c, cl := newServer(t, Config{Shards: 4, MaxConcurrent: 8})
	ctx := context.Background()
	const pushers = 4
	const perPusher = 3

	var wg sync.WaitGroup
	errs := make(chan error, pushers*perPusher*5) // room for every send: 2 per push round, 3 per read round
	for i := 0; i < pushers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perPusher; j++ {
				if _, err := cl.PushProfile(ctx, prof); err != nil {
					errs <- err
				}
				if _, err := cl.PushExport(ctx, tree.Export("compress")); err != nil {
					errs <- err
				}
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perPusher; j++ {
				for _, n := range []int{3, 5} {
					// Before the first push lands the table is empty.
					if _, err := cl.Table(ctx, n, nil); err != nil {
						errs <- err
					}
				}
				if _, err := cl.http().Get(cl.BaseURL + "/metrics"); err != nil {
					errs <- err
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	total := pushers * perPusher
	m := c.Metrics()
	if int(m.IngestedProfiles) != total || int(m.IngestedCCTs) != total {
		t.Fatalf("ingested %d profiles / %d ccts, want %d each", m.IngestedProfiles, m.IngestedCCTs, total)
	}
	merged, _ := c.MergedProfile("compress")
	wf, _ := prof.Totals()
	gf, _ := merged.Totals()
	if gf != uint64(total)*wf {
		t.Fatalf("merged freq %d, want %d", gf, uint64(total)*wf)
	}
	ex, _ := c.MergedExport("compress")
	if got, want := ex.Stats(), tree.ComputeStats(); got != want {
		t.Fatalf("merged stats diverged\n got %+v\nwant %+v", got, want)
	}
}
