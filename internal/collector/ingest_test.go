package collector

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pathprof/internal/cct"
	"pathprof/internal/profile"
	"pathprof/internal/wire"
)

// envelope is one queued push for the batch-vs-singles oracle.
type envelope struct {
	p  *profile.Profile
	ex *cct.Export
}

// testEnvelopes builds an interleaved multiset of pushes: several copies
// of the fixture profile and tree, plus a second program so frames span
// programs.
func testEnvelopes(t *testing.T, copies int) []envelope {
	t.Helper()
	prof, tree := fixtures(t)
	other := cloneProfile(prof)
	other.Program = "otherprog"
	ex2 := tree.Export("otherprog")
	var out []envelope
	for i := 0; i < copies; i++ {
		out = append(out,
			envelope{ex: tree.Export("compress")},
			envelope{p: prof},
			envelope{ex: ex2},
			envelope{p: other},
		)
	}
	return out
}

func tableBytes(t *testing.T, cl *Client, programs []string) [3]string {
	t.Helper()
	var out [3]string
	for i, n := range []int{3, 4, 5} {
		s, err := cl.Table(context.Background(), n, programs)
		if err != nil {
			t.Fatalf("table %d: %v", n, err)
		}
		out[i] = s
	}
	return out
}

// TestBatchIngestMatchesSingles is the batching correctness oracle:
// pushing the same envelope multiset as wire-v3 frames of any batch
// size, into a collector with any shard count, must render tables 3, 4
// and 5 byte-identical to one-envelope-per-POST ingest.
func TestBatchIngestMatchesSingles(t *testing.T) {
	envs := testEnvelopes(t, 10)
	programs := []string{"compress", "otherprog"}
	ctx := context.Background()

	// Reference: one envelope per POST, each a one-item frame.
	_, singleCl := newServer(t, Config{Shards: 4})
	for _, e := range envs {
		var err error
		if e.p != nil {
			_, err = singleCl.PushProfile(ctx, e.p)
		} else {
			_, err = singleCl.PushExport(ctx, e.ex)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	want := tableBytes(t, singleCl, programs)

	for _, batch := range []int{1, 7, 64} {
		for _, shards := range []int{1, 3, 5} {
			c, cl := newServer(t, Config{Shards: shards})
			bw := wire.NewBatchWriter()
			flush := func() {
				if bw.Items() == 0 {
					return
				}
				if _, err := cl.PushFrame(ctx, bw.Frame()); err != nil {
					t.Fatal(err)
				}
				bw.Reset()
			}
			for _, e := range envs {
				var err error
				if e.p != nil {
					err = bw.AddProfile(e.p)
				} else {
					err = bw.AddExport(e.ex)
				}
				if err != nil {
					t.Fatal(err)
				}
				if bw.Items() >= batch {
					flush()
				}
			}
			flush()
			if got := c.Metrics().IngestedProfiles + c.Metrics().IngestedCCTs; got != uint64(len(envs)) {
				t.Fatalf("batch=%d shards=%d: ingested %d envelopes, want %d", batch, shards, got, len(envs))
			}
			got := tableBytes(t, cl, programs)
			for i, n := range []int{3, 4, 5} {
				if got[i] != want[i] {
					t.Errorf("batch=%d shards=%d: table %d differs from single-envelope ingest\n--- batched ---\n%s\n--- singles ---\n%s",
						batch, shards, n, got[i], want[i])
				}
			}
		}
	}
}

// TestFrameFoldAllocs: once a program's aggregate exists, folding a
// frame allocates nothing — the decode-to-shard loop runs entirely in
// pooled scratch and existing aggregate storage.
func TestFrameFoldAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; counts are only meaningful without it")
	}
	prof, tree := fixtures(t)
	bw := wire.NewBatchWriter()
	for i := 0; i < 8; i++ {
		if err := bw.AddProfile(prof); err != nil {
			t.Fatal(err)
		}
		if err := bw.AddExport(tree.Export("compress")); err != nil {
			t.Fatal(err)
		}
	}
	frame := bw.Frame()
	c := New(Config{Shards: 2})
	// First frame grafts the aggregates (and warms the scratch pool).
	for i := 0; i < 3; i++ {
		if _, _, err := c.IngestFrame(frame); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(50, func() {
		if _, _, err := c.IngestFrame(frame); err != nil {
			t.Fatal(err)
		}
	})
	if avg >= 1 {
		t.Fatalf("steady-state IngestFrame allocates %.1f objects per 16-envelope frame, want 0", avg)
	}
}

// TestQueueFullSheds: with every concurrency slot busy and the wait
// queue full, a new push is shed immediately with 429 and a Retry-After
// hint, and the rejection is counted.
func TestQueueFullSheds(t *testing.T) {
	c, cl := newServer(t, Config{MaxConcurrent: 1, MaxQueue: 1, RetryAfter: 2 * time.Second})

	// Occupy the slot and the queue with pushes whose bodies never
	// finish.
	var conns []net.Conn
	defer func() {
		for _, conn := range conns {
			conn.Close()
		}
	}()
	stall := func() {
		conn, err := net.Dial("tcp", strings.TrimPrefix(cl.BaseURL, "http://"))
		if err != nil {
			t.Fatal(err)
		}
		conns = append(conns, conn)
		_, err = io.WriteString(conn, "POST /ingest HTTP/1.1\r\nHost: collector\r\n"+
			"Content-Type: application/octet-stream\r\nContent-Length: 4096\r\n\r\nPPW1")
		if err != nil {
			t.Fatal(err)
		}
	}
	stall() // takes the slot
	waitFor(t, func() bool { return c.Metrics().Inflight == 1 && c.Metrics().QueueDepth == 0 })
	stall() // waits in the queue
	waitFor(t, func() bool { return c.Metrics().QueueDepth == 1 })

	resp, err := cl.http().Post(cl.BaseURL+"/ingest", "application/octet-stream", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("want 429 when the queue is full, got %d", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "2" {
		t.Fatalf("Retry-After = %q, want %q", got, "2")
	}
	if m := c.Metrics(); m.RejectedQueueFull != 1 {
		t.Fatalf("metrics: %+v", m)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	for i := 0; ; i++ {
		if cond() {
			return
		}
		if i > 2000 {
			t.Fatal("condition never became true")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestClientRetries: a client with a RetryPolicy rides out 429 responses
// and succeeds when the collector recovers, and surfaces the parsed
// Retry-After hint on terminal failures.
func TestClientRetries(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			http.Error(w, "ingest queue is full", http.StatusTooManyRequests)
			return
		}
		writeJSON(w, IngestResponse{Kind: "batch", Envelopes: 1, Profiles: 1})
	}))
	defer srv.Close()

	prof, _ := fixtures(t)
	cl := &Client{BaseURL: srv.URL, HTTPClient: srv.Client(),
		Retry: &RetryPolicy{MaxAttempts: 5, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond}}
	if _, err := cl.PushProfile(context.Background(), prof); err != nil {
		t.Fatalf("push should have succeeded on the third attempt: %v", err)
	}
	if n := calls.Load(); n != 3 {
		t.Fatalf("server saw %d attempts, want 3", n)
	}

	// A 400 is permanent: no retries.
	calls.Store(0)
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "nope", http.StatusBadRequest)
	}))
	defer bad.Close()
	cl.BaseURL, cl.HTTPClient = bad.URL, bad.Client()
	if _, err := cl.PushProfile(context.Background(), prof); err == nil {
		t.Fatal("want error from permanent 400")
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("server saw %d attempts for a permanent error, want 1", n)
	}

	// The Retry-After hint is parsed into the terminal error.
	hint := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "7")
		http.Error(w, "busy", http.StatusTooManyRequests)
	}))
	defer hint.Close()
	plain := &Client{BaseURL: hint.URL, HTTPClient: hint.Client()}
	_, err := plain.PushProfile(context.Background(), prof)
	ae, ok := err.(*apiError)
	if !ok || ae.RetryAfter != 7*time.Second {
		t.Fatalf("want apiError with 7s Retry-After, got %v", err)
	}
}

// TestRetryRespectsContext: cancellation aborts the backoff sleep, not
// just in-flight requests.
func TestRetryRespectsContext(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "busy", http.StatusTooManyRequests)
	}))
	defer srv.Close()
	prof, _ := fixtures(t)
	cl := &Client{BaseURL: srv.URL, HTTPClient: srv.Client(),
		Retry: &RetryPolicy{MaxAttempts: 10, BaseDelay: time.Hour, MaxDelay: time.Hour}}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := cl.PushProfile(ctx, prof)
	if err == nil {
		t.Fatal("push should have failed")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancellation took %v; the retry loop slept through it", elapsed)
	}
}

// TestDrainDuringRetry: a client retrying through backpressure while the
// collector shuts down must terminate with an error, and the drain must
// complete — exercised under -race in CI.
func TestDrainDuringRetry(t *testing.T) {
	prof, _ := fixtures(t)
	c, cl := newServer(t, Config{MaxConcurrent: 1, MaxQueue: 1})
	cl.Retry = &RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond}

	// Saturate: one stalled push holds the slot, one waits.
	conn, err := net.Dial("tcp", strings.TrimPrefix(cl.BaseURL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	io.WriteString(conn, "POST /ingest HTTP/1.1\r\nHost: collector\r\n"+
		"Content-Type: application/octet-stream\r\nContent-Length: 4096\r\n\r\nPPW1")
	waitFor(t, func() bool { return c.Metrics().Inflight == 1 })
	conn2, err := net.Dial("tcp", strings.TrimPrefix(cl.BaseURL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	io.WriteString(conn2, "POST /ingest HTTP/1.1\r\nHost: collector\r\n"+
		"Content-Type: application/octet-stream\r\nContent-Length: 4096\r\n\r\nPPW1")
	waitFor(t, func() bool { return c.Metrics().QueueDepth == 1 })

	// Retry loop racing the drain: first attempt is shed with 429, and
	// by the time it retries the collector is draining (503) or gone.
	pushErr := make(chan error, 1)
	go func() {
		_, err := cl.PushProfile(context.Background(), prof)
		pushErr <- err
	}()
	waitFor(t, func() bool { return c.Metrics().RejectedQueueFull >= 1 })
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	c.Shutdown(ctx) // times out on the stalled pushes; draining is set
	if err := <-pushErr; err == nil {
		t.Fatal("retrying push should not succeed through a drain")
	}
	if !c.Metrics().Draining {
		t.Fatal("collector is not draining")
	}
}

// TestBatcher: the batcher flushes on size, flushes a stale partial
// batch after MaxWait, and makes flush failures sticky.
func TestBatcher(t *testing.T) {
	prof, tree := fixtures(t)
	c, cl := newServer(t, Config{Shards: 2})
	ctx := context.Background()

	b := NewBatcher(cl, 3, time.Hour)
	for i := 0; i < 7; i++ {
		if err := b.AddProfile(ctx, prof); err != nil {
			t.Fatal(err)
		}
	}
	// 7 adds at MaxItems=3: two full frames flushed inline, one pending.
	if m := c.Metrics(); m.IngestedProfiles != 6 || m.IngestedFrames != 2 {
		t.Fatalf("after size flushes: %+v", m)
	}
	if err := b.AddExport(ctx, tree.Export("compress")); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if m := c.Metrics(); m.IngestedProfiles != 7 || m.IngestedCCTs != 1 {
		t.Fatalf("after close: %+v", m)
	}
	if err := b.AddProfile(ctx, prof); err == nil {
		t.Fatal("add after close should fail")
	}

	// MaxWait flush: a lone envelope arrives without further traffic.
	bt := NewBatcher(cl, 100, 20*time.Millisecond)
	if err := bt.AddProfile(ctx, prof); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return c.Metrics().IngestedProfiles == 8 })

	// Sticky failure: a dead upstream poisons the batcher.
	dead := &Client{BaseURL: "http://127.0.0.1:1", HTTPClient: &http.Client{Timeout: 50 * time.Millisecond}}
	bf := NewBatcher(dead, 1, time.Hour)
	if err := bf.AddProfile(ctx, prof); err == nil {
		t.Fatal("flush to a dead upstream should fail")
	}
	if err := bf.AddProfile(ctx, prof); err == nil || !strings.Contains(err.Error(), "batcher failed") {
		t.Fatalf("batcher error is not sticky: %v", err)
	}
}

// TestRelayForwards: envelopes pushed to a relay's local collector reach
// the upstream pre-merged, and a failed upstream flush re-ingests
// locally so the data survives for the next flush.
func TestRelayForwards(t *testing.T) {
	prof, tree := fixtures(t)
	ctx := context.Background()

	root, rootCl := newServer(t, Config{Shards: 2})
	leaf, leafCl := newServer(t, Config{Shards: 2})
	r := &Relay{Local: leaf, Upstream: rootCl, Interval: time.Hour, MaxItems: 4}

	for i := 0; i < 3; i++ {
		if _, err := leafCl.PushProfile(ctx, prof); err != nil {
			t.Fatal(err)
		}
		if _, err := leafCl.PushExport(ctx, tree.Export("compress")); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.FlushOnce(ctx); err != nil {
		t.Fatal(err)
	}
	// Three pushes of each kind pre-merge into one envelope of each.
	if m := root.Metrics(); m.IngestedProfiles != 1 || m.IngestedCCTs != 1 {
		t.Fatalf("root metrics after flush: %+v", m)
	}
	merged, ok := root.MergedProfile("compress")
	if !ok {
		t.Fatal("root has no merged profile")
	}
	wf, _ := prof.Totals()
	if gf, _ := merged.Totals(); gf != 3*wf {
		t.Fatalf("root merged freq %d, want %d", gf, 3*wf)
	}
	if st := r.Stats(); st.FramesPushed != 1 || st.EnvelopesPushed != 2 {
		t.Fatalf("relay stats: %+v", st)
	}

	// Upstream failure: the taken envelopes fold back into the leaf.
	r.Upstream = &Client{BaseURL: "http://127.0.0.1:1", HTTPClient: &http.Client{Timeout: 50 * time.Millisecond}}
	if _, err := leafCl.PushProfile(ctx, prof); err != nil {
		t.Fatal(err)
	}
	if err := r.FlushOnce(ctx); err == nil {
		t.Fatal("flush to a dead upstream should fail")
	}
	if st := r.Stats(); st.FlushFailures != 1 {
		t.Fatalf("relay stats after failure: %+v", st)
	}
	kept, ok := leaf.MergedProfile("compress")
	if !ok {
		t.Fatal("failed flush lost the leaf's data")
	}
	if gf, _ := kept.Totals(); gf != wf {
		t.Fatalf("re-ingested freq %d, want %d", gf, wf)
	}
	// Upstream recovers: the retained data arrives with the next flush.
	r.Upstream = rootCl
	if err := r.FlushOnce(ctx); err != nil {
		t.Fatal(err)
	}
	merged, _ = root.MergedProfile("compress")
	if gf, _ := merged.Totals(); gf != 4*wf {
		t.Fatalf("root merged freq %d after recovery, want %d", gf, 4*wf)
	}
}

// TestRelayRefoldPerItem: a frame the upstream refused folds back into
// the relay's collector item by item, so an item that now conflicts with
// the local aggregate does not keep the next one out. The conflicting
// item is lost, and the flush counts and reports it.
func TestRelayRefoldPerItem(t *testing.T) {
	prof, _ := fixtures(t)
	ctx := context.Background()
	c := New(Config{Shards: 1})
	other := cloneProfile(prof)
	other.Program = "otherprog"
	for _, p := range []*profile.Profile{prof, other} {
		if _, _, err := c.IngestFrame(profileFrame(t, p)); err != nil {
			t.Fatal(err)
		}
	}
	// Between Take and the failed push, a leaf pushes the first program
	// in another mode.
	held := cloneProfile(prof)
	held.Mode = "context+hw"
	upstream := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		if _, _, err := c.IngestFrame(profileFrame(t, held)); err != nil {
			t.Error(err)
		}
		http.Error(w, "upstream down", http.StatusInternalServerError)
	}))
	defer upstream.Close()
	r := &Relay{Local: c, Upstream: &Client{BaseURL: upstream.URL, HTTPClient: upstream.Client()}}
	err := r.FlushOnce(ctx)
	if err == nil || !strings.Contains(err.Error(), "1 of 2 refused items no longer fold locally") {
		t.Fatalf("flush error %v does not name the one dropped item", err)
	}
	if st := r.Stats(); st.RefoldDropped != 1 || st.FlushFailures != 1 {
		t.Fatalf("relay stats: %+v", st)
	}
	if got, ok := c.MergedProfile("otherprog"); !ok || !bytes.Equal(profileFrame(t, got), profileFrame(t, other)) {
		t.Fatal("the item after a conflicting one did not fold")
	}
	if got, _ := c.MergedProfile(prof.Program); !bytes.Equal(profileFrame(t, got), profileFrame(t, held)) {
		t.Fatal("the conflicting item changed the aggregate it conflicts with")
	}
}

// TestRelayDropsWhollyRefusedFrame: a frame whose every item the upstream
// refused by name (its 409 carries X-Folded-Items: 0) is dropped, not
// folded back, so later flushes do not push it into the same refusal
// again. The refused item is counted in RefoldDropped and named in the
// flush's error.
func TestRelayDropsWhollyRefusedFrame(t *testing.T) {
	prof, _ := fixtures(t)
	ctx := context.Background()
	root, rootCl := newServer(t, Config{Shards: 2})
	if _, err := rootCl.PushProfile(ctx, prof); err != nil {
		t.Fatal(err)
	}
	held := cloneProfile(prof)
	held.Mode = "context+hw"
	relay := New(Config{Shards: 2})
	if _, _, err := relay.IngestFrame(profileFrame(t, held)); err != nil {
		t.Fatal(err)
	}
	r := &Relay{Local: relay, Upstream: rootCl}
	for i := 0; i < 3; i++ {
		err := r.FlushOnce(ctx)
		if i == 0 && (err == nil || !strings.Contains(err.Error(), "upstream folded 0 of 1 items and refused 1, which were dropped")) {
			t.Fatalf("flush error %v does not name the dropped item", err)
		}
		if i > 0 && err != nil {
			t.Fatalf("flush %d: %v", i+1, err)
		}
	}
	if m := root.Metrics(); m.RejectedConflict != 1 {
		t.Fatalf("root refused %d pushes, want the one", m.RejectedConflict)
	}
	if st := r.Stats(); st.FlushFailures != 1 || st.RefoldDropped != 1 || st.EnvelopesPushed != 0 {
		t.Fatalf("relay stats: %+v", st)
	}
	if progs := relay.Programs(); len(progs) != 0 {
		t.Fatalf("relay still holds %v", progs)
	}
}

// TestRelayReportsPeriodicFlushFailures: the periodic flush loop hands
// the error of a flush into a dead upstream to Start's caller, and the
// relay's /metrics then carries its counters as a relay object, which a
// plain collector's /metrics lacks.
func TestRelayReportsPeriodicFlushFailures(t *testing.T) {
	prof, _ := fixtures(t)
	ctx := context.Background()
	local, localCl := newServer(t, Config{Shards: 2})
	relayOf := func() *RelayStats {
		t.Helper()
		data, err := localCl.get(ctx, "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		var m Metrics
		if err := json.Unmarshal([]byte(data), &m); err != nil {
			t.Fatal(err)
		}
		return m.Relay
	}
	if st := relayOf(); st != nil {
		t.Fatalf("a plain collector's /metrics carries relay counters %+v", st)
	}
	if _, err := localCl.PushProfile(ctx, prof); err != nil {
		t.Fatal(err)
	}
	dead := &Client{BaseURL: "http://127.0.0.1:1", HTTPClient: &http.Client{Timeout: 200 * time.Millisecond}}
	r := &Relay{Local: local, Upstream: dead, Interval: 5 * time.Millisecond}
	reported := make(chan error, 1)
	r.Start(func(err error) {
		select {
		case reported <- err:
		default:
		}
	})
	defer r.Stop(ctx)
	select {
	case err := <-reported:
		if !strings.Contains(err.Error(), "127.0.0.1:1") {
			t.Fatalf("reported flush error %v does not name the upstream", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("no failed periodic flush was reported")
	}
	if st := relayOf(); st == nil || st.FlushFailures < 1 {
		t.Fatalf("relay /metrics after a failed flush: %+v, want flush_failures >= 1", st)
	}
}

// TestRelayDropsRefusedItemsOfFoldedFrame: when the upstream folds some
// items of a flushed frame and refuses the rest, the relay does not fold
// the frame back, so later flushes do not deliver the folded items again;
// the refused items are lost, counted in RefoldDropped and named in the
// flush's error. The upstream's 409 names each refused item and carries
// the folded count in X-Folded-Items.
func TestRelayDropsRefusedItemsOfFoldedFrame(t *testing.T) {
	prof, _ := fixtures(t)
	ctx := context.Background()
	root, rootCl := newServer(t, Config{Shards: 2})
	if _, err := rootCl.PushProfile(ctx, prof); err != nil {
		t.Fatal(err)
	}
	held := cloneProfile(prof)
	held.Mode = "context+hw"
	other := cloneProfile(prof)
	other.Program = "otherprog"
	frame := frameOf(t, envelope{p: held}, envelope{p: other})

	// The answer to a frame folded in part, straight from a collector
	// holding the upstream's state.
	probe, probeCl := newServer(t, Config{Shards: 2})
	if _, err := probeCl.PushProfile(ctx, prof); err != nil {
		t.Fatal(err)
	}
	resp, err := probeCl.http().Post(probeCl.BaseURL+"/ingest", "application/octet-stream", bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict || resp.Header.Get("X-Folded-Items") != "1" ||
		!strings.HasPrefix(string(text), `refused frame items [0]; item 0: profile mode "context+hw" conflicts`) {
		t.Fatalf("partly folded frame: status %d, X-Folded-Items %q, text %q",
			resp.StatusCode, resp.Header.Get("X-Folded-Items"), text)
	}
	if _, ok := probe.MergedProfile("otherprog"); !ok {
		t.Fatal("the item after the refused one did not fold")
	}

	relay := New(Config{Shards: 2})
	if _, _, err := relay.IngestFrame(frame); err != nil {
		t.Fatal(err)
	}
	r := &Relay{Local: relay, Upstream: rootCl}
	err = r.FlushOnce(ctx)
	if err == nil || !strings.Contains(err.Error(), "upstream folded 1 of 2 items and refused 1, which were dropped") ||
		!strings.Contains(err.Error(), "refused frame items [0]") {
		t.Fatalf("flush error %v does not name the dropped item", err)
	}
	for i := 0; i < 2; i++ {
		if err := r.FlushOnce(ctx); err != nil {
			t.Fatalf("flush %d: %v", i+2, err)
		}
	}
	wf, _ := other.Totals()
	if got, ok := root.MergedProfile("otherprog"); !ok {
		t.Fatal("root has no otherprog profile")
	} else if gf, _ := got.Totals(); gf != wf {
		t.Fatalf("root otherprog frequency %d after three flushes, want one push's %d", gf, wf)
	}
	if st := r.Stats(); st.RefoldDropped != 1 || st.FlushFailures != 1 || st.EnvelopesPushed != 0 {
		t.Fatalf("relay stats: %+v", st)
	}
	if progs := relay.Programs(); len(progs) != 0 {
		t.Fatalf("relay still holds %v", progs)
	}
}
