package collector

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pathprof/internal/store"
)

// TestChunkedPushFoldsLikeSized: a push without a Content-Length,
// chunked, folds exactly as the same frame pushed with one.
func TestChunkedPushFoldsLikeSized(t *testing.T) {
	frame := frameOf(t, testEnvelopes(t, 8)...)
	var chunked atomic.Bool
	sized, sizedCl := newServer(t, Config{})
	c := New(Config{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		chunked.Store(r.ContentLength == -1 && slices.Equal(r.TransferEncoding, []string{"chunked"}))
		c.Handler().ServeHTTP(w, r)
	}))
	defer srv.Close()

	if _, err := sizedCl.PushFrame(context.Background(), frame); err != nil {
		t.Fatal(err)
	}
	// A reader that hides its length makes the client send chunks.
	body := struct{ io.Reader }{bytes.NewReader(frame)}
	resp, err := srv.Client().Post(srv.URL+"/ingest", "application/octet-stream", body)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !chunked.Load() {
		t.Fatalf("chunked push: status %d, chunked %v", resp.StatusCode, chunked.Load())
	}
	if got, want := snapshotBytes(t, c), snapshotBytes(t, sized); !bytes.Equal(got, want) {
		t.Fatal("a chunked push folded otherwise than the same frame with a Content-Length")
	}
	if got, want := c.Metrics(), sized.Metrics(); got.IngestedBytes != want.IngestedBytes ||
		got.IngestedProfiles != want.IngestedProfiles || got.IngestedCCTs != want.IngestedCCTs {
		t.Fatalf("chunked metrics %+v, sized %+v", got, want)
	}
}

// TestShortBodyRejected: a body that ends before its declared length,
// with the client's half of the connection closed, gets 400 and counts
// as a bad push.
func TestShortBodyRejected(t *testing.T) {
	c, cl := newServer(t, Config{})
	frame := frameOf(t, testEnvelopes(t, 1)...)
	conn, err := net.Dial("tcp", strings.TrimPrefix(cl.BaseURL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_, err = fmt.Fprintf(conn, "POST /ingest HTTP/1.1\r\nHost: collector\r\n"+
		"Content-Type: application/octet-stream\r\nContent-Length: %d\r\n\r\n%s", len(frame), frame[:len(frame)/2])
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("want 400, got %d", resp.StatusCode)
	}
	if m := c.Metrics(); m.RejectedBad != 1 || m.IngestedFrames != 0 {
		t.Fatalf("metrics: %+v", m)
	}
}

// lateStore stands for a store whose append outlives the request
// deadline: it folds each push once the deadline has passed.
type lateStore struct {
	Store
	delay time.Duration
}

func (s lateStore) Ingest(ctx context.Context, _ uint64, payload []byte, apply func([]byte) error) (bool, error) {
	if err := ctx.Err(); err != nil {
		return false, err
	}
	time.Sleep(s.delay)
	return false, apply(payload)
}

func (lateStore) Metrics() store.Metrics { return store.Metrics{} }

// TestKeepAliveAfterDeadline: two pushes on one keep-alive connection
// with a 50 ms request timeout, the second sent after the first's
// deadline has passed, both get 200. Each push's store append ends past
// its deadline, so the body read deadline must reach neither the append
// nor the connection's next request.
func TestKeepAliveAfterDeadline(t *testing.T) {
	const timeout = 50 * time.Millisecond
	c := New(Config{RequestTimeout: timeout})
	c.MountStore(lateStore{delay: 2 * timeout})
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	frame := frameOf(t, testEnvelopes(t, 1)...)
	conn, err := net.Dial("tcp", srv.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	for i := 0; i < 2; i++ {
		start := time.Now()
		_, err := fmt.Fprintf(conn, "POST /ingest HTTP/1.1\r\nHost: collector\r\n"+
			"Content-Type: application/octet-stream\r\nContent-Length: %d\r\n\r\n%s", len(frame), frame)
		if err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		resp, err := http.ReadResponse(br, nil)
		if err != nil {
			t.Fatalf("push %d on the kept-alive connection: %v", i, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("push %d on the kept-alive connection: status %d", i, resp.StatusCode)
		}
		if d := time.Since(start); d < timeout {
			t.Fatalf("push %d answered in %v, before its deadline", i, d)
		}
	}
	if m := c.Metrics(); m.IngestedFrames != 2 {
		t.Fatalf("metrics: %+v", m)
	}
}

// TestReadBodyBounded: a declared length presizes the body buffer only up
// to maxPooledBody, so a huge declaration over a tiny body allocates no
// more than the bound; a pooled buffer with room reads without
// allocating; and a body longer than the bound grows the buffer past it.
func TestReadBodyBounded(t *testing.T) {
	body := []byte("ten bytes!")
	buf, err := readBody(nil, bytes.NewReader(body), 64<<20)
	if err != nil || !bytes.Equal(buf, body) {
		t.Fatalf("readBody = %q, %v", buf, err)
	}
	if cap(buf) > maxPooledBody {
		t.Fatalf("a 64 MiB declaration over %d bytes left a %d-byte buffer, over the %d bound",
			len(body), cap(buf), maxPooledBody)
	}
	rd := bytes.NewReader(body)
	if allocs := testing.AllocsPerRun(20, func() {
		rd.Reset(body)
		buf, err = readBody(buf, rd, int64(len(body)))
	}); allocs != 0 || err != nil || !bytes.Equal(buf, body) {
		t.Fatalf("reading %q into a pooled buffer: %v allocs, err %v", buf, allocs, err)
	}
	big := bytes.Repeat([]byte{7}, maxPooledBody+1)
	buf, err = readBody(buf, bytes.NewReader(big), -1)
	if err != nil || !bytes.Equal(buf, big) || cap(buf) <= maxPooledBody {
		t.Fatalf("outsized body: %d bytes read into cap %d, err %v", len(buf), cap(buf), err)
	}
}

// TestClientReadsTableOnce: Table and MetricTable return a table larger
// than io.ReadAll's first 512-byte buffer byte for byte, whether the
// response declares its length or is chunked. A declared length presizes
// the string only up to maxPooledBody, so a response that declares 64 MiB
// over a short body allocates under 2 MiB, and a body of declared length
// reads into its one allocation.
func TestClientReadsTableOnce(t *testing.T) {
	table := strings.Repeat("compress       1234     5678   91.2%\n", 64)
	var chunked, lying atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		switch {
		case lying.Load():
			w.Header().Set("Content-Length", strconv.Itoa(64<<20))
			io.WriteString(w, table[:10])
		case chunked.Load():
			io.WriteString(w, table[:100])
			w.(http.Flusher).Flush()
			io.WriteString(w, table[100:])
		default:
			w.Header().Set("Content-Length", strconv.Itoa(len(table)))
			io.WriteString(w, table)
		}
	}))
	defer srv.Close()
	cl := &Client{BaseURL: srv.URL, HTTPClient: srv.Client()}
	ctx := context.Background()
	for _, c := range []bool{false, true} {
		chunked.Store(c)
		if got, err := cl.Table(ctx, 4, nil); err != nil || got != table {
			t.Fatalf("chunked=%v: Table read %d bytes of %d, err %v", c, len(got), len(table), err)
		}
		if got, err := cl.MetricTable(ctx, []string{"compress"}); err != nil || got != table {
			t.Fatalf("chunked=%v: MetricTable read %d bytes of %d, err %v", c, len(got), len(table), err)
		}
	}

	lying.Store(true)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := cl.Table(ctx, 3, nil)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a body shorter than its declared 64 MiB read as a table")
	}
	if n := after.TotalAlloc - before.TotalAlloc; n >= 2<<20 {
		t.Fatalf("a 64 MiB declaration over 10 bytes allocated %d bytes", n)
	}

	if raceEnabled {
		return // race instrumentation allocates
	}
	rd := strings.NewReader(table)
	if allocs := testing.AllocsPerRun(20, func() {
		rd.Reset(table)
		if got, err := readString(rd, int64(len(table))); err != nil || got != table {
			t.Fatalf("readString = %d bytes, %v", len(got), err)
		}
	}); allocs != 1 {
		t.Fatalf("reading a %d-byte body of declared length took %v allocations, want 1", len(table), allocs)
	}
}
