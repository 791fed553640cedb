package collector

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pathprof/internal/store"
)

// Crash injection: the durability claim is "an acked push survives
// kill -9 at any point". TestCrashRecoveryByteIdentity proves it
// end-to-end — a real child process serving a durable collector is
// SIGKILLed at three points during a 1k-envelope ingest (while group
// commits, segment rolls and automatic snapshots are all in flight),
// restarted each time, and the final recovered state must
// render tables 3, 4 and 5 byte-identical to an uninterrupted
// in-memory collector fed the same envelope multiset. The pushing
// clients ride through each crash on their retry policy; stable push
// IDs turn the ack-lost-but-committed window into acked duplicates
// instead of double folds.

// TestCrashServerProcess is the child: it recovers the store directory,
// serves the collector on the given address, and runs until killed. It
// skips itself in normal test runs.
func TestCrashServerProcess(t *testing.T) {
	dir := os.Getenv("PPD_CRASH_DIR")
	if dir == "" {
		t.Skip("crash-test child process mode; driven by TestCrashRecoveryByteIdentity")
	}
	addr := os.Getenv("PPD_CRASH_ADDR")
	c := New(Config{Shards: 4})
	_, _, err := c.OpenStore(dir, crashStoreOptions())
	if err != nil {
		fmt.Fprintf(os.Stderr, "crash child: recover: %v\n", err)
		os.Exit(3)
	}
	// The previous incarnation's sockets can linger briefly; retry the
	// bind rather than dying into a restart loop.
	var ln net.Listener
	for deadline := time.Now().Add(5 * time.Second); ; {
		ln, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			fmt.Fprintf(os.Stderr, "crash child: listen: %v\n", err)
			os.Exit(4)
		}
		time.Sleep(20 * time.Millisecond)
	}
	fmt.Println("CRASH_CHILD_READY")
	http.Serve(ln, c.Handler())
}

// crashStoreOptions keeps the maintenance path hot during the crash
// window: tiny segments roll constantly, and a snapshot follows every
// two sealed segments, racing the kills.
func crashStoreOptions() store.Options {
	return store.Options{SegmentBytes: 16 << 10, SnapshotAfter: 2}
}

type crashChild struct {
	t    *testing.T
	dir  string
	addr string
	cmd  *exec.Cmd
}

func startCrashChild(t *testing.T, dir, addr string) *crashChild {
	t.Helper()
	cc := &crashChild{t: t, dir: dir, addr: addr}
	cc.start()
	return cc
}

func (cc *crashChild) start() {
	cc.t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=TestCrashServerProcess$", "-test.v")
	cmd.Env = append(os.Environ(), "PPD_CRASH_DIR="+cc.dir, "PPD_CRASH_ADDR="+cc.addr)
	cmd.Stdout = os.Stderr // child chatter goes to the test log
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		cc.t.Fatalf("starting crash child: %v", err)
	}
	cc.cmd = cmd
}

// kill SIGKILLs the child mid-flight — no drain, no cleanup — exactly
// like a machine losing power.
func (cc *crashChild) kill() {
	cc.t.Helper()
	cc.cmd.Process.Kill()
	cc.cmd.Wait()
}

func (cc *crashChild) restart() {
	cc.kill()
	cc.start()
}

func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

func TestCrashRecoveryByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and kills child processes")
	}
	copies := 250 // 4 envelopes per copy: the 1k-envelope acceptance run
	if s := os.Getenv("PPD_CRASH_COPIES"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			copies = n
		}
	}
	envs := testEnvelopes(t, copies)
	programs := []string{"compress", "otherprog"}

	// The oracle: the same multiset through an uninterrupted in-memory
	// collector.
	_, memCl := newServer(t, Config{Shards: 4})
	pushEnvelopes(t, memCl, envs)
	want := tableBytes(t, memCl, programs)

	dir := t.TempDir()
	addr := freeAddr(t)
	child := startCrashChild(t, dir, addr)
	defer child.kill()

	cl := &Client{
		BaseURL: "http://" + addr,
		Retry:   &RetryPolicy{MaxAttempts: 14, BaseDelay: 50 * time.Millisecond, MaxDelay: 400 * time.Millisecond},
	}

	// Kill the server at three points spread across the ingest. The
	// controller watches acked progress; pushers never pause.
	var acked atomic.Int64
	killAt := []int64{int64(len(envs)) / 4, int64(len(envs)) / 2, 3 * int64(len(envs)) / 4}
	// Between kills, force a snapshot through the ops endpoint so the
	// kill that follows lands on a directory holding a snapshot file, not
	// just raw log tail. Best-effort: the server may be mid-restart.
	ctlDone := make(chan struct{})
	go func() {
		defer close(ctlDone)
		for _, at := range killAt {
			for acked.Load() < at {
				time.Sleep(time.Millisecond)
			}
			if resp, err := http.Post("http://"+addr+"/store/snapshot", "", nil); err == nil {
				resp.Body.Close()
			}
			child.restart()
		}
	}()

	work := make(chan envelope, len(envs))
	for _, e := range envs {
		work <- e
	}
	close(work)
	var wg sync.WaitGroup
	pushErr := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := context.Background()
			for e := range work {
				var err error
				if e.p != nil {
					_, err = cl.PushProfile(ctx, e.p)
				} else {
					_, err = cl.PushExport(ctx, e.ex)
				}
				if err != nil {
					select {
					case pushErr <- err:
					default:
					}
					return
				}
				acked.Add(1)
			}
		}()
	}
	wg.Wait()
	<-ctlDone
	select {
	case err := <-pushErr:
		t.Fatalf("push did not survive the crash window: %v", err)
	default:
	}
	if got := acked.Load(); got != int64(len(envs)) {
		t.Fatalf("acked %d of %d envelopes", got, len(envs))
	}

	// Final kill -9, then recover the directory in-process and compare.
	child.kill()
	c := New(Config{Shards: 4})
	l, rec, err := c.OpenStore(dir, store.Options{})
	if err != nil {
		t.Fatalf("final recovery: %v", err)
	}
	defer l.Close()
	t.Logf("final recovery: %+v", rec)
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	qcl := &Client{BaseURL: srv.URL, HTTPClient: srv.Client()}
	if got := tableBytes(t, qcl, programs); got != want {
		for i, n := range []int{3, 4, 5} {
			if got[i] != want[i] {
				t.Errorf("table %d differs after 3x kill -9 + recovery", n)
			}
		}
		t.FailNow()
	}
}
