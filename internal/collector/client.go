package collector

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"time"

	"pathprof/internal/cct"
	"pathprof/internal/experiments"
	"pathprof/internal/profile"
	"pathprof/internal/wire"
)

// sharedTransport is the one Transport every Client without an explicit
// HTTPClient uses. Producer fleets make many small POSTs to one or two
// collector hosts, so the defaults that matter are connection reuse:
// without a raised MaxIdleConnsPerHost (default 2) a burst of pushes
// churns through ephemeral connections and TIME_WAIT sockets.
var sharedTransport = &http.Transport{
	MaxIdleConns:        256,
	MaxIdleConnsPerHost: 128,
	IdleConnTimeout:     90 * time.Second,
}

var sharedClient = &http.Client{Transport: sharedTransport}

// RetryPolicy controls how a Client retries pushes the collector shed
// (429), refused while busy (503) or that failed at the transport layer.
// Delays grow exponentially from BaseDelay with full jitter, capped at
// MaxDelay; a server Retry-After hint overrides a shorter computed
// delay. The zero value of each field selects the default in brackets.
type RetryPolicy struct {
	MaxAttempts int           // total attempts including the first [5]
	BaseDelay   time.Duration // first backoff step [100ms]
	MaxDelay    time.Duration // backoff ceiling [5s]
}

func (rp RetryPolicy) withDefaults() RetryPolicy {
	if rp.MaxAttempts <= 0 {
		rp.MaxAttempts = 5
	}
	if rp.BaseDelay <= 0 {
		rp.BaseDelay = 100 * time.Millisecond
	}
	if rp.MaxDelay <= 0 {
		rp.MaxDelay = 5 * time.Second
	}
	return rp
}

// delay computes the backoff before attempt (0-based retry count),
// honoring a server Retry-After hint as a lower bound.
func (rp RetryPolicy) delay(attempt int, retryAfter time.Duration) time.Duration {
	d := rp.BaseDelay << uint(attempt)
	if d > rp.MaxDelay || d <= 0 {
		d = rp.MaxDelay
	}
	// Full jitter: spread concurrent producers instead of synchronizing
	// their retries into the next overload wave.
	d = time.Duration(rand.Int63n(int64(d)) + 1)
	if retryAfter > d {
		d = retryAfter
	}
	return d
}

// Client pushes wire frames to a collector and queries its tables. The
// zero HTTPClient uses a shared keep-alive transport tuned for many
// small pushes. Retry, when non-nil, makes pushes retry shed/busy
// responses and transport errors with jittered exponential backoff.
type Client struct {
	BaseURL    string
	HTTPClient *http.Client
	Retry      *RetryPolicy
}

func (cl *Client) http() *http.Client {
	if cl.HTTPClient != nil {
		return cl.HTTPClient
	}
	return sharedClient
}

// apiError is a non-2xx collector response.
type apiError struct {
	Status     int
	Body       string
	RetryAfter time.Duration // parsed Retry-After hint, 0 if absent
	// Folded counts the items of a refused frame that the collector
	// folded anyway, from X-Folded-Items; 0 if absent.
	Folded int
}

func (e *apiError) Error() string {
	return fmt.Sprintf("collector: HTTP %d: %s", e.Status, strings.TrimSpace(e.Body))
}

// retryable reports whether err is worth retrying: the collector shed
// the push (429), refused while saturated (503 "too many concurrent
// pushes"), or the transport failed. Draining (also 503) is permanent by
// intent, but distinguishing it from transient saturation server-side
// is not worth a protocol change — a drained retry just fails again.
func retryable(err error) (time.Duration, bool) {
	if ae, ok := err.(*apiError); ok {
		switch ae.Status {
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			return ae.RetryAfter, true
		}
		return 0, false
	}
	// Transport-level errors (connection refused, reset, timeout).
	return 0, true
}

// doPush POSTs body to /ingest once and decodes the response. id, when
// non-zero, rides in X-Push-Id so a durable collector can recognize a
// retry of a push it already committed.
func (cl *Client) doPush(ctx context.Context, body []byte, id uint64) (*IngestResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, cl.BaseURL+"/ingest", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	if id != 0 {
		req.Header.Set("X-Push-Id", strconv.FormatUint(id, 16))
	}
	resp, err := cl.http().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		ae := &apiError{Status: resp.StatusCode, Body: string(data)}
		if s, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && s > 0 {
			ae.RetryAfter = time.Duration(s) * time.Second
		}
		if n, err := strconv.Atoi(resp.Header.Get("X-Folded-Items")); err == nil && n > 0 {
			ae.Folded = n
		}
		return nil, ae
	}
	var ir IngestResponse
	if err := json.Unmarshal(data, &ir); err != nil {
		return nil, fmt.Errorf("collector: bad ingest response: %w", err)
	}
	return &ir, nil
}

// pushBytes pushes body, retrying per cl.Retry. Context cancellation
// aborts both in-flight requests and backoff sleeps. One push ID is
// generated per call and reused across every retry attempt, so a
// durable collector that committed the push but lost the ack — a crash,
// a dropped connection — acks the retry as a duplicate instead of
// folding the same data twice.
func (cl *Client) pushBytes(ctx context.Context, body []byte) (*IngestResponse, error) {
	id := newPushID()
	if cl.Retry == nil {
		return cl.doPush(ctx, body, id)
	}
	rp := cl.Retry.withDefaults()
	var lastErr error
	for attempt := 0; attempt < rp.MaxAttempts; attempt++ {
		if attempt > 0 {
			t := time.NewTimer(rp.delay(attempt-1, retryAfterOf(lastErr)))
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return nil, fmt.Errorf("collector: push retry: %w", ctx.Err())
			}
		}
		ir, err := cl.doPush(ctx, body, id)
		if err == nil {
			return ir, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			return nil, err
		}
		if _, ok := retryable(err); !ok {
			return nil, err
		}
	}
	return nil, fmt.Errorf("collector: push failed after %d attempts: %w", rp.MaxAttempts, lastErr)
}

// newPushID returns a random non-zero push identity. 64 random bits
// across a fleet's push volume keep the collision probability far below
// any other failure mode; zero is reserved for "no id".
func newPushID() uint64 {
	for {
		if id := rand.Uint64(); id != 0 {
			return id
		}
	}
}

func retryAfterOf(err error) time.Duration {
	if ae, ok := err.(*apiError); ok {
		return ae.RetryAfter
	}
	return 0
}

// pushOne uploads the one envelope add writes as a one-item frame.
func (cl *Client) pushOne(ctx context.Context, add func(*wire.BatchWriter) error) (*IngestResponse, error) {
	bw := wire.NewBatchWriter()
	if err := add(bw); err != nil {
		return nil, err
	}
	return cl.pushBytes(ctx, bw.Frame())
}

// PushProfile uploads one path profile as a one-item frame.
func (cl *Client) PushProfile(ctx context.Context, p *profile.Profile) (*IngestResponse, error) {
	return cl.pushOne(ctx, func(bw *wire.BatchWriter) error { return bw.AddProfile(p) })
}

// PushExport uploads one CCT export as a one-item frame.
func (cl *Client) PushExport(ctx context.Context, ex *cct.Export) (*IngestResponse, error) {
	return cl.pushOne(ctx, func(bw *wire.BatchWriter) error { return bw.AddExport(ex) })
}

// PushFrame uploads an encoded version-3 batched frame (see
// wire.BatchWriter) carrying any number of envelopes in one POST.
func (cl *Client) PushFrame(ctx context.Context, frame []byte) (*IngestResponse, error) {
	return cl.pushBytes(ctx, frame)
}

// PushRun uploads what one instrumented run produced: CCT-building runs
// contribute their tree (which already embodies any per-context path
// counts), profile-only runs contribute their path profile.
func (cl *Client) PushRun(ctx context.Context, cell *experiments.Cell) ([]IngestResponse, error) {
	var out []IngestResponse
	if cell.Tree != nil {
		r, err := cl.PushExport(ctx, cell.Tree.Export(cell.Workload))
		if err != nil {
			return out, err
		}
		out = append(out, *r)
	} else if cell.Profile != nil {
		r, err := cl.PushProfile(ctx, cell.Profile)
		if err != nil {
			return out, err
		}
		out = append(out, *r)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("collector: %s %v run produced nothing to push", cell.Workload, cell.Mode)
	}
	return out, nil
}

func (cl *Client) get(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, cl.BaseURL+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := cl.http().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, &apiError{Status: resp.StatusCode, Body: string(data)}
	}
	return data, nil
}

// Table fetches the rendered table n (3, 4 or 5), optionally restricted
// to the given programs in the given row order.
func (cl *Client) Table(ctx context.Context, n int, programs []string) (string, error) {
	path := "/table/" + strconv.Itoa(n)
	if len(programs) > 0 {
		path += "?programs=" + strings.Join(programs, ",")
	}
	data, err := cl.get(ctx, path)
	return string(data), err
}

// MetricTable fetches the named-metric totals table, optionally
// restricted to the given programs in the given row order.
func (cl *Client) MetricTable(ctx context.Context, programs []string) (string, error) {
	path := "/table/metrics"
	if len(programs) > 0 {
		path += "?programs=" + strings.Join(programs, ",")
	}
	data, err := cl.get(ctx, path)
	return string(data), err
}

// Programs fetches the list of aggregated programs.
func (cl *Client) Programs(ctx context.Context) ([]string, error) {
	data, err := cl.get(ctx, "/programs")
	if err != nil {
		return nil, err
	}
	var out []string
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, fmt.Errorf("collector: bad programs response: %w", err)
	}
	return out, nil
}
