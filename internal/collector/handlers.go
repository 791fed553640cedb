package collector

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"pathprof/internal/agg"
	"pathprof/internal/experiments"
	"pathprof/internal/report"
	"pathprof/internal/store"
)

// Handler returns the collector's HTTP surface:
//
//	POST /ingest         one wire frame of profiles and CCT exports
//	GET  /table/3        CCT statistics from merged exports
//	GET  /table/4        hot paths from merged profiles
//	GET  /table/5        hot procedures from merged profiles
//	GET  /table/metrics  per-program totals under named metric columns
//	GET  /programs       JSON list of aggregated programs
//	GET  /metrics        JSON counters
//	GET  /healthz        liveness (503 while draining)
//	POST /store/snapshot snapshot the mounted store (404 without one)
//
// The table endpoints accept ?programs=a,b to select and order rows;
// the default is every program holding the table's kind of aggregate (a
// CCT for Table 3, a profile for the others) in sorted order.
func (c *Collector) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /ingest", c.handleIngest)
	mux.HandleFunc("GET /table/3", c.handleTable3)
	mux.HandleFunc("GET /table/4", c.handleTable4)
	mux.HandleFunc("GET /table/5", c.handleTable5)
	mux.HandleFunc("GET /table/metrics", c.handleTableNamedMetrics)
	mux.HandleFunc("GET /programs", c.handlePrograms)
	mux.HandleFunc("GET /metrics", c.handleMetrics)
	mux.HandleFunc("GET /healthz", c.handleHealthz)
	mux.HandleFunc("POST /store/snapshot", c.handleStoreSnapshot)
	return mux
}

// IngestResponse is the JSON body of a successful push: how many
// envelopes of each kind the frame carried. Kind is "batch", or
// "duplicate" for a retry the durable collector had already applied.
type IngestResponse struct {
	Kind      string `json:"kind"`
	Envelopes int    `json:"envelopes,omitempty"`
	Profiles  int    `json:"profiles,omitempty"`
	CCTs      int    `json:"ccts,omitempty"`
	// Duplicate marks a retried push the durable collector had already
	// applied: the original ack was lost, the data was not.
	Duplicate bool `json:"duplicate,omitempty"`
}

func (c *Collector) handleIngest(w http.ResponseWriter, r *http.Request) {
	done, err := c.begin()
	if err != nil {
		c.rejectedDraining.Add(1)
		http.Error(w, "collector is draining", http.StatusServiceUnavailable)
		return
	}
	defer done()

	ctx, cancel := context.WithTimeout(r.Context(), c.cfg.RequestTimeout)
	defer cancel()

	// Backpressure: when every concurrency slot is busy and the wait
	// queue is full, shed the push immediately with 429 + Retry-After
	// instead of letting a convoy build up toward the request timeout.
	// Well-behaved clients (collector.Client with a RetryPolicy) back
	// off and retry.
	if q := c.queueDepth.Add(1); q > int64(c.cfg.MaxQueue) {
		c.queueDepth.Add(-1)
		c.rejectedQueue.Add(1)
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(c.cfg.RetryAfter)))
		http.Error(w, "ingest queue is full", http.StatusTooManyRequests)
		return
	}

	// Admission: wait for a concurrency slot, but never longer than the
	// request timeout.
	select {
	case c.sem <- struct{}{}:
		c.queueDepth.Add(-1)
		defer func() { <-c.sem }()
	case <-ctx.Done():
		c.queueDepth.Add(-1)
		c.rejectedBusy.Add(1)
		http.Error(w, "too many concurrent pushes", http.StatusServiceUnavailable)
		return
	}

	// Read the body on this goroutine into a pooled buffer, under a
	// connection read deadline at the request timeout, so a dribbling
	// client gets 408 instead of pinning the slot. (A ResponseWriter that
	// cannot set deadlines, such as httptest.ResponseRecorder, reads
	// without one.)
	rc := http.NewResponseController(w)
	deadline, _ := ctx.Deadline()
	rc.SetReadDeadline(deadline)
	buf := bodyBufs.Get().(*[]byte)
	defer func() {
		if cap(*buf) <= maxPooledBody {
			bodyBufs.Put(buf)
		}
	}()
	data, err := readBody(*buf, http.MaxBytesReader(w, r.Body, c.cfg.MaxBodyBytes), r.ContentLength)
	*buf = data
	if err != nil {
		var mbe *http.MaxBytesError
		switch {
		case errors.As(err, &mbe):
			// A deadline in the past fails the server's drain of the rest
			// of the upload at once, rather than stall the answer behind
			// it.
			c.rejectedTooBig.Add(1)
			rc.SetReadDeadline(time.Now())
			http.Error(w, "profile exceeds the size limit", http.StatusRequestEntityTooLarge)
		case errors.Is(err, os.ErrDeadlineExceeded):
			// The deadline stays in the past, so the drain fails at once
			// here too.
			c.rejectedTimeout.Add(1)
			http.Error(w, "push timed out", http.StatusRequestTimeout)
		default:
			c.rejectedBad.Add(1)
			http.Error(w, "reading body: "+err.Error(), http.StatusBadRequest)
		}
		return
	}
	// The body is read: clear the deadline, so that it cannot expire on a
	// later read of the connection (a read that fails cancels the
	// request's context) while the push folds or its store append waits.
	rc.SetReadDeadline(time.Time{})

	// Only a version-3 frame may reach the store: a body without a frame
	// header, such as a retired version-1 or version-2 envelope, is
	// refused here, before it is logged.
	if err := checkFrameHeader(data); err != nil {
		c.rejectedBad.Add(1)
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}

	// Frames decode into pooled scratch and fold without materializing
	// intermediate Profile/Export values. Nothing keeps data past this
	// handler, so its buffer goes back to the pool: the fold copies the
	// names it keeps, and the store appends a copy.
	//
	// With a store mounted, the payload is appended and group-committed
	// to disk first and folded only once durable, so the ack below means
	// the push survives kill -9. The X-Push-Id header (stable across one
	// client's retries) dedups the crash window where a push was durable
	// but the ack was lost.
	var profiles, ccts int
	fold := func(p []byte) (err error) {
		profiles, ccts, err = c.IngestFrame(p)
		return err
	}
	if c.store != nil {
		dup, err := c.store.Ingest(ctx, parsePushID(r), data, fold)
		if dup {
			writeJSON(w, IngestResponse{Kind: "duplicate", Duplicate: true})
			return
		}
		if err != nil {
			c.failIngest(w, err, profiles+ccts)
			return
		}
	} else if err := fold(data); err != nil {
		c.failIngest(w, err, profiles+ccts)
		return
	}
	c.ingestedBytes.Add(uint64(len(data)))
	writeJSON(w, IngestResponse{Kind: "batch", Envelopes: profiles + ccts, Profiles: profiles, CCTs: ccts})
}

// failIngest maps a fold or store error to its HTTP rejection. A fold
// that refused items folded the frame's other items: the status follows
// the lowest-indexed refused item's reason, the text names every refused
// item, and the X-Folded-Items header counts the items that folded, so a
// sender can tell that resending the frame would count them twice.
func (c *Collector) failIngest(w http.ResponseWriter, err error, folded int) {
	var ce *agg.ConflictError
	var ri *refusedItems
	if errors.As(err, &ri) {
		w.Header().Set("X-Folded-Items", strconv.Itoa(folded))
	}
	switch {
	case errors.Is(err, store.ErrFull):
		// The WAL disk budget is exhausted: durable backpressure. The
		// next snapshot usually frees space, so tell clients to back off
		// and retry rather than fail outright.
		c.rejectedStoreFull.Add(1)
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(c.cfg.RetryAfter)))
		http.Error(w, "store disk budget exhausted", http.StatusServiceUnavailable)
	case errors.As(err, &ce):
		c.rejectedConflict.Add(1)
		http.Error(w, err.Error(), http.StatusConflict)
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		c.rejectedTimeout.Add(1)
		http.Error(w, "push timed out", http.StatusRequestTimeout)
	default:
		c.rejectedBad.Add(1)
		http.Error(w, err.Error(), http.StatusBadRequest)
	}
}

// parsePushID extracts the client's hex push ID (0 = none).
func parsePushID(r *http.Request) uint64 {
	id, err := strconv.ParseUint(r.Header.Get("X-Push-Id"), 16, 64)
	if err != nil {
		return 0
	}
	return id
}

// handleStoreSnapshot forces a snapshot of the mounted store.
func (c *Collector) handleStoreSnapshot(w http.ResponseWriter, _ *http.Request) {
	if c.store == nil {
		http.Error(w, "no store mounted", http.StatusNotFound)
		return
	}
	if err := c.store.SnapshotNow(); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, c.store.Metrics())
}

// retryAfterSeconds rounds d up to whole seconds for the Retry-After
// header (which has no sub-second form), with a 1s floor.
func retryAfterSeconds(d time.Duration) int {
	s := int((d + time.Second - 1) / time.Second)
	if s < 1 {
		s = 1
	}
	return s
}

// bodyBufs pools the buffers push bodies are read into.
var bodyBufs = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledBody bounds how far a declared Content-Length presizes a body
// buffer, and the capacity of a buffer put back in the pool. The length
// is client input: a 64 MiB declaration over a 10-byte body must not
// allocate 64 MiB, and one outsized push must not leave a large buffer
// in the pool.
const maxPooledBody = 1 << 20

// readBody reads body to its end into buf's storage, growing it as
// needed, and returns the bytes read. declared, the Content-Length or -1
// when unknown, presizes the buffer to one byte past it, up to
// maxPooledBody, so the read that meets the end needs no growth. A body
// longer than the bound grows the buffer past it.
func readBody(buf []byte, body io.Reader, declared int64) ([]byte, error) {
	buf = buf[:0]
	if n := min(declared, maxPooledBody-1) + 1; n > int64(cap(buf)) {
		buf = make([]byte, 0, n)
	}
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// requestedPrograms resolves the ?programs= selection (explicit order)
// or defaults to every program holding a profile aggregate (a CCT
// aggregate when profiles is false), sorted.
func (c *Collector) requestedPrograms(r *http.Request, profiles bool) []string {
	if q := r.URL.Query().Get("programs"); q != "" {
		var out []string
		for _, name := range strings.Split(q, ",") {
			if name = strings.TrimSpace(name); name != "" {
				out = append(out, name)
			}
		}
		return out
	}
	return c.programs(profiles, !profiles)
}

// tableBufs pools the buffers tables render into.
var tableBufs = sync.Pool{New: func() any { return new([]byte) }}

// writeTable renders t into a pooled buffer and sends it in one write,
// with its Content-Length.
func writeTable(w http.ResponseWriter, t *report.Table) {
	buf := tableBufs.Get().(*[]byte)
	defer tableBufs.Put(buf)
	*buf = t.Append((*buf)[:0])
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Header().Set("Content-Length", strconv.Itoa(len(*buf)))
	w.Write(*buf)
}

func (c *Collector) handleTable3(w http.ResponseWriter, r *http.Request) {
	names := c.requestedPrograms(r, false)
	rows := make([][]string, 0, len(names))
	for _, name := range names {
		v, ok := c.exportView(name)
		if !ok {
			http.Error(w, "no CCT aggregate for "+name, http.StatusNotFound)
			return
		}
		rows = append(rows, v.cells)
	}
	writeTable(w, experiments.Table3Of(rows))
}

func (c *Collector) handleTable4(w http.ResponseWriter, r *http.Request) {
	names := c.requestedPrograms(r, true)
	rows := make([][]string, 0, len(names))
	for _, name := range names {
		v, ok := c.profileView(name)
		if !ok {
			http.Error(w, "no profile aggregate for "+name, http.StatusNotFound)
			return
		}
		rows = append(rows, v.table4Cells()...)
	}
	writeTable(w, experiments.Table4Of(rows))
}

func (c *Collector) handleTable5(w http.ResponseWriter, r *http.Request) {
	names := c.requestedPrograms(r, true)
	rows := make([][]string, 0, len(names))
	for _, name := range names {
		v, ok := c.profileView(name)
		if !ok {
			http.Error(w, "no profile aggregate for "+name, http.StatusNotFound)
			return
		}
		rows = append(rows, v.table5Cells())
	}
	writeTable(w, experiments.Table5Of(rows))
}

// handleTableNamedMetrics renders each program's merged totals under the
// metric names its profile schema declares. Programs pushed with different
// schemas contribute different columns; the column set is the first-seen
// union and rows leave unschemed columns blank.
func (c *Collector) handleTableNamedMetrics(w http.ResponseWriter, r *http.Request) {
	names := c.requestedPrograms(r, true)
	views := make([]*profView, len(names))
	var cols []string
	seen := map[string]bool{}
	for i, name := range names {
		v, ok := c.profileView(name)
		if !ok {
			http.Error(w, "no profile aggregate for "+name, http.StatusNotFound)
			return
		}
		for _, ev := range v.events {
			if !seen[ev] {
				seen[ev] = true
				cols = append(cols, ev)
			}
		}
		views[i] = v
	}
	cells := make([]string, 0, len(views)*(2+len(cols)))
	rows := make([][]string, len(views))
	for i, v := range views {
		lo := len(cells)
		cells = append(cells, names[i], v.execs)
		for _, ev := range cols {
			if j := slices.Index(v.events, ev); j >= 0 {
				cells = append(cells, v.totals[j])
			} else {
				cells = append(cells, "-")
			}
		}
		rows[i] = cells[lo:len(cells):len(cells)]
	}
	writeTable(w, &report.Table{
		Title: "Merged profile totals by named metric",
		Cols:  append([]string{"Program", "Path execs"}, cols...),
		Rows:  rows,
	})
}

func (c *Collector) handlePrograms(w http.ResponseWriter, _ *http.Request) {
	progs := c.Programs()
	if progs == nil {
		progs = []string{}
	}
	writeJSON(w, progs)
}

func (c *Collector) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, c.Metrics())
}

func (c *Collector) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	c.mu.Lock()
	draining := c.draining
	c.mu.Unlock()
	if draining {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n")
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
