package main

import (
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer. Spans of one cell, push or query
// share an Op id; Parent is the id of the enclosing span (0 for a root).
type span struct {
	Op     int64  `json:"op"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced passes pay only a nil check per call.
type tracer struct {
	t0    time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// spanRef is an open span; end closes it.
type spanRef struct {
	t              *tracer
	op, id, parent int64
	name           string
	start          int64
}

// newOp returns a fresh operation id.
func (t *tracer) newOp() int64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// begin opens a span named name under parent within operation op.
func (t *tracer) begin(op, parent int64, name string) spanRef {
	if t == nil {
		return spanRef{}
	}
	return spanRef{t: t, op: op, id: t.ids.Add(1), parent: parent, name: name, start: int64(time.Since(t.t0))}
}

// end closes the span and records it.
func (s spanRef) end() {
	if s.t == nil {
		return
	}
	sp := span{Op: s.op, ID: s.id, Parent: s.parent, Name: s.name, Start: s.start, End: int64(time.Since(s.t.t0))}
	s.t.mu.Lock()
	s.t.spans = append(s.t.spans, sp)
	s.t.mu.Unlock()
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// layerStats aggregates every span of one name.
type layerStats struct {
	Count  int       `json:"count"`
	SelfNs int64     `json:"self_ns"`
	self   []float64 // per-span self time, microseconds
}

// layers computes each span's self time — its duration minus the part of
// it that child spans cover — and aggregates spans by name.
func (t *tracer) layers() map[string]*layerStats {
	t.mu.Lock()
	spans := slices.Clone(t.spans)
	t.mu.Unlock()
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]*layerStats{}
	for _, s := range spans {
		self := s.End - s.Start - covered(s, children[s.ID])
		ls := out[s.Name]
		if ls == nil {
			ls = &layerStats{}
			out[s.Name] = ls
		}
		ls.Count++
		ls.SelfNs += self
		ls.self = append(ls.self, float64(self)/1e3)
	}
	return out
}

// covered returns how much of parent's interval the union of kids covers.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	slices.SortFunc(iv, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
	var sum, curLo, curHi int64
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			sum += curHi - curLo
			curLo, curHi = x[0], x[1]
			continue
		}
		curHi = max(curHi, x[1])
	}
	return sum + curHi - curLo
}

// selfUs returns the named layer's self times in microseconds (nil when
// the layer recorded no spans).
func selfUs(ls map[string]*layerStats, name string) []float64 {
	if s := ls[name]; s != nil {
		return s.self
	}
	return nil
}

// selfSumUs returns the named layer's total self time in microseconds.
func selfSumUs(ls map[string]*layerStats, name string) float64 {
	if s := ls[name]; s != nil {
		return float64(s.SelfNs) / 1e3
	}
	return 0
}

// write stores the spans and the per-layer self-time summary as one JSON
// file under cfg.out and returns its path.
func (t *tracer) write(cfg config) (string, error) {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return "", fmt.Errorf("trace output: %w", err)
	}
	path := filepath.Join(cfg.out, fmt.Sprintf("trace-%s-seed%d.json", cfg.workload, cfg.seed))
	t.mu.Lock()
	doc := struct {
		Workload string                 `json:"workload"`
		Seed     int64                  `json:"seed"`
		Layers   map[string]*layerStats `json:"layers"`
		Spans    []span                 `json:"spans"`
	}{cfg.workload, cfg.seed, nil, t.spans}
	t.mu.Unlock()
	doc.Layers = t.layers()
	data, err := json.Marshal(doc)
	if err != nil {
		return "", fmt.Errorf("trace output: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", fmt.Errorf("trace output: %w", err)
	}
	return path, nil
}

// Operations cross the HTTP boundary as two request headers, set by the
// client transport from the request context and read back by the
// handler wrapper, so a handler span joins its client span's operation.
const (
	hdrOp     = "X-Bench-Op"
	hdrParent = "X-Bench-Parent"
)

type spanKey struct{}

// withSpan returns ctx carrying the open span s.
func withSpan(ctx context.Context, s spanRef) context.Context {
	if s.t == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, s)
}

// traceHandler wraps the collector's handler with one span per request,
// named after the route, under the client span named in the headers.
// Requests sent without a span (the final checks) give root spans.
func traceHandler(t *tracer, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		op, _ := strconv.ParseInt(r.Header.Get(hdrOp), 10, 64)
		parent, _ := strconv.ParseInt(r.Header.Get(hdrParent), 10, 64)
		s := t.begin(op, parent, "collector.handler."+routeName(r.URL.Path))
		h.ServeHTTP(w, r)
		s.end()
	})
}

// routeName maps a request path to its route label in the metric names.
func routeName(path string) string {
	switch path {
	case "/ingest":
		return "ingest"
	case "/table/3":
		return "table3"
	case "/table/4":
		return "table4"
	case "/table/5":
		return "table5"
	case "/table/metrics":
		return "table_metrics"
	}
	return "other"
}
