package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pathprof/internal/analysis"
	"pathprof/internal/cct"
	"pathprof/internal/collector"
	"pathprof/internal/experiments"
	"pathprof/internal/hpm"
	"pathprof/internal/instrument"
	"pathprof/internal/profile"
	"pathprof/internal/wire"
	"pathprof/internal/workload"
)

// This file holds what the three service workloads (ingest, query,
// durable) share: the seeded program draw, envelope collection, seeded
// frames, the in-process collector behind a loopback listener, the
// counting client, and the table checks against a local merge.

// frameItems is the envelopes per pushed frame: the Relay.MaxItems
// default, and what ppd push -batch producers send.
const frameItems = 64

// serviceDraw is the seeded program draw of the service workloads.
// Envelopes are collected at test scale for every program of
// workload.Suite and workload.KSuite, and at ref scale for a seeded
// subset, so one program's folds mix input sizes (searcher has 43 path
// rows at test scale and 270 at ref). Collecting every program at test
// scale keeps the envelope mix, and so the per-push work, about the same
// on every seed; the seed changes the ref-scale draw and every frame.
type serviceDraw struct {
	test, ref []workload.Workload
}

// refPool lists the Suite programs whose three ref-scale collection runs
// each take well under a second. searcher, the path-rich program, is
// always collected at ref scale; the rest of the ref draw is one
// k-iteration program plus one program from this pool or the other
// k-iteration programs. Keeping the long-running programs at test scale
// keeps set-up short and about as long on every seed.
var refPool = []string{"interp", "lusolve", "fpstraight"}

func drawService(seed int64, small bool) serviceDraw {
	rng := rand.New(rand.NewSource(seed))
	searcher, _ := workload.ByName("searcher")
	k := pick(rng, workload.KSuite(), 1)[0]
	if small {
		var suite []workload.Workload
		for _, w := range workload.Suite() {
			if w.Name != searcher.Name {
				suite = append(suite, w)
			}
		}
		return serviceDraw{
			ref:  []workload.Workload{searcher},
			test: append([]workload.Workload{searcher, k}, pick(rng, suite, 1)...),
		}
	}
	var rest []workload.Workload
	for _, n := range refPool {
		w, _ := workload.ByName(n)
		rest = append(rest, w)
	}
	for _, w := range workload.KSuite() {
		if w.Name != k.Name {
			rest = append(rest, w)
		}
	}
	return serviceDraw{
		ref:  append([]workload.Workload{searcher, k}, pick(rng, rest, 1)...),
		test: append(workload.Suite(), workload.KSuite()...),
	}
}

// pick returns n distinct elements of ws in a seeded order.
func pick(rng *rand.Rand, ws []workload.Workload, n int) []workload.Workload {
	out := make([]workload.Workload, 0, n)
	for _, i := range rng.Perm(len(ws))[:n] {
		out = append(out, ws[i])
	}
	return out
}

// envelope is one collected producer payload: a path profile or a CCT
// export, under the program name it is pushed as.
type envelope struct {
	name string
	prof *profile.Profile
	ex   *cct.Export
}

// envelopeKinds are collected per (program, scale): flow+hw profiles,
// context+flow CCT exports, and k=2 flow+hw profiles pushed as
// "<program>.k2" (the collector keys aggregates by program name, and k=2
// ids are a different schema).
var envelopeKinds = []string{"flowhw", "ctxflow", "flowhw_k2"}

// collectEnvelopes runs every drawn program in each envelope kind through
// experiments.Session.RunFreshSet (what ppd push does) on the benchmark's
// workers and returns the envelopes in a fixed order.
func collectEnvelopes(d serviceDraw) ([]envelope, error) {
	type job struct {
		w     workload.Workload
		scale workload.Scale
		kind  string
	}
	var jobs []job
	for _, sc := range []struct {
		ws    []workload.Workload
		scale workload.Scale
	}{{d.test, workload.Test}, {d.ref, workload.Ref}} {
		for _, w := range sc.ws {
			for _, k := range envelopeKinds {
				jobs = append(jobs, job{w, sc.scale, k})
			}
		}
	}
	sessions := map[workload.Scale][2]*experiments.Session{}
	for _, sc := range []workload.Scale{workload.Test, workload.Ref} {
		s1 := experiments.NewSession(sc)
		s2 := experiments.NewSession(sc)
		s2.K = 2
		sessions[sc] = [2]*experiments.Session{s1, s2}
	}
	set := hpm.NewMetricSet(experiments.StandardEvents[:]...)
	out := make([]envelope, len(jobs))
	errs := make([]error, len(jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				j := int(next.Add(1) - 1)
				if j >= len(jobs) {
					return
				}
				jb := jobs[j]
				s, mode := sessions[jb.scale][0], instrument.ModePathHW
				switch jb.kind {
				case "ctxflow":
					mode = instrument.ModeContextFlow
				case "flowhw_k2":
					s = sessions[jb.scale][1]
				}
				cell, err := s.RunFreshSet(context.Background(), jb.w, mode, set)
				if err != nil {
					errs[j] = err
					continue
				}
				switch jb.kind {
				case "flowhw":
					out[j] = envelope{name: jb.w.Name, prof: cell.Profile}
				case "ctxflow":
					out[j] = envelope{name: jb.w.Name, ex: cell.Tree.Export(jb.w.Name)}
				case "flowhw_k2":
					cell.Profile.Program = jb.w.Name + ".k2"
					out[j] = envelope{name: cell.Profile.Program, prof: cell.Profile}
				}
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, fmt.Errorf("collecting envelopes: %w", err)
	}
	return out, nil
}

// frameGen produces one producer's seeded frame sequence: each frame
// carries frameItems envelopes drawn uniformly from the pool.
type frameGen struct {
	rng  *rand.Rand
	pool []envelope
	bw   wire.BatchWriter
	buf  []byte
	idx  []int
}

func newFrameGen(seed int64, stream int, pool []envelope) *frameGen {
	return &frameGen{rng: rand.New(rand.NewSource(seed*1_000_003 + int64(stream) + 1)), pool: pool}
}

// next encodes the next frame with BatchWriter.Add* + AppendFrame. The
// bytes and indices stay valid until the following call.
func (g *frameGen) next() ([]byte, []int, error) {
	g.bw.Reset()
	g.idx = g.idx[:0]
	for i := 0; i < frameItems; i++ {
		j := g.rng.Intn(len(g.pool))
		g.idx = append(g.idx, j)
		if err := addEnvelope(&g.bw, g.pool[j]); err != nil {
			return nil, nil, err
		}
	}
	g.buf = g.bw.AppendFrame(g.buf[:0])
	return g.buf, g.idx, nil
}

func addEnvelope(bw *wire.BatchWriter, e envelope) error {
	if e.prof != nil {
		return bw.AddProfile(e.prof)
	}
	return bw.AddExport(e.ex)
}

// server is a collector serving on a loopback listener.
type server struct {
	srv  *http.Server
	done chan struct{}
	url  string
}

func startServer(c *collector.Collector, tr *tracer) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening: %w", err)
	}
	s := &server{srv: &http.Server{Handler: traceHandler(tr, c.Handler())}, done: make(chan struct{}), url: "http://" + ln.Addr().String()}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln) // returns http.ErrServerClosed after stop
	}()
	return s, nil
}

// stop shuts the listener down and waits for the serving goroutine.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	<-s.done
	return err
}

// countingTransport counts every HTTP attempt the clients make — client
// retries included — and the ones that failed, and carries the open span
// of the request's context to the server in headers.
type countingTransport struct {
	base                       *http.Transport
	pushAttempts, pushFailed   atomic.Int64
	pushRejected               atomic.Int64 // non-200 /ingest answers
	otherAttempts, otherFailed atomic.Int64
}

func newTransport() *countingTransport {
	return &countingTransport{base: &http.Transport{
		MaxConnsPerHost:     workers,
		MaxIdleConnsPerHost: workers,
	}}
}

func (t *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if s, ok := req.Context().Value(spanKey{}).(spanRef); ok {
		req = req.Clone(req.Context())
		req.Header.Set(hdrOp, strconv.FormatInt(s.op, 10))
		req.Header.Set(hdrParent, strconv.FormatInt(s.id, 10))
	}
	push := req.URL.Path == "/ingest"
	if push {
		t.pushAttempts.Add(1)
	} else {
		t.otherAttempts.Add(1)
	}
	resp, err := t.base.RoundTrip(req)
	if err != nil || resp.StatusCode != http.StatusOK {
		if push {
			t.pushFailed.Add(1)
			if err == nil {
				t.pushRejected.Add(1)
			}
		} else {
			t.otherFailed.Add(1)
		}
	}
	return resp, err
}

// newClient returns a collector client over t that retries shed pushes
// like ppd push does.
func newClient(url string, t *countingTransport) *collector.Client {
	return &collector.Client{BaseURL: url, HTTPClient: &http.Client{Transport: t}, Retry: &collector.RetryPolicy{}}
}

// rejected sums the collector's Rejected* counters.
func rejected(m collector.Metrics) uint64 {
	return m.RejectedBusy + m.RejectedQueueFull + m.RejectedTooLarge + m.RejectedTimeout +
		m.RejectedBad + m.RejectedConflict + m.RejectedStoreFull + m.RejectedDraining
}

// checkRejections cross-checks the refused pushes the client saw since
// it had seen before against the collector's own rejection counters.
func checkRejections(t *countingTransport, before int64, c *collector.Collector) error {
	if seen, counted := t.pushRejected.Load()-before, rejected(c.Metrics()); uint64(seen) != counted {
		return fmt.Errorf("check: clients saw %d refused pushes, collector counted %d rejections", seen, counted)
	}
	return nil
}

// pushStats accumulates what producers measured.
type pushStats struct {
	mu      sync.Mutex
	lat     []float64 // ms per push as the client saw it
	late    []float64 // ms the open-loop generator sent after the due time
	counts  []int64   // acknowledged pushes of each pool envelope
	frames  int64
	bytes   int64
	errs    []error // failures of the benchmark itself
	unacked int64   // pushes that failed after the client's retries
}

func newPushStats(pool int) *pushStats { return &pushStats{counts: make([]int64, pool)} }

// merge adds o's measurements to st.
// sampleMB is the heap st's latency samples take, in MiB.
func (st *pushStats) sampleMB() float64 {
	return float64(8*(cap(st.lat)+cap(st.late))) / (1 << 20)
}

func (st *pushStats) merge(o *pushStats) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.lat = append(st.lat, o.lat...)
	st.late = append(st.late, o.late...)
	for i, n := range o.counts {
		st.counts[i] += n
	}
	st.frames += o.frames
	st.bytes += o.bytes
	st.errs = append(st.errs, o.errs...)
	st.unacked += o.unacked
}

// pusher pushes one producer's frames through cl. Traced pushes also
// re-time the narrower public calls on the same frame: wire.ParseFrame +
// Frame.Decode* (decode) and Collector.IngestFrame on shadow (decode +
// fold).
type pusher struct {
	cl     *collector.Client
	gen    *frameGen
	st     *pushStats
	tr     *tracer
	shadow *collector.Collector
}

// push encodes and pushes one frame; due, when non-zero, is when an open
// loop meant to send it, and latency is measured from it.
func (p *pusher) push(ctx context.Context, due time.Time) {
	op := p.tr.newOp()
	root := p.tr.begin(op, 0, "bench.frame")
	defer root.end()
	s := p.tr.begin(op, root.id, "wire.encode")
	frame, idx, err := p.gen.next()
	s.end()
	if err != nil {
		p.fail(fmt.Errorf("encoding frame: %w", err))
		return
	}
	start := time.Now()
	if due.IsZero() {
		due = start
	}
	s = p.tr.begin(op, root.id, "bench.push")
	_, err = p.cl.PushFrame(withSpan(ctx, s), frame)
	s.end()
	lat := ms(time.Since(due))
	if err != nil {
		p.st.mu.Lock()
		p.st.unacked++
		p.st.mu.Unlock()
		return
	}
	if p.tr != nil {
		s = p.tr.begin(op, root.id, "wire.decode")
		err = decodeFrame(frame)
		s.end()
		if err == nil {
			s = p.tr.begin(op, root.id, "collector.ingest_frame")
			_, _, err = p.shadow.IngestFrame(frame)
			s.end()
		}
		if err != nil {
			p.fail(fmt.Errorf("re-decoding a pushed frame: %w", err))
		}
	}
	p.st.mu.Lock()
	p.st.lat = append(p.st.lat, lat)
	p.st.late = append(p.st.late, ms(start.Sub(due)))
	for _, j := range idx {
		p.st.counts[j]++
	}
	p.st.frames++
	p.st.bytes += int64(len(frame))
	p.st.mu.Unlock()
}

func (p *pusher) fail(err error) {
	p.st.mu.Lock()
	p.st.errs = append(p.st.errs, err)
	p.st.mu.Unlock()
}

// decodeFrame is the decode layer alone: wire.ParseFrame and a Decode*
// of every item.
func decodeFrame(frame []byte) error {
	f, err := wire.ParseFrame(frame)
	if err != nil {
		return err
	}
	var bp wire.BatchProfile
	var bc wire.BatchCCT
	for i := 0; i < f.Items(); i++ {
		switch f.Kind(i) {
		case wire.KindProfile:
			err = f.DecodeProfile(i, &bp)
		case wire.KindCCT:
			err = f.DecodeCCT(i, &bc)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// closedPushers runs workers closed-loop producers until stop, given how
// many frames the producer has pushed, says to end.
func closedPushers(ctx context.Context, mk func(i int) *pusher, stop func(pushed int) bool) {
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p := mk(i)
			for pushed := 0; !stop(pushed); pushed++ {
				p.push(ctx, time.Time{})
			}
		}(i)
	}
	wg.Wait()
}

// sampler records the peak admission queue depth and in-flight count
// from Collector.Metrics while the timed section runs.
type sampler struct {
	stop          chan struct{}
	done          chan struct{}
	queue, inflig int64
}

func startSampler(c *collector.Collector) *sampler {
	s := &sampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				m := c.Metrics()
				s.queue = max(s.queue, m.QueueDepth)
				s.inflig = max(s.inflig, m.Inflight)
			}
		}
	}()
	return s
}

// finish stops the sampler and records its peaks (the highest of every
// sampler run in the pass).
func (s *sampler) finish(o *outcome) {
	close(s.stop)
	<-s.done
	o.set("collector.queue_depth_max", max(o.metrics["collector.queue_depth_max"], float64(s.queue)))
	o.set("collector.inflight_max", max(o.metrics["collector.inflight_max"], float64(s.inflig)))
}

// tableSet is the three checked tables.
type tableSet struct{ t3, t4, t5 string }

// tablePrograms lists, sorted, the programs with profile data and the
// programs with CCT data among the envelopes with non-zero counts.
func tablePrograms(pool []envelope, counts []int64) (profs, ccts []string) {
	p, c := map[string]bool{}, map[string]bool{}
	for i, n := range counts {
		if n == 0 {
			continue
		}
		if pool[i].prof != nil {
			p[pool[i].name] = true
		} else {
			c[pool[i].name] = true
		}
	}
	for n := range p {
		profs = append(profs, n)
	}
	for n := range c {
		ccts = append(ccts, n)
	}
	sort.Strings(profs)
	sort.Strings(ccts)
	return profs, ccts
}

// fetchTables fetches Tables 3, 4 and 5 through the client.
func fetchTables(ctx context.Context, cl *collector.Client, profs, ccts []string) (tableSet, error) {
	var ts tableSet
	var err error
	if ts.t3, err = cl.Table(ctx, 3, ccts); err != nil {
		return ts, fmt.Errorf("fetching table 3: %w", err)
	}
	if ts.t4, err = cl.Table(ctx, 4, profs); err != nil {
		return ts, fmt.Errorf("fetching table 4: %w", err)
	}
	if ts.t5, err = cl.Table(ctx, 5, profs); err != nil {
		return ts, fmt.Errorf("fetching table 5: %w", err)
	}
	return ts, nil
}

// merged is a local merge of acknowledged envelopes, per program.
type merged struct {
	profs map[string]*profile.Profile
	exps  map[string]*cct.Export
}

// localMerge merges counts[i] copies of every pool envelope i with
// profile.Merge and cct.MergeAllExports, independently of the collector.
func localMerge(pool []envelope, counts []int64) (merged, error) {
	m := merged{profs: map[string]*profile.Profile{}, exps: map[string]*cct.Export{}}
	parts := map[string][]*cct.Export{}
	for i, n := range counts {
		if n == 0 {
			continue
		}
		e := pool[i]
		if e.prof != nil {
			p, err := timesProfile(e.prof, n)
			if err != nil {
				return m, err
			}
			if acc := m.profs[e.name]; acc == nil {
				m.profs[e.name] = p
			} else if err := acc.Merge(p); err != nil {
				return m, fmt.Errorf("local merge of %s: %w", e.name, err)
			}
			continue
		}
		x, err := timesExport(e.ex, n)
		if err != nil {
			return m, err
		}
		parts[e.name] = append(parts[e.name], x)
	}
	for name, xs := range parts {
		ex, err := cct.MergeAllExports(xs)
		if err != nil {
			return m, fmt.Errorf("local merge of %s: %w", name, err)
		}
		m.exps[name] = ex
	}
	return m, nil
}

// tables renders Tables 3, 4 and 5 from the local merge.
func (m merged) tables() tableSet {
	var rows3 []experiments.Table3Row
	for _, name := range sortedKeys(m.exps) {
		rows3 = append(rows3, experiments.Table3Row{Name: name, Stats: m.exps[name].Stats()})
	}
	var rows4 []experiments.Table4Result
	var rows5 []analysis.ProcReport
	for _, name := range sortedKeys(m.profs) {
		rows4 = append(rows4, experiments.Table4FromProfile(name, m.profs[name]))
		rows5 = append(rows5, analysis.ClassifyProcs(m.profs[name], analysis.DefaultHotThreshold))
	}
	var b3, b4, b5 bytes.Buffer
	experiments.RenderTable3(rows3, &b3)
	experiments.RenderTable4(rows4, &b4)
	experiments.RenderTable5(rows5, &b5)
	return tableSet{b3.String(), b4.String(), b5.String()}
}

// check compares the collector's merged aggregates with the local merge
// exactly — every path row of every profile, and every CCT's node count
// and per-slot metric totals — which the rounded tables cannot show for
// one envelope among thousands.
func (m merged) check(c *collector.Collector, what string) error {
	for _, name := range sortedKeys(m.profs) {
		got, ok := c.MergedProfile(name)
		if !ok {
			return fmt.Errorf("check: %s: no merged profile of %s", what, name)
		}
		var g, w bytes.Buffer
		if err := errors.Join(got.Write(&g), m.profs[name].Write(&w)); err != nil {
			return err
		}
		if !bytes.Equal(g.Bytes(), w.Bytes()) {
			return fmt.Errorf("check: %s: the merged profile of %s differs from the local merge", what, name)
		}
	}
	for _, name := range sortedKeys(m.exps) {
		got, ok := c.MergedExport(name)
		want := m.exps[name]
		if !ok || got.NumNodes() != want.NumNodes() {
			return fmt.Errorf("check: %s: the merged CCT of %s differs in shape from the local merge", what, name)
		}
		for i := 0; i < want.NumMetrics; i++ {
			if got.TotalMetric(i) != want.TotalMetric(i) {
				return fmt.Errorf("check: %s: the merged CCT of %s totals %d in metric %d, the local merge %d",
					what, name, got.TotalMetric(i), i, want.TotalMetric(i))
			}
		}
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// compareTables reports the first table that differs.
func compareTables(what string, got, want tableSet) error {
	for _, t := range []struct {
		n    int
		g, w string
	}{{3, got.t3, want.t3}, {4, got.t4, want.t4}, {5, got.t5, want.t5}} {
		if t.g != t.w {
			return fmt.Errorf("check: table %d %s differs (%d bytes vs %d)", t.n, what, len(t.g), len(t.w))
		}
	}
	return nil
}

// checkServed requires the tables c serves to be byte-identical to the
// tables rendered from the local merge of everything acknowledged, and
// c's aggregates to equal that merge exactly. It returns the served
// tables and the local merge.
func checkServed(ctx context.Context, cl *collector.Client, c *collector.Collector, pool []envelope, counts []int64) (tableSet, merged, error) {
	want, err := localMerge(pool, counts)
	if err != nil {
		return tableSet{}, want, err
	}
	got, err := fetchTables(ctx, cl, sortedKeys(want.profs), sortedKeys(want.exps))
	if err != nil {
		return got, want, err
	}
	if err := compareTables("served by the collector vs the local merge", got, want.tables()); err != nil {
		return got, want, err
	}
	return got, want, want.check(c, "collector vs the local merge")
}

// timesProfile returns p merged with itself n times, by doubling.
func timesProfile(p *profile.Profile, n int64) (*profile.Profile, error) {
	var acc *profile.Profile
	pow := cloneProfile(p)
	for n > 0 {
		if n&1 == 1 {
			if acc == nil {
				acc = cloneProfile(pow)
			} else if err := acc.Merge(pow); err != nil {
				return nil, err
			}
		}
		if n >>= 1; n > 0 {
			if err := pow.Merge(cloneProfile(pow)); err != nil {
				return nil, err
			}
		}
	}
	return acc, nil
}

// timesExport returns ex merged with itself n times, by doubling.
func timesExport(ex *cct.Export, n int64) (*cct.Export, error) {
	var acc *cct.Export
	pow := ex
	for n > 0 {
		if n&1 == 1 {
			if acc == nil {
				acc = pow
			} else {
				m, err := cct.MergeExports(acc, pow)
				if err != nil {
					return nil, err
				}
				acc = m
			}
		}
		if n >>= 1; n > 0 {
			m, err := cct.MergeExports(pow, pow)
			if err != nil {
				return nil, err
			}
			pow = m
		}
	}
	return acc, nil
}

// cloneProfile deep-copies p, giving the copy its own metric storage.
func cloneProfile(p *profile.Profile) *profile.Profile {
	q := &profile.Profile{Program: p.Program, Mode: p.Mode, K: p.K, Events: slices.Clone(p.Events)}
	for _, pp := range p.Procs {
		cp := &profile.ProcPaths{ProcID: pp.ProcID, Name: pp.Name, NumPaths: pp.NumPaths, K: pp.K}
		cp.Entries = slices.Clone(pp.Entries)
		for j := range cp.Entries {
			if src := pp.Entries[j].Metrics; len(src) > 0 {
				cp.Entries[j].Metrics = cp.NewMetrics(len(src))
				copy(cp.Entries[j].Metrics, src)
			}
		}
		q.Procs = append(q.Procs, cp)
	}
	return q
}

// reportPushes sets the producer-side metrics of a service workload.
func reportPushes(o *outcome, st *pushStats, elapsed time.Duration) {
	envs := float64(st.frames * frameItems)
	o.set("ingest_env_per_s", envs/elapsed.Seconds())
	o.set("push_p50_ms", median(st.lat))
	o.set("push_p99_ms", percentile(st.lat, 99))
	o.set("wire.frame_bytes_per_env", ratio(float64(st.bytes), envs))
	o.note("pushes: %d frames (%d envelopes) acked in %.2fs, %d failed after retries; push p50 %.3f ms, p99 %.3f ms (n=%d)",
		st.frames, st.frames*frameItems, elapsed.Seconds(), st.unacked, median(st.lat), percentile(st.lat, 99), len(st.lat))
}

// reportLayers sets the span-derived per-layer metrics common to the
// service workloads.
func reportLayers(o *outcome, tr *tracer, st *pushStats) {
	ls := tr.layers()
	envs := float64(st.frames * frameItems)
	o.set("wire.encode_us_per_env", ratio(selfSumUs(ls, "wire.encode"), envs))
	dec := selfSumUs(ls, "wire.decode")
	o.set("wire.decode_us_per_env", ratio(dec, envs))
	o.set("collector.fold_us_per_env", ratio(selfSumUs(ls, "collector.ingest_frame")-dec, envs))
	for _, r := range routes {
		h := selfUs(ls, "collector.handler."+r)
		o.set("collector.handler_p50_us."+r, percentile(h, 50))
		o.set("collector.handler_p99_us."+r, percentile(h, 99))
	}
	// A client span's self time is what it spent outside the handler:
	// the HTTP stack on both sides plus the loopback.
	over := append(slices.Clone(selfUs(ls, "bench.push")), selfUs(ls, "bench.query")...)
	o.set("http.overhead_p50_us", percentile(over, 50))
	for _, name := range []string{"collector.merged_profile", "collector.merged_export", "experiments.table4",
		"analysis.classify_procs", "cct.stats", "experiments.render"} {
		if s := ls[name]; s != nil {
			o.set(name+"_us", float64(s.SelfNs)/1e3/float64(s.Count))
		}
	}
}

// reportFailures adds the HTTP attempts and failures the transport
// counted to the outcome and sets failed_frac and collector.retries.
func reportFailures(o *outcome, t *countingTransport) {
	o.attempted += t.pushAttempts.Load() + t.otherAttempts.Load()
	o.failed += t.pushFailed.Load() + t.otherFailed.Load()
	o.set("failed_frac", ratio(float64(o.failed), float64(o.attempted)))
	o.set("collector.retries", float64(t.pushFailed.Load()))
	// checkRejections made this equal to the collectors' own count.
	o.set("collector.rejected", float64(t.pushRejected.Load()))
	o.note("attempted %d, failed %d, failed_frac %g (client-retried pushes count as failed attempts)",
		o.attempted, o.failed, ratio(float64(o.failed), float64(o.attempted)))
}

func joinNames(ws []workload.Workload) string {
	names := make([]string, len(ws))
	for i, w := range ws {
		names[i] = w.Name
	}
	return strings.Join(names, ",")
}
