package sim_test

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"pathprof/internal/cache"
	"pathprof/internal/hpm"
	"pathprof/internal/instrument"
	"pathprof/internal/ir"
	"pathprof/internal/mem"
	"pathprof/internal/sim"
	"pathprof/internal/testgen"
	"pathprof/internal/workload"
)

// The tests in this file hold the block core (Run, Step) to the reference
// per-instruction loop kept in refstep_test.go (RefRun, RefStep): the same
// program, plan and configuration run on both must agree on every Result
// field, Steps(), the error text, the cache statistics, the tracer's event
// sequence with the cycle count at each event, the PMU's totals and cycle
// count at every probe call (which fix every PIC value the probe reads),
// the probe's result, the extracted profile and CCT, the scheduler's raw
// counts and estimates, the buffered counter write still pending and the
// PIC values at the end, the final memory image, and, after a fault, what
// running the machine once more does.

// variant is one way to run a program.
type variant struct {
	name    string
	cfg     func(*sim.Config)
	events  [2]hpm.Event
	quantum uint64 // >0: attach a four-event scheduler rotating this often
	tracer  bool
	step    bool // drive the block core with Step until it halts
}

// outcome is everything one run is compared on.
type outcome struct {
	res          sim.Result
	err          string
	steps        uint64
	cycles       uint64
	totals       [hpm.NumEvents]uint64
	l1i, l1d, l2 cache.Stats
	trace        []string
	probes       []uint64 // a digest of each probe call
	profile      string
	raw          []uint64
	est          []uint64
	drainsIn     uint64 // the buffered PIC write's remaining retirements
	again        string // after a fault: running once more
	pics         []uint32
	memory       *mem.Memory
}

type traceLog struct {
	m      *sim.Machine
	events []string
}

func (t *traceLog) Edge(proc int, from ir.BlockID, slot int) {
	t.events = append(t.events, fmt.Sprintf("edge %d b%d/%d @%d", proc, from, slot, t.m.Cycles()))
}
func (t *traceLog) Enter(proc int) {
	t.events = append(t.events, fmt.Sprintf("enter %d @%d depth %d", proc, t.m.Cycles(), t.m.Depth()))
}
func (t *traceLog) Exit(proc int) {
	t.events = append(t.events, fmt.Sprintf("exit %d @%d", proc, t.m.Cycles()))
}

// run executes prog (plan, when non-nil, is its instrumentation) under v,
// on the block core or, with ref, on the reference loop.
func run(prog *ir.Program, plan *instrument.Plan, v variant, maxSteps uint64, ref bool) outcome {
	cfg := sim.DefaultConfig()
	if v.cfg != nil {
		v.cfg(&cfg)
	}
	if maxSteps > 0 {
		cfg.MaxSteps = maxSteps
	}
	if plan != nil {
		prog = plan.Prog
	}
	m := sim.New(prog, cfg)
	m.PMU().Select(v.events[0], v.events[1])
	var rt *instrument.Runtime
	if plan != nil {
		rt = plan.Wire(m)
	}
	var o outcome
	for id, fn := range m.Probes() {
		if fn == nil {
			continue
		}
		id, fn := id, fn
		m.RegisterProbe(int64(id), func(ctx sim.ProbeCtx, arg int64) int64 {
			h := fnv.New64a()
			fmt.Fprint(h, id, arg, m.PMU().Totals(), ctx.Cycles(), ctx.Depth())
			r := fn(ctx, arg)
			fmt.Fprint(h, r, m.PMU().Totals(), ctx.Cycles())
			o.probes = append(o.probes, h.Sum64())
			return r
		})
	}
	var sched *hpm.Scheduler
	if v.quantum > 0 {
		set := hpm.NewMetricSet(v.events[0], v.events[1], hpm.EvLoads, hpm.EvBranches)
		sched = m.AttachScheduler(set, v.quantum)
	}
	var tl *traceLog
	if v.tracer {
		tl = &traceLog{m: m}
		m.SetTracer(tl)
	}
	step := func() error {
		if ref {
			return m.RefStep()
		}
		return m.Step()
	}
	runAll := func() (sim.Result, error) {
		if ref {
			return m.RefRun()
		}
		return m.Run()
	}
	var err error
	if v.step {
		for !m.Halted() && err == nil {
			err = step()
		}
		if err == nil {
			o.res, err = m.Run()
		}
	} else {
		o.res, err = runAll()
	}
	if err != nil {
		o.err = err.Error()
	}
	o.steps, o.cycles, o.totals = m.Steps(), m.Cycles(), m.PMU().Totals()
	o.l1i, o.l1d, o.l2 = m.CacheStats()
	o.drainsIn = m.PMU().DrainsIn()
	if tl != nil {
		o.trace = tl.events
	}
	if sched != nil {
		o.raw, o.est = sched.Raw(), sched.Estimates()
	}
	if err != nil {
		// A faulted machine stays at the faulting instruction: running it
		// again charges and faults the same way.
		if v.step {
			err = step()
		} else {
			_, err = runAll()
		}
		l1i, _, _ := m.CacheStats()
		o.again = fmt.Sprint(err, m.Steps(), m.Cycles(), m.PMU().Totals(), l1i, m.PMU().DrainsIn())
	}
	o.pics = m.PMU().ReadAll(nil)
	if rt != nil && err == nil {
		var buf bytes.Buffer
		if plan.Mode.UsesPaths() {
			if werr := rt.ExtractProfile().Write(&buf); werr != nil {
				panic(werr)
			}
		}
		if rt.Tree != nil {
			if werr := rt.Tree.Export(prog.Name).WriteText(&buf); werr != nil {
				panic(werr)
			}
		}
		o.profile = buf.String()
	}
	o.memory = m.Mem()
	return o
}

// diff returns the first difference between the block core's outcome and
// the reference's, or "".
func diff(got, want outcome) string {
	switch {
	case got.err != want.err:
		return fmt.Sprintf("error %q, want %q", got.err, want.err)
	case got.steps != want.steps:
		return fmt.Sprintf("Steps() %d, want %d", got.steps, want.steps)
	case got.cycles != want.cycles:
		return fmt.Sprintf("Cycles() %d, want %d", got.cycles, want.cycles)
	case got.totals != want.totals:
		return fmt.Sprintf("totals %v, want %v", got.totals, want.totals)
	case got.l1i != want.l1i || got.l1d != want.l1d || got.l2 != want.l2:
		return fmt.Sprintf("L1I %+v L1D %+v L2 %+v, want %+v %+v %+v", got.l1i, got.l1d, got.l2, want.l1i, want.l1d, want.l2)
	case got.drainsIn != want.drainsIn:
		return fmt.Sprintf("buffered write drains in %d, want %d", got.drainsIn, want.drainsIn)
	case got.again != want.again:
		return fmt.Sprintf("running again after the fault: %s, want %s", got.again, want.again)
	case !reflect.DeepEqual(got.pics, want.pics):
		return fmt.Sprintf("PICs %v, want %v", got.pics, want.pics)
	case !reflect.DeepEqual(got.res, want.res):
		return fmt.Sprintf("result %+v, want %+v", got.res, want.res)
	case got.profile != want.profile:
		return "extracted profile or CCT differs"
	case !reflect.DeepEqual(got.raw, want.raw) || !reflect.DeepEqual(got.est, want.est):
		return fmt.Sprintf("scheduler raw %v est %v, want %v %v", got.raw, got.est, want.raw, want.est)
	case !mem.Equal(got.memory, want.memory):
		return "final memory image differs"
	}
	for i := 0; i < len(got.trace) || i < len(want.trace); i++ {
		if i >= len(got.trace) || i >= len(want.trace) || got.trace[i] != want.trace[i] {
			g, w := "end", "end"
			if i < len(got.trace) {
				g = got.trace[i]
			}
			if i < len(want.trace) {
				w = want.trace[i]
			}
			return fmt.Sprintf("trace event %d: %s, want %s", i, g, w)
		}
	}
	for i := 0; i < len(got.probes) || i < len(want.probes); i++ {
		if i >= len(got.probes) || i >= len(want.probes) || got.probes[i] != want.probes[i] {
			return fmt.Sprintf("probe call %d of %d (want %d) differs", i, len(got.probes), len(want.probes))
		}
	}
	return ""
}

var (
	withL2 = func(c *sim.Config) {
		c.L2 = cache.DefaultL2
		c.L2HitPenalty = 3
		c.DMissPenalty = 30
	}
	width = func(w int) func(*sim.Config) { return func(c *sim.Config) { c.IssueWidth = w } }
	// Caches small enough that lines conflict and get evicted, so a fetch
	// or access skipped, added or misordered changes later misses.
	tiny = func(c *sim.Config) {
		c.L1I = cache.Config{Name: "L1I", SizeBytes: 256, LineBytes: 32, Assoc: 2}
		c.L1D = cache.Config{Name: "L1D", SizeBytes: 256, LineBytes: 32, Assoc: 1}
	}
	tiny4 = func(c *sim.Config) {
		c.L1I = cache.Config{Name: "L1I", SizeBytes: 512, LineBytes: 16, Assoc: 4}
		c.L1D = cache.Config{Name: "L1D", SizeBytes: 512, LineBytes: 8, Assoc: 2}
	}
	// Event selections that put lazy and eager events on the PICs.
	selections = [][2]hpm.Event{
		{hpm.EvDCacheMiss, hpm.EvInsts},
		{hpm.EvCycles, hpm.EvLoads},
		{hpm.EvBranches, hpm.EvStores},
		{hpm.EvDCacheRead, hpm.EvCalls},
		{hpm.EvDCacheWrite, hpm.EvICacheMiss},
	}
)

// modes are the instrumentations each program runs under, plain first.
// local marks a mode that runs the program's variant without longjmp: the
// k-path runtime fails on non-local exits (CHANGES.md has the finding).
var modes = []struct {
	name  string
	opts  func() *instrument.Options
	local bool
}{
	{"plain", func() *instrument.Options { return nil }, false},
	{"flow+hw", func() *instrument.Options { o := instrument.DefaultOptions(instrument.ModePathHW); return &o }, false},
	{"context+hw", func() *instrument.Options { o := instrument.DefaultOptions(instrument.ModeContextHW); return &o }, false},
	{"context+flow", func() *instrument.Options { o := instrument.DefaultOptions(instrument.ModeContextFlow); return &o }, false},
	{"flow+hw k=2", func() *instrument.Options {
		o := instrument.DefaultOptions(instrument.ModePathHW)
		o.K = 2
		return &o
	}, true},
	// Without the read after a counter write, buffered writes drain on
	// their own a few retirements later, in the middle of decoded blocks.
	{"flow+hw no-raw", func() *instrument.Options {
		o := instrument.DefaultOptions(instrument.ModePathHW)
		o.ReadAfterWrite = false
		return &o
	}, false},
}

// TestBlockCoreMatchesReference runs random programs — memory traffic,
// setjmp/longjmp, recursion and indirect calls — plain and under every
// instrumentation mode, in every configuration, on both loops.
func TestBlockCoreMatchesReference(t *testing.T) {
	variants := []variant{
		{name: "default"},
		{name: "issue-2", cfg: width(2)},
		{name: "issue-4", cfg: width(4)},
		{name: "l2", cfg: withL2},
		{name: "tiny-caches", cfg: tiny},
		{name: "tiny-4-way", cfg: tiny4},
		{name: "mux-7", quantum: 7},
		{name: "mux-37", quantum: 37},
		{name: "tracer", tracer: true},
		{name: "step", step: true},
		{name: "step-issue-4", cfg: width(4), step: true, tracer: true},
	}
	seeds := 12
	if testing.Short() {
		seeds = 4
	}
	for seed := int64(0); seed < int64(seeds); seed++ {
		gen := func(nonLocal bool) *ir.Program {
			rng := rand.New(rand.NewSource(seed))
			return testgen.RandomProgram(rng, fmt.Sprintf("diff%d", seed), testgen.ProgramOptions{
				NumProcs:      3 + rng.Intn(5),
				BlocksPer:     3 + rng.Intn(4),
				Recursion:     true,
				IndirectCalls: true,
				Memory:        true,
				NonLocal:      nonLocal,
			})
		}
		nonLocal, local := gen(true), gen(false)
		for _, md := range modes {
			prog := nonLocal
			if md.local {
				prog = local
			}
			var plan *instrument.Plan
			if opts := md.opts(); opts != nil {
				var err error
				if plan, err = instrument.Instrument(prog, *opts); err != nil {
					t.Fatalf("seed %d %s: %v", seed, md.name, err)
				}
			}
			for vi, v := range variants {
				v.events = selections[(int(seed)+vi)%len(selections)]
				want := run(prog, plan, v, 0, true)
				got := run(prog, plan, v, 0, false)
				if want.err != "" {
					t.Fatalf("seed %d %s %s: reference run failed: %s", seed, md.name, v.name, want.err)
				}
				if d := diff(got, want); d != "" {
					t.Fatalf("seed %d %s %s: %s", seed, md.name, v.name, d)
				}
				if v.name != "default" {
					continue
				}
				// Step budgets that run out at assorted instructions, most
				// of them inside a decoded block.
				for _, cut := range []uint64{1, 2, 3, want.steps / 3, want.steps/2 + 1, want.steps - 1} {
					if cut == 0 || cut >= want.steps {
						continue
					}
					want := run(prog, plan, v, cut, true)
					got := run(prog, plan, v, cut, false)
					if got.err == "" {
						t.Fatalf("seed %d %s budget %d: no error", seed, md.name, cut)
					}
					if d := diff(got, want); d != "" {
						t.Fatalf("seed %d %s budget %d: %s", seed, md.name, cut, d)
					}
				}
			}
		}
	}
}

// TestBlockCoreMatchesReferenceOnSuite runs every Suite program at test
// scale, plain and flow+hw, in the configurations TestSimGolden does not
// cover: superscalar issue, the L2 and a counter scheduler.
func TestBlockCoreMatchesReferenceOnSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every suite program on both loops")
	}
	variants := []variant{
		{name: "issue-2", cfg: width(2)},
		{name: "issue-4", cfg: width(4)},
		{name: "l2", cfg: withL2},
		{name: "mux-1000", quantum: 1000},
	}
	for wi, w := range workload.Suite() {
		prog := w.Build(workload.Test)
		plan, err := instrument.Instrument(prog, instrument.DefaultOptions(instrument.ModePathHW))
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		for vi, v := range variants {
			v.events = selections[(wi+vi)%len(selections)]
			for _, p := range []*instrument.Plan{nil, plan} {
				want := run(prog, p, v, 0, true)
				got := run(prog, p, v, 0, false)
				if want.err != "" {
					t.Fatalf("%s %s: reference run failed: %s", w.Name, v.name, want.err)
				}
				if d := diff(got, want); d != "" {
					t.Fatalf("%s %s instrumented=%v: %s", w.Name, v.name, p != nil, d)
				}
			}
		}
	}
}

// faults are the ways faultProgram ends, four plain ops and four exit ops
// that fail, each with a phrase of its error.
var faults = []struct{ name, err string }{
	{"unaligned-load", "unaligned load"},
	{"unaligned-store", "unaligned store"},
	{"unaligned-store-idx", "unaligned store"},
	{"output", "output limit 6 exceeded"},
	{"call-ind", "call to invalid procedure 999"},
	{"depth", "call depth limit 5 exceeded"},
	{"longjmp", "longjmp with invalid handle 42"},
	{"probe", "unknown probe 99"},
}

// faultProgram builds a program that loops over memory six times, with a
// load, a store and an output each time, then writes a counter pair, runs
// gap plain ops and faults in the given way. A plain op that faults sits
// in the middle of a decoded block, with plain ops after it; with a small
// gap the counter write is still buffered when it faults. For "depth" the
// write, the gap and the call that fails sit in a procedure that recurses
// until the call depth limit of 5.
func faultProgram(fault string, gap int) *ir.Program {
	b := ir.NewBuilder("fault-" + fault)
	f := b.NewProc("f", 1)
	main := b.NewProc("main", 0)
	e, h, body, x := main.NewBlock(), main.NewBlock(), main.NewBlock(), main.NewBlock()
	e.MovI(2, int64(mem.GlobalBase))
	e.MovI(3, 0)
	e.MovI(7, int64(mem.GlobalBase)+3) // unaligned
	e.MovI(8, 999)                     // no such procedure
	e.MovI(9, 42)                      // no such setjmp handle
	e.Jmp(h)
	h.CmpLTI(4, 3, 6)
	h.Br(4, body, x)
	body.Load(5, 2, 0)
	body.Add(5, 5, 3)
	body.Store(2, 8, 5)
	body.Out(5)
	body.AddI(2, 2, 16)
	body.AddI(3, 3, 1)
	body.Jmp(h)
	at := x
	if fault == "depth" {
		x.Call(f)
		x.Halt()
		at = f.NewBlock()
	} else {
		f.NewBlock().Ret()
	}
	at.WrPIC(5)
	for k := 0; k < gap; k++ {
		at.AddI(6, 6, 1)
	}
	switch fault {
	case "unaligned-load":
		at.Load(10, 7, 0)
	case "unaligned-store":
		at.Store(7, 8, 6)
	case "unaligned-store-idx":
		at.StoreIdx(2, 3, 3, 6)
	case "output":
		at.Out(6)
	case "call-ind":
		at.CallInd(8)
	case "depth":
		at.Call(f)
	case "longjmp":
		at.LongJmp(9, 3)
	case "probe":
		at.Probe(99, 3, 4)
	}
	at.AddI(6, 6, 1)
	at.Load(10, 2, 0)
	if fault == "depth" {
		at.Ret()
	} else {
		at.Halt()
	}
	b.SetMain(main)
	return b.MustFinish()
}

// TestBlockCoreMatchesReferenceOnFaults runs programs that fault — in a
// plain op in the middle of a decoded block, or in an exit op — at
// assorted distances from a buffered counter write, plain, under
// schedulers rotating close to the fault, superscalar, with tiny caches, a
// tracer and Step, and compares the whole outcome on both loops.
func TestBlockCoreMatchesReferenceOnFaults(t *testing.T) {
	limits := func(c *sim.Config) { c.MaxOutput, c.MaxDepth = 6, 5 }
	with := func(fs ...func(*sim.Config)) func(*sim.Config) {
		return func(c *sim.Config) {
			for _, f := range fs {
				f(c)
			}
		}
	}
	variants := []variant{
		{name: "default"},
		{name: "mux-1", quantum: 1},
		{name: "mux-2", quantum: 2},
		{name: "mux-3", quantum: 3},
		{name: "mux-5", quantum: 5},
		{name: "mux-7", quantum: 7},
		{name: "issue-4", cfg: width(4)},
		{name: "l2", cfg: withL2},
		{name: "tiny-caches", cfg: tiny},
		{name: "tracer", tracer: true},
		{name: "step", step: true},
		{name: "step-mux-3", step: true, quantum: 3},
	}
	for _, fault := range faults {
		for gap := 0; gap <= 5; gap++ {
			prog := faultProgram(fault.name, gap)
			for vi, v := range variants {
				v.events = selections[(gap+vi)%len(selections)]
				if v.cfg == nil {
					v.cfg = limits
				} else {
					v.cfg = with(limits, v.cfg)
				}
				want := run(prog, nil, v, 0, true)
				got := run(prog, nil, v, 0, false)
				if !strings.Contains(want.err, fault.err) {
					t.Fatalf("%s gap %d %s: reference run gave error %q, want %q", fault.name, gap, v.name, want.err, fault.err)
				}
				if d := diff(got, want); d != "" {
					t.Fatalf("%s gap %d %s: %s", fault.name, gap, v.name, d)
				}
			}
		}
	}
}
