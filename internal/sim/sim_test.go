package sim

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"pathprof/internal/cache"
	"pathprof/internal/hpm"
	"pathprof/internal/ir"
	"pathprof/internal/mem"
	"pathprof/internal/testgen"
)

func run(t *testing.T, prog *ir.Program) Result {
	t.Helper()
	m := New(prog, DefaultConfig())
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestArithmeticAndOutput(t *testing.T) {
	b := ir.NewBuilder("arith")
	p := b.NewProc("main", 0)
	e := p.NewBlock()
	e.MovI(1, 6)
	e.MovI(2, 7)
	e.Mul(3, 1, 2)
	e.Out(3)
	e.MovI(4, 0)
	e.Div(5, 3, 4) // divide by zero is defined as 0
	e.Out(5)
	e.XorI(6, 3, 0xFF)
	e.Out(6)
	e.Halt()
	b.SetMain(p)
	res := run(t, b.MustFinish())
	want := []int64{42, 0, 42 ^ 0xFF}
	if len(res.Output) != len(want) {
		t.Fatalf("output = %v, want %v", res.Output, want)
	}
	for i := range want {
		if res.Output[i] != want[i] {
			t.Fatalf("output[%d] = %d, want %d", i, res.Output[i], want[i])
		}
	}
}

func TestLoopAndCounting(t *testing.T) {
	b := ir.NewBuilder("loop")
	p := b.NewProc("main", 0)
	e := p.NewBlock()
	h := p.NewBlock()
	body := p.NewBlock()
	x := p.NewBlock()
	e.MovI(2, 0)
	e.MovI(3, 0)
	e.Jmp(h)
	h.CmpLTI(4, 2, 100)
	h.Br(4, body, x)
	body.Add(3, 3, 2)
	body.AddI(2, 2, 1)
	body.Jmp(h)
	x.Out(3)
	x.Halt()
	b.SetMain(p)
	res := run(t, b.MustFinish())
	if res.Output[0] != 4950 {
		t.Fatalf("sum = %d, want 4950", res.Output[0])
	}
	if res.Totals[hpm.EvBranches] != 101 {
		t.Fatalf("branches = %d, want 101", res.Totals[hpm.EvBranches])
	}
	if res.Instrs == 0 || res.Cycles < res.Instrs {
		t.Fatalf("cycles %d < instrs %d", res.Cycles, res.Instrs)
	}
}

func TestCallsAndRegisterIsolation(t *testing.T) {
	b := ir.NewBuilder("calls")
	callee := b.NewProc("clobber", 1)
	ce := callee.NewBlock()
	ce.MovI(9, 12345) // clobbers r9 in its own frame only
	ce.AddI(1, 1, 1)
	ce.Ret()

	main := b.NewProc("main", 0)
	e := main.NewBlock()
	e.MovI(9, 7) // caller's r9 must survive the call
	e.MovI(1, 10)
	e.Call(callee)
	e.Out(1) // 11 (return value)
	e.Out(9) // 7 (preserved)
	e.Halt()
	b.SetMain(main)
	res := run(t, b.MustFinish())
	if res.Output[0] != 11 || res.Output[1] != 7 {
		t.Fatalf("output = %v, want [11 7]", res.Output)
	}
	if res.Totals[hpm.EvCalls] != 1 {
		t.Fatalf("calls = %d", res.Totals[hpm.EvCalls])
	}
}

func TestRecursionFibonacci(t *testing.T) {
	b := ir.NewBuilder("fib")
	fib := b.NewProc("fib", 1)
	fe := fib.NewBlock()
	rec := fib.NewBlock()
	base := fib.NewBlock()
	x := fib.NewBlock()
	fe.CmpLTI(2, 1, 2)
	fe.Br(2, base, rec)
	rec.Mov(10, 1) // save n
	rec.AddI(1, 10, -1)
	rec.Call(fib)
	rec.Mov(11, 1) // fib(n-1)
	rec.AddI(1, 10, -2)
	rec.Call(fib)
	rec.Add(1, 1, 11)
	rec.Jmp(x)
	base.Jmp(x)
	x.Ret()

	main := b.NewProc("main", 0)
	e := main.NewBlock()
	e.MovI(1, 12)
	e.Call(fib)
	e.Out(1)
	e.Halt()
	b.SetMain(main)
	res := run(t, b.MustFinish())
	if res.Output[0] != 144 {
		t.Fatalf("fib(12) = %d, want 144", res.Output[0])
	}
}

func TestIndirectCall(t *testing.T) {
	b := ir.NewBuilder("ind")
	f1 := b.NewProc("f1", 0)
	f1b := f1.NewBlock()
	f1b.MovI(1, 111)
	f1b.Ret()
	f2 := b.NewProc("f2", 0)
	f2b := f2.NewBlock()
	f2b.MovI(1, 222)
	f2b.Ret()

	main := b.NewProc("main", 0)
	e := main.NewBlock()
	e.MovI(7, int64(f2.ID()))
	e.CallInd(7)
	e.Out(1)
	e.MovI(7, int64(f1.ID()))
	e.CallInd(7)
	e.Out(1)
	e.Halt()
	b.SetMain(main)
	res := run(t, b.MustFinish())
	if res.Output[0] != 222 || res.Output[1] != 111 {
		t.Fatalf("output = %v", res.Output)
	}
}

func TestMemoryAndGlobals(t *testing.T) {
	b := ir.NewBuilder("mem")
	p := b.NewProc("main", 0)
	e := p.NewBlock()
	e.MovI(2, int64(mem.GlobalBase))
	e.Load(3, 2, 8) // globals[1]
	e.Out(3)
	e.MovI(4, 5)
	e.StoreIdx(2, 4, 0, 3) // globals[5] = r3
	e.LoadIdx(5, 2, 4, 0)
	e.Out(5)
	e.Halt()
	b.SetMain(p)
	b.Globals([]int64{10, 20, 30}, mem.GlobalBase)
	res := run(t, b.MustFinish())
	if res.Output[0] != 20 || res.Output[1] != 20 {
		t.Fatalf("output = %v", res.Output)
	}
	if res.Totals[hpm.EvLoads] != 2 || res.Totals[hpm.EvStores] != 1 {
		t.Fatalf("loads=%d stores=%d", res.Totals[hpm.EvLoads], res.Totals[hpm.EvStores])
	}
}

func TestFloatingPoint(t *testing.T) {
	b := ir.NewBuilder("fp")
	p := b.NewProc("main", 0)
	e := p.NewBlock()
	e.MovI(2, 9)
	e.CvtIF(3, 2)
	e.FSqrt(4, 3)
	e.CvtFI(5, 4)
	e.Out(5) // 3
	e.MovI(2, 3)
	e.CvtIF(6, 2)
	e.FMul(7, 6, 6)
	e.FAdd(7, 7, 6) // 9 + 3 = 12
	e.CvtFI(8, 7)
	e.Out(8)
	e.Halt()
	b.SetMain(p)
	res := run(t, b.MustFinish())
	if res.Output[0] != 3 || res.Output[1] != 12 {
		t.Fatalf("output = %v", res.Output)
	}
	if res.Totals[hpm.EvFPStalls] == 0 {
		t.Fatal("dependent FP chain produced no FP stalls")
	}
}

func TestSetJmpLongJmp(t *testing.T) {
	b := ir.NewBuilder("sj")
	// thrower longjmps back to main through two frames.
	thrower := b.NewProc("thrower", 1)
	te := thrower.NewBlock()
	te.MovI(2, 1) // handle is always 1 here (first setjmp)
	te.MovI(3, 77)
	te.LongJmp(2, 3)
	// Unreachable structurally, but the CFG needs a path to exit.
	te.Ret()

	midp := b.NewProc("mid", 1)
	me := midp.NewBlock()
	me.Call(thrower)
	me.Out(1) // must NOT execute
	me.Ret()

	main := b.NewProc("main", 0)
	e := main.NewBlock()
	after := main.NewBlock()
	callBlk := main.NewBlock()
	thrown := main.NewBlock()
	stop := main.NewBlock()
	e.SetJmp(4, 5) // r4 = handle, r5 = 0 first time / thrown value after
	e.Jmp(after)
	after.CmpEQI(6, 5, 0)
	after.Br(6, callBlk, thrown)
	callBlk.Call(midp) // mid calls thrower, which longjmps back to e
	callBlk.Out(1)     // must NOT execute
	callBlk.Jmp(stop)
	thrown.Out(5)
	thrown.Jmp(stop)
	stop.Halt()
	b.SetMain(main)
	prog := b.MustFinish()
	m := New(prog, DefaultConfig())
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Output) != 1 || res.Output[0] != 77 {
		t.Fatalf("output = %v, want [77]", res.Output)
	}
}

func TestUnwindCallbackFires(t *testing.T) {
	b := ir.NewBuilder("unwind")
	thrower := b.NewProc("thrower", 1)
	te := thrower.NewBlock()
	te.MovI(2, 1)
	te.MovI(3, 1)
	te.LongJmp(2, 3)
	te.Ret()

	main := b.NewProc("main", 0)
	e := main.NewBlock()
	next := main.NewBlock()
	callBlk := main.NewBlock()
	stop := main.NewBlock()
	e.SetJmp(4, 5)
	e.Jmp(next)
	next.CmpEQI(6, 5, 0)
	next.Br(6, callBlk, stop)
	callBlk.Call(thrower) // longjmps back to e
	callBlk.Jmp(stop)
	stop.Halt()
	b.SetMain(main)
	prog := b.MustFinish()

	m := New(prog, DefaultConfig())
	depths := []int{}
	m.OnUnwind(func(d int) { depths = append(depths, d) })
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if len(depths) != 1 || depths[0] != 1 {
		t.Fatalf("unwind depths = %v, want [1]", depths)
	}
}

func TestCacheBehaviourSequentialVsConflict(t *testing.T) {
	// Sequential sweep over 64KB: every 4th load misses (32B lines, 8B
	// words). Conflict pattern (stride 16KB in a 16KB direct-mapped cache):
	// every load misses.
	build := func(stride int64, iters int64) *ir.Program {
		b := ir.NewBuilder("sweep")
		p := b.NewProc("main", 0)
		e := p.NewBlock()
		h := p.NewBlock()
		body := p.NewBlock()
		x := p.NewBlock()
		e.MovI(2, 0)
		e.MovI(3, int64(mem.GlobalBase))
		e.Jmp(h)
		h.CmpLTI(4, 2, iters)
		h.Br(4, body, x)
		body.MulI(5, 2, stride)
		body.Add(5, 5, 3)
		body.AndI(5, 5, ^int64(7))
		body.Load(6, 5, 0)
		body.AddI(2, 2, 1)
		body.Jmp(h)
		x.Halt()
		b.SetMain(p)
		return b.MustFinish()
	}
	seq := run(t, build(8, 4096))
	conflict := run(t, build(16<<10, 4096))
	seqMiss := seq.Totals[hpm.EvDCacheReadMiss]
	confMiss := conflict.Totals[hpm.EvDCacheReadMiss]
	if seqMiss < 900 || seqMiss > 1200 {
		t.Fatalf("sequential misses = %d, want ~1024 (every 4th of 4096)", seqMiss)
	}
	if confMiss < 4000 {
		t.Fatalf("conflict misses = %d, want ~4096 (every access)", confMiss)
	}
	if conflict.Cycles <= seq.Cycles {
		t.Fatal("conflict pattern should cost more cycles")
	}
}

func TestPICInstructions(t *testing.T) {
	b := ir.NewBuilder("pic")
	p := b.NewProc("main", 0)
	e := p.NewBlock()
	e.MovI(2, 0)
	e.WrPIC(2)
	e.RdPIC(3) // confirm the write
	e.AddI(4, 4, 1)
	e.AddI(4, 4, 1)
	e.AddI(4, 4, 1)
	e.RdPIC(5)
	e.Out(5) // PIC0 counts instructions executed since the zeroing read
	e.Halt()
	b.SetMain(p)
	prog := b.MustFinish()
	m := New(prog, DefaultConfig())
	m.PMU().Select(hpm.EvInsts, hpm.EvNone)
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Between the confirming RdPIC and the second RdPIC: rdpic(r3) retires
	// after read, then 3 AddIs, then the RdPIC itself reads before retiring.
	got := res.Output[0] & 0xffffffff
	if got < 3 || got > 5 {
		t.Fatalf("counted %d instructions, want 3-5", got)
	}
}

func TestStoreBufferStalls(t *testing.T) {
	b := ir.NewBuilder("stores")
	p := b.NewProc("main", 0)
	e := p.NewBlock()
	h := p.NewBlock()
	body := p.NewBlock()
	x := p.NewBlock()
	e.MovI(2, 0)
	e.MovI(3, int64(mem.GlobalBase))
	e.Jmp(h)
	h.CmpLTI(4, 2, 2000)
	h.Br(4, body, x)
	// Back-to-back conflicting stores (stride = cache size) overwhelm a
	// shallow store buffer.
	body.MulI(5, 2, 16<<10)
	body.Add(5, 5, 3)
	body.AndI(5, 5, ^int64(7))
	for i := int64(0); i < 6; i++ {
		body.Store(5, (16<<10)*i, 2)
	}
	body.AddI(2, 2, 1)
	body.Jmp(h)
	x.Halt()
	b.SetMain(p)
	cfg := DefaultConfig()
	cfg.StoreBufDepth = 2
	m := New(b.MustFinish(), cfg)
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Totals[hpm.EvStoreBufStalls] == 0 {
		t.Fatal("conflicting store storm produced no store-buffer stalls")
	}
}

// TestStoreBufferMatchesEarliestSlotScan: on random streams of hitting
// and missing stores with random gaps between them, the round-robin store
// buffer charges exactly the stall cycles of a buffer that always takes
// the earliest-free slot, at every depth.
func TestStoreBufferMatchesEarliestSlotScan(t *testing.T) {
	b := ir.NewBuilder("idle")
	p := b.NewProc("main", 0)
	p.NewBlock().Halt()
	b.SetMain(p)
	prog := b.MustFinish()
	for depth := 1; depth <= 8; depth++ {
		var stalled uint64
		for seed := int64(0); seed < 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			cfg := DefaultConfig()
			cfg.StoreBufDepth = depth
			cfg.StoreDrainHit = 1 + uint64(rng.Intn(3))
			cfg.StoreDrainMiss = cfg.StoreDrainHit + uint64(rng.Intn(16))
			m := New(prog, cfg)
			free := make([]uint64, depth) // the reference buffer
			var cycles, stalls uint64
			for i := 0; i < 3000; i++ {
				var gap uint64
				switch rng.Intn(8) {
				case 0, 1, 2:
					gap = uint64(rng.Intn(4))
				case 3:
					gap = uint64(rng.Intn(40))
				}
				m.addCycles(gap)
				cycles += gap
				hit := rng.Intn(3) != 0
				m.storeBufferPush(hit)

				best := 0
				for j, f := range free {
					if f < free[best] {
						best = j
					}
				}
				if free[best] > cycles {
					stalls += free[best] - cycles
					cycles = free[best]
				}
				drain := cfg.StoreDrainHit
				if !hit {
					drain = cfg.StoreDrainMiss
				}
				free[best] = cycles + drain

				got := m.pmu.Total(hpm.EvStoreBufStalls)
				if m.cycles != cycles || got != stalls {
					t.Fatalf("depth %d seed %d store %d: cycles %d stalls %d, want %d and %d",
						depth, seed, i, m.cycles, got, cycles, stalls)
				}
			}
			stalled += stalls
		}
		if stalled == 0 {
			t.Fatalf("depth %d: no stream stalled", depth)
		}
	}
}

func TestDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	prog := testgen.RandomProgram(rng, "det", testgen.ProgramOptions{
		NumProcs: 6, BlocksPer: 5, Recursion: true, IndirectCalls: true, Memory: true,
	})
	r1 := run(t, prog)
	r2 := run(t, prog)
	if r1.Cycles != r2.Cycles || r1.Instrs != r2.Instrs {
		t.Fatalf("nondeterministic: %d/%d vs %d/%d cycles/instrs", r1.Cycles, r1.Instrs, r2.Cycles, r2.Instrs)
	}
	if r1.Totals != r2.Totals {
		t.Fatal("nondeterministic event totals")
	}
}

// TestRandomProgramsTerminate: generated programs run to completion within
// budget, with matching outputs across runs.
func TestRandomProgramsTerminate(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		prog := testgen.RandomProgram(rng, "r", testgen.ProgramOptions{
			NumProcs:      int(rng.Intn(6) + 2),
			BlocksPer:     4,
			Recursion:     seed%2 == 0,
			IndirectCalls: seed%3 == 0,
			Memory:        true,
		})
		m := New(prog, DefaultConfig())
		_, err := m.Run()
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestStepBudgetEnforced(t *testing.T) {
	b := ir.NewBuilder("spin")
	p := b.NewProc("main", 0)
	e := p.NewBlock()
	loop := p.NewBlock()
	x := p.NewBlock()
	e.MovI(2, 1)
	e.Jmp(loop)
	loop.Nop()
	loop.Br(2, loop, x) // r2 always 1: infinite
	x.Halt()
	b.SetMain(p)
	cfg := DefaultConfig()
	cfg.MaxSteps = 10000
	m := New(b.MustFinish(), cfg)
	if _, err := m.Run(); err == nil {
		t.Fatal("infinite loop did not hit the step budget")
	}
}

func TestProbeInvocation(t *testing.T) {
	b := ir.NewBuilder("probe")
	p := b.NewProc("main", 0)
	e := p.NewBlock()
	e.MovI(2, 21)
	e.Probe(7, 2, 3)
	e.Out(3)
	e.Halt()
	b.SetMain(p)
	m := New(b.MustFinish(), DefaultConfig())
	m.RegisterProbe(7, func(ctx ProbeCtx, arg int64) int64 {
		ctx.ChargeInstrs(5)
		return arg * 2
	})
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Output[0] != 42 {
		t.Fatalf("probe result = %d", res.Output[0])
	}
}

func TestUnknownProbeErrors(t *testing.T) {
	b := ir.NewBuilder("probe2")
	p := b.NewProc("main", 0)
	e := p.NewBlock()
	e.Probe(99, 2, 3)
	e.Halt()
	b.SetMain(p)
	m := New(b.MustFinish(), DefaultConfig())
	if _, err := m.Run(); err == nil {
		t.Fatal("unknown probe did not error")
	}
}

type recordingTracer struct {
	enters, exits int
	edges         int
}

func (r *recordingTracer) Edge(proc int, from ir.BlockID, slot int) { r.edges++ }
func (r *recordingTracer) Enter(proc int)                           { r.enters++ }
func (r *recordingTracer) Exit(proc int)                            { r.exits++ }

func TestTracerSeesCallsAndEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	prog := testgen.RandomProgram(rng, "tr", testgen.ProgramOptions{
		NumProcs: 5, BlocksPer: 4, Recursion: true, Memory: false,
	})
	m := New(prog, DefaultConfig())
	tr := &recordingTracer{}
	m.SetTracer(tr)
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if tr.enters == 0 || tr.edges == 0 {
		t.Fatalf("tracer saw enters=%d edges=%d", tr.enters, tr.edges)
	}
	// Every call plus the initial main entry.
	if got, want := uint64(tr.enters), res.Totals[hpm.EvCalls]+1; got != want {
		t.Fatalf("enters = %d, want calls+1 = %d", got, want)
	}
	if tr.exits != tr.enters {
		// main's Ret-as-halt still traces an exit only if main ends in Ret;
		// RandomProgram mains end in Halt, so exits == calls.
		if uint64(tr.exits) != res.Totals[hpm.EvCalls] {
			t.Fatalf("exits = %d, want %d", tr.exits, res.Totals[hpm.EvCalls])
		}
	}
}

func TestL2CacheReducesMissCost(t *testing.T) {
	// A working set larger than L1 (16KB) but well within L2 (512KB):
	// without L2 every L1 capacity miss pays the full memory penalty; with
	// L2 the repeated sweeps hit L2 after the first pass.
	build := func() *ir.Program {
		b := ir.NewBuilder("l2")
		p := b.NewProc("main", 0)
		e := p.NewBlock()
		h := p.NewBlock()
		body := p.NewBlock()
		x := p.NewBlock()
		e.MovI(2, 0)
		e.MovI(3, int64(mem.GlobalBase))
		e.Jmp(h)
		h.CmpLTI(4, 2, 8*8192) // 8 sweeps over 64KB
		h.Br(4, body, x)
		body.AndI(5, 2, 8191)
		body.LoadIdx(6, 3, 5, 0)
		body.AddI(2, 2, 1)
		body.Jmp(h)
		x.Halt()
		b.SetMain(p)
		return b.MustFinish()
	}
	noL2 := DefaultConfig()
	m1 := New(build(), noL2)
	res1, err := m1.Run()
	if err != nil {
		t.Fatal(err)
	}
	withL2 := DefaultConfig()
	withL2.L2 = cache.DefaultL2
	withL2.L2HitPenalty = 3
	withL2.DMissPenalty = 30 // true memory penalty once an L2 exists
	m2 := New(build(), withL2)
	res2, err := m2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res2.Totals[hpm.EvL2Hit] == 0 {
		t.Fatal("no L2 hits on a 64KB working set")
	}
	if res2.L2.Accesses() != res2.Totals[hpm.EvL2Hit]+res2.Totals[hpm.EvL2Miss] {
		t.Fatal("L2 stats disagree with event totals")
	}
	if res1.L2.Accesses() != 0 {
		t.Fatal("disabled L2 reported accesses")
	}
	if res1.Totals[hpm.EvL2Hit] != 0 || res1.Totals[hpm.EvL2Miss] != 0 {
		t.Fatal("disabled L2 counted events")
	}
	// After the first sweep, L2 hits dominate: with a 30-cycle memory
	// penalty the L2 machine must still be cheaper per miss on average.
	if res2.Cycles >= res1.Cycles*4 {
		t.Fatalf("L2 config unexpectedly slow: %d vs %d cycles", res2.Cycles, res1.Cycles)
	}
}

func TestCallDepthLimit(t *testing.T) {
	b := ir.NewBuilder("deep")
	f := b.NewProc("f", 1)
	fe := f.NewBlock()
	fe.AddI(1, 1, 1)
	fe.Call(f) // unguarded recursion
	fe.Ret()
	main := b.NewProc("main", 0)
	e := main.NewBlock()
	e.MovI(1, 0)
	e.Call(f)
	e.Halt()
	b.SetMain(main)
	cfg := DefaultConfig()
	cfg.MaxDepth = 100
	m := New(b.MustFinish(), cfg)
	_, err := m.Run()
	if err == nil || !strings.Contains(err.Error(), "depth") {
		t.Fatalf("err = %v, want call-depth error", err)
	}
}

func TestInvalidIndirectTarget(t *testing.T) {
	b := ir.NewBuilder("badind")
	p := b.NewProc("main", 0)
	e := p.NewBlock()
	e.MovI(7, 999)
	e.CallInd(7)
	e.Halt()
	b.SetMain(p)
	m := New(b.MustFinish(), DefaultConfig())
	if _, err := m.Run(); err == nil {
		t.Fatal("invalid indirect target accepted")
	}
}

func TestLongjmpInvalidHandle(t *testing.T) {
	b := ir.NewBuilder("badlj")
	p := b.NewProc("main", 0)
	e := p.NewBlock()
	e.MovI(2, 42) // never returned by SetJmp
	e.MovI(3, 1)
	e.LongJmp(2, 3)
	e.Halt()
	b.SetMain(p)
	m := New(b.MustFinish(), DefaultConfig())
	if _, err := m.Run(); err == nil {
		t.Fatal("invalid longjmp handle accepted")
	}
}

func TestLongjmpToDeadFrame(t *testing.T) {
	// setter runs setjmp and returns; main then longjmps to the dead frame.
	b := ir.NewBuilder("deadframe")
	setter := b.NewProc("setter", 0)
	se := setter.NewBlock()
	se.SetJmp(1, 2) // handle returned in r1
	se.Ret()
	main := b.NewProc("main", 0)
	e := main.NewBlock()
	e.Call(setter)
	e.MovI(3, 1)
	e.LongJmp(1, 3) // the setjmp frame is gone
	e.Halt()
	b.SetMain(main)
	m := New(b.MustFinish(), DefaultConfig())
	if _, err := m.Run(); err == nil {
		t.Fatal("longjmp to dead frame accepted")
	}
}

func TestOutputLimit(t *testing.T) {
	b := ir.NewBuilder("chatty")
	p := b.NewProc("main", 0)
	e := p.NewBlock()
	h := p.NewBlock()
	body := p.NewBlock()
	x := p.NewBlock()
	e.MovI(2, 0)
	e.Jmp(h)
	h.CmpLTI(3, 2, 1000)
	h.Br(3, body, x)
	body.Out(2)
	body.AddI(2, 2, 1)
	body.Jmp(h)
	x.Halt()
	b.SetMain(p)
	cfg := DefaultConfig()
	cfg.MaxOutput = 100
	m := New(b.MustFinish(), cfg)
	if _, err := m.Run(); err == nil {
		t.Fatal("output limit not enforced")
	}
}

func TestUnalignedAccessError(t *testing.T) {
	b := ir.NewBuilder("unaligned")
	p := b.NewProc("main", 0)
	e := p.NewBlock()
	e.MovI(2, int64(mem.GlobalBase)+3)
	e.Load(3, 2, 0)
	e.Halt()
	b.SetMain(p)
	m := New(b.MustFinish(), DefaultConfig())
	_, err := m.Run()
	if err == nil || !strings.Contains(err.Error(), "unaligned") {
		t.Fatalf("err = %v, want unaligned-access error", err)
	}
}

// TestPICSurvivesAcrossCall: the PMU is global (not per activation), so a
// callee's counter activity is visible to the caller — the reason the
// paper's instrumentation must save and restore around procedure bodies.
func TestPICSurvivesAcrossCall(t *testing.T) {
	b := ir.NewBuilder("picglobal")
	callee := b.NewProc("work", 0)
	ce := callee.NewBlock()
	ce.AddI(9, 9, 1)
	ce.AddI(9, 9, 1)
	ce.Ret()
	main := b.NewProc("main", 0)
	e := main.NewBlock()
	e.MovI(2, 0)
	e.WrPIC(2)
	e.RdPIC(3)
	e.Call(callee)
	e.RdPIC(4)
	e.Out(4)
	e.Halt()
	b.SetMain(main)
	m := New(b.MustFinish(), DefaultConfig())
	m.PMU().Select(hpm.EvInsts, hpm.EvNone)
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	// The callee's instructions (plus call/ret overhead) are in the count.
	if low := res.Output[0] & 0xffffffff; low < 4 {
		t.Fatalf("counter did not see callee activity: %d", low)
	}
}

func TestIssueWidthSpeedsRetirement(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	prog := testgen.RandomProgram(rng, "iw", testgen.ProgramOptions{
		NumProcs: 5, BlocksPer: 5, Memory: true,
	})
	run := func(width int) Result {
		cfg := DefaultConfig()
		cfg.IssueWidth = width
		m := New(prog, cfg)
		res, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	scalar := run(1)
	quad := run(4)
	if scalar.Instrs != quad.Instrs {
		t.Fatal("issue width changed architectural behaviour")
	}
	if quad.Cycles >= scalar.Cycles {
		t.Fatalf("4-wide (%d cycles) not faster than scalar (%d)", quad.Cycles, scalar.Cycles)
	}
	// Cache and branch behaviour is identical: only timing changes.
	if scalar.Totals[hpm.EvDCacheMiss] != quad.Totals[hpm.EvDCacheMiss] ||
		scalar.Totals[hpm.EvMispredict] != quad.Totals[hpm.EvMispredict] {
		t.Fatal("issue width perturbed microarchitectural event counts")
	}
	// Determinism at width 4.
	if run(4).Cycles != quad.Cycles {
		t.Fatal("superscalar timing nondeterministic")
	}
}
