// Package sim is the execution-driven machine simulator: an in-order
// interpreter for ir programs that drives the L1 data and instruction cache
// models, a branch predictor, a store buffer, an FP latency scoreboard, and
// the hardware performance counter unit. It stands in for the UltraSPARC
// hardware of the paper: every claim about cycles, cache misses and stalls
// is measured against this machine.
//
// The cost model is deliberately simple and deterministic: one cycle per
// retired instruction, plus fixed penalties for I-cache misses, D-cache load
// misses, branch mispredicts, store-buffer overflow and FP result latency.
// The paper's results depend on *where* events concentrate, not on exact
// UltraSPARC timings, so a stable first-order model suffices.
package sim

import (
	"fmt"

	"pathprof/internal/branch"
	"pathprof/internal/cache"
	"pathprof/internal/hpm"
	"pathprof/internal/ir"
	"pathprof/internal/mem"
)

// Config selects machine parameters. The zero value is not valid; use
// DefaultConfig.
type Config struct {
	L1D cache.Config
	L1I cache.Config

	// L2, when SizeBytes > 0, interposes a unified second-level cache on
	// the data path: L1 misses that hit L2 cost L2HitPenalty instead of the
	// full DMissPenalty.
	L2           cache.Config
	L2HitPenalty uint64

	PredictorBits uint
	StoreBufDepth int

	// IssueWidth models a superscalar front end: up to IssueWidth retired
	// instructions share one base cycle (penalties are unaffected). 0 or 1
	// is the scalar in-order default used by all the paper experiments.
	IssueWidth int

	// NumCounters is the PMU bank width K (0 means the UltraSPARC's classic
	// two PICs). Wider banks let instrumentation collect more events per
	// run; a MetricSet wider than the bank needs the multiplexing scheduler
	// (AttachScheduler).
	NumCounters int

	// Penalties, in cycles.
	DMissPenalty      uint64 // load miss stall (memory, or L2 miss)
	IMissPenalty      uint64 // instruction fetch miss stall
	MispredictPenalty uint64
	FPLatency         uint64 // cycles before an FP result is usable
	StoreDrainHit     uint64 // store buffer occupancy per store that hits
	StoreDrainMiss    uint64 // and per store that misses

	// Limits.
	MaxSteps  uint64 // dynamic instruction budget (0 = default)
	MaxDepth  int    // call depth limit (0 = default)
	MaxOutput int    // output buffer limit (0 = default)
}

// Instruction layout constants. Code is laid out sequentially from
// mem.TextBase in block order — InstrBytes per instruction, each procedure
// aligned to a fresh ProcAlign-byte I-cache line — so a program's block
// order determines its instruction addresses, and with them its I-cache
// footprint and branch-predictor indexing. The pgo layout passes rely on
// this model when packing hot chains.
const (
	InstrBytes uint64 = 4
	ProcAlign  uint64 = 32
)

// DefaultConfig returns the UltraSPARC-like default machine.
func DefaultConfig() Config {
	return Config{
		L1D:               cache.DefaultL1D,
		L1I:               cache.DefaultL1I,
		PredictorBits:     12,
		StoreBufDepth:     8,
		DMissPenalty:      6,
		IMissPenalty:      8,
		MispredictPenalty: 4,
		FPLatency:         3,
		StoreDrainHit:     1,
		StoreDrainMiss:    6,
		MaxSteps:          2_000_000_000,
		MaxDepth:          1 << 16,
		MaxOutput:         1 << 22,
	}
}

// ProbeCtx is the restricted machine interface exposed to probe handlers
// (the CCT runtime). Probes charge representative costs so that context
// sensitive profiling has realistic overhead and perturbation.
type ProbeCtx interface {
	// TouchRead simulates a data-cache read of addr, charging any miss
	// penalty and counting events.
	TouchRead(addr uint64)
	// TouchWrite simulates a data-cache write of addr.
	TouchWrite(addr uint64)
	// ChargeInstrs accounts for n inline instrumentation instructions
	// (instructions + cycles), modelling code the probe stands in for.
	ChargeInstrs(n uint64)
	// Mem exposes simulated memory (probes keep runtime state there).
	Mem() *mem.Memory
	// Depth returns the current activation depth (1 = main only).
	Depth() int
	// Cycles returns the current cycle count.
	Cycles() uint64
}

// Probe is a runtime hook invoked by the Probe instruction.
type Probe func(ctx ProbeCtx, arg int64) int64

// UnwindFn is notified when LongJmp discards activations; depth is the
// number of activations remaining after the unwind.
type UnwindFn func(depth int)

// Tracer observes control flow as the machine executes: every CFG edge
// taken (identified by source block and successor slot, so parallel edges
// stay distinct), every procedure entry, and every return. Tests use it to
// build ground-truth path and context profiles to compare instrumentation
// against; baseline profilers use it where the paper's counterparts used
// process-level mechanisms.
type Tracer interface {
	Edge(proc int, from ir.BlockID, slot int)
	Enter(proc int)
	Exit(proc int)
}

// activation is one procedure activation's complete state: where it
// resumes and its registers. While it runs, exec holds its position in
// locals, so blk may lag behind, but blk.proc is always the activation's
// procedure.
type activation struct {
	blk  *dblock
	idx  int // next op within blk
	regs [ir.NumRegs]int64
}

type jmpbuf struct {
	depth int // stack depth (suspended callers) when SetJmp ran
	blk   ir.BlockID
	idx   int // resume index within blk (the instruction after the SetJmp)
	rt    ir.Reg
}

// Machine executes one program.
type Machine struct {
	cfg  Config
	prog *ir.Program

	memory *mem.Memory
	l1d    *cache.Cache
	l1i    *cache.Cache
	l2     *cache.Cache // nil when not configured
	pred   *branch.Predictor
	pmu    *hpm.Unit

	cycles uint64
	steps  uint64

	// frames holds every live activation, outermost first; the last one
	// runs.
	frames []activation

	// blocks[proc][block] is the first decoded block of each IR block (see
	// decode.go).
	blocks [][]*dblock

	// Store buffer slot free times, and the slot the next store tries
	// first (see storeBufferPush).
	storeFree []uint64
	storeNext int

	// Superscalar issue slot accumulator (see Config.IssueWidth and tick).
	issueSlots uint64

	// FP scoreboard: cycle at which each register's value is ready.
	fpReady [ir.NumRegs]uint64

	probes   []Probe // indexed by probe id
	onUnwind []UnwindFn
	tracer   Tracer

	// Counter-multiplexing state (AttachScheduler): the scheduler rotates
	// every muxQuantum retired instructions, so the schedule is a pure
	// function of the instruction stream — deterministic across runs.
	mux        *hpm.Scheduler
	muxQuantum uint64
	muxSpent   uint64

	jmpbufs []jmpbuf

	output []int64
	halted bool
}

// New builds a machine for prog: decodes its blocks and lays out their
// instruction addresses, maps the global segment, and initializes the
// stack pointer.
func New(prog *ir.Program, cfg Config) *Machine {
	if cfg.MaxSteps == 0 {
		cfg.MaxSteps = DefaultConfig().MaxSteps
	}
	if cfg.MaxDepth == 0 {
		cfg.MaxDepth = DefaultConfig().MaxDepth
	}
	if cfg.MaxOutput == 0 {
		cfg.MaxOutput = DefaultConfig().MaxOutput
	}
	if cfg.NumCounters == 0 {
		cfg.NumCounters = 2
	}
	m := &Machine{
		cfg:    cfg,
		prog:   prog,
		memory: mem.New(),
		l1d:    cache.New(cfg.L1D),
		l1i:    cache.New(cfg.L1I),
		pred:   branch.NewPredictor(cfg.PredictorBits),
		pmu:    hpm.NewK(cfg.NumCounters),
	}
	if cfg.L2.SizeBytes > 0 {
		m.l2 = cache.New(cfg.L2)
	}
	m.storeFree = make([]uint64, cfg.StoreBufDepth)
	m.blocks = decode(prog, uint64(cfg.L1I.LineBytes))

	base := prog.GlobalBase
	if base == 0 {
		base = mem.GlobalBase
	}
	m.memory.CopyRegion(base, prog.Globals)

	m.frames = make([]activation, 1, 16)
	m.frames[0].blk = m.blocks[prog.Main][0]
	m.frames[0].regs[ir.RegSP] = int64(mem.StackTop)
	return m
}

// PMU returns the machine's performance monitor (to program event
// selections before running).
func (m *Machine) PMU() *hpm.Unit { return m.pmu }

// AttachScheduler multiplexes set over the machine's counter bank for the
// coming run: the bank rotates through the set's groups every quantum
// retired instructions (0 means DefaultMuxQuantum). Because rotation is
// driven by the deterministic instruction stream, the schedule — and the
// scaled estimates — are identical on every run of the same program. Run
// closes the final interval automatically; query the returned scheduler
// for Estimates afterwards. Attach before running, not mid-run.
func (m *Machine) AttachScheduler(set hpm.MetricSet, quantum uint64) *hpm.Scheduler {
	if quantum == 0 {
		quantum = DefaultMuxQuantum
	}
	m.mux = hpm.NewScheduler(m.pmu, set)
	m.muxQuantum = quantum
	m.muxSpent = 0
	return m.mux
}

// DefaultMuxQuantum is the rotation interval, in retired instructions, used
// when AttachScheduler is given a zero quantum. Small enough that even the
// test-scale workloads see every group many times, large enough that
// rotation overhead would be negligible on real hardware.
const DefaultMuxQuantum = 10_000

// EventCatalog returns the countable hardware events the machine model
// exposes, in menu order (EvNone excluded) — the universe a MetricSet can
// draw from.
func EventCatalog() []hpm.Event {
	evs := make([]hpm.Event, 0, hpm.NumEvents-1)
	for e := hpm.Event(1); e < hpm.NumEvents; e++ {
		evs = append(evs, e)
	}
	return evs
}

// maxProbeID bounds probe ids: handlers sit in a table indexed by id.
const maxProbeID = 255

// RegisterProbe installs fn as the handler for Probe instructions carrying
// id, which must lie in [0, 255] (the instrument package uses 1–9).
func (m *Machine) RegisterProbe(id int64, fn Probe) {
	if id < 0 || id > maxProbeID {
		panic(fmt.Sprintf("sim: probe id %d out of range [0, %d]", id, maxProbeID))
	}
	if n := int(id) + 1; n > len(m.probes) {
		m.probes = append(m.probes, make([]Probe, n-len(m.probes))...)
	}
	m.probes[id] = fn
}

// OnUnwind registers a longjmp-unwind listener.
func (m *Machine) OnUnwind(fn UnwindFn) { m.onUnwind = append(m.onUnwind, fn) }

// SetTracer installs a control-flow tracer (nil disables tracing).
func (m *Machine) SetTracer(t Tracer) { m.tracer = t }

// --- ProbeCtx ---

// Mem returns the simulated memory.
func (m *Machine) Mem() *mem.Memory { return m.memory }

// Depth returns the current activation depth (1 = main only).
func (m *Machine) Depth() int { return len(m.frames) }

// Cycles returns the current cycle count.
func (m *Machine) Cycles() uint64 { return m.cycles }

// CallStack returns the procedure IDs of all live activations, outermost
// first (ending with the currently running procedure). The sampling
// profiler baseline walks it the way Goldberg and Hall walked the process
// stack.
func (m *Machine) CallStack() []int {
	out := make([]int, len(m.frames))
	for i := range m.frames {
		out[i] = m.frames[i].blk.proc.ID
	}
	return out
}

// TouchRead simulates a D-cache read access.
func (m *Machine) TouchRead(addr uint64) {
	m.pmu.Count(hpm.EvLoads, 1)
	m.pmu.Count(hpm.EvDCacheRead, 1)
	if !m.l1d.TryRead(addr) {
		m.readSlow(addr)
	}
}

// readSlow completes a D-cache read that missed the inline hit path.
func (m *Machine) readSlow(addr uint64) {
	if !m.l1d.Read(addr) {
		m.pmu.Count(hpm.EvDCacheReadMiss, 1)
		m.addCycles(m.missPenalty(addr, false))
	}
}

// fetchSlow completes an instruction fetch that missed the L1I's inline
// hit path.
func (m *Machine) fetchSlow(addr uint64) {
	if !m.l1i.Read(addr) {
		m.pmu.Count(hpm.EvICacheMiss, 1)
		m.addCycles(m.cfg.IMissPenalty)
	}
}

// missPenalty charges an L1 miss through the L2, when configured.
func (m *Machine) missPenalty(addr uint64, write bool) uint64 {
	if m.l2 == nil {
		return m.cfg.DMissPenalty
	}
	if m.l2.Access(addr, write) {
		m.pmu.Count(hpm.EvL2Hit, 1)
		return m.cfg.L2HitPenalty
	}
	m.pmu.Count(hpm.EvL2Miss, 1)
	return m.cfg.DMissPenalty
}

// TouchWrite simulates a D-cache write access (through the store buffer).
func (m *Machine) TouchWrite(addr uint64) {
	m.pmu.Count(hpm.EvStores, 1)
	m.pmu.Count(hpm.EvDCacheWrite, 1)
	m.write(addr)
}

// write is a store's D-cache access and store-buffer push, without the
// store and D-cache write counts, which the store's block charges.
func (m *Machine) write(addr uint64) {
	hit := m.l1d.TryWrite(addr) || m.l1d.Write(addr)
	if !hit {
		m.pmu.Count(hpm.EvDCacheWriteMiss, 1)
		if m.l2 != nil {
			// Write misses allocate through the L2 (latency is absorbed by
			// the store buffer's drain time, as for L1 write misses).
			m.missPenalty(addr, true)
		}
	}
	m.storeBufferPush(hit)
}

// ChargeInstrs accounts for n instrumentation instructions.
func (m *Machine) ChargeInstrs(n uint64) {
	m.pmu.Count(hpm.EvInsts, n)
	m.addCycles(n)
	m.pmu.RetireN(n)
}

// --- core accounting ---

func (m *Machine) addCycles(n uint64) {
	m.cycles += n
	m.pmu.Count(hpm.EvCycles, n)
}

// tick charges the base cycles of n retired instructions: one each, or
// one per IssueWidth of them on a superscalar front end. n instructions
// from s issue slots already taken end ⌊(s+n)/w⌋ issue groups and leave
// (s+n) mod w slots taken, as charging them one at a time does.
func (m *Machine) tick(n uint64) {
	if m.cfg.IssueWidth <= 1 {
		m.addCycles(n)
		return
	}
	w := uint64(m.cfg.IssueWidth)
	s := m.issueSlots + n
	m.addCycles(s / w)
	m.issueSlots = s % w
}

// storeBufferPush queues one store: it takes the earliest-free slot,
// stalling until that slot frees. A slot already free now can stand in for
// the earliest one, because it stays free for every later store, so the
// stalls do not depend on which free slot a store takes. Stores therefore
// try the slots round-robin and scan for the earliest only when the next
// slot is still busy.
func (m *Machine) storeBufferPush(hit bool) {
	now := m.cycles
	best := m.storeNext
	if m.storeFree[best] > now {
		for i, f := range m.storeFree {
			if f < m.storeFree[best] {
				best = i
			}
		}
		if m.storeFree[best] > now {
			stall := m.storeFree[best] - now
			m.addCycles(stall)
			m.pmu.Count(hpm.EvStoreBufStalls, stall)
			now = m.cycles
		}
	}
	drain := m.cfg.StoreDrainHit
	if !hit {
		drain = m.cfg.StoreDrainMiss
	}
	m.storeFree[best] = now + drain
	if m.storeNext = best + 1; m.storeNext == len(m.storeFree) {
		m.storeNext = 0
	}
}

func (m *Machine) waitFP(r ir.Reg) {
	if ready := m.fpReady[r]; ready > m.cycles {
		stall := ready - m.cycles
		m.addCycles(stall)
		m.pmu.Count(hpm.EvFPStalls, stall)
	}
}

// Result summarizes a completed run.
type Result struct {
	Cycles   uint64
	Instrs   uint64
	Output   []int64
	Totals   [hpm.NumEvents]uint64
	L1D      cache.Stats
	L1I      cache.Stats
	L2       cache.Stats // zero when no L2 is configured
	MemBytes uint64
}

// Run executes the program to completion (Halt) and returns the result. It
// returns an error for runtime faults: step budget exhausted, call depth
// exceeded, invalid longjmp, or an unknown probe.
func (m *Machine) Run() (Result, error) {
	if m.tracer != nil {
		m.tracer.Enter(m.top().blk.proc.ID)
	}
	if !m.halted {
		if err := m.exec(m.cfg.MaxSteps); err != nil {
			return Result{}, fmt.Errorf("sim: %s: %w", m.prog.Name, err)
		}
	}
	if !m.halted {
		return Result{}, m.budgetError()
	}
	return m.result(), nil
}

// budgetError is the error of a run that spent its step budget.
func (m *Machine) budgetError() error {
	return fmt.Errorf("sim: %s: step budget %d exhausted in %s", m.prog.Name, m.cfg.MaxSteps, m.top().blk.proc.Name)
}

// result closes the scheduler's final interval and summarizes a completed
// run.
func (m *Machine) result() Result {
	if m.mux != nil && m.muxSpent > 0 {
		m.mux.Finish(m.muxSpent)
		m.muxSpent = 0
	}
	res := Result{
		Cycles:   m.cycles,
		Instrs:   m.pmu.Total(hpm.EvInsts),
		Output:   m.output,
		Totals:   m.pmu.Totals(),
		L1D:      m.l1d.Stats(),
		L1I:      m.l1i.Stats(),
		MemBytes: m.memory.FootprintBytes(),
	}
	if m.l2 != nil {
		res.L2 = m.l2.Stats()
	}
	return res
}

// Step executes exactly one instruction. It is the single-step form of Run
// for debuggers and micro-benchmarks; unlike Run it does not enforce the
// step budget. Step does not check Halted: on a halted machine it executes
// the final Halt or Ret again, so callers check Halted first.
func (m *Machine) Step() error { return m.exec(m.steps + 1) }

// Halted reports whether the machine has executed Halt (or returned from
// main).
func (m *Machine) Halted() bool { return m.halted }

// Steps returns the number of instructions executed so far.
func (m *Machine) Steps() uint64 { return m.steps }

// top returns the running activation.
func (m *Machine) top() *activation { return &m.frames[len(m.frames)-1] }

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
