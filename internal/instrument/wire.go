package instrument

import (
	"fmt"

	"pathprof/internal/cct"
	"pathprof/internal/flat"
	"pathprof/internal/hpm"
	"pathprof/internal/mem"
	"pathprof/internal/profile"
	"pathprof/internal/sim"
)

// Runtime is the per-machine profiling runtime: the CCT under construction,
// the hash-table path counters for path-rich procedures, and the saved
// counter readings that context+HW profiling keeps per activation. Create
// one with Plan.Wire for every machine that runs the instrumented program.
type Runtime struct {
	Plan    *Plan
	Machine *sim.Machine
	Tree    *cct.Tree

	// Hash path tables (per procedure; nil when the procedure uses a dense
	// array in simulated memory). Counts are non-negative and far below
	// 2^63, so the int64-valued flat tables hold them exactly. hashAcc has
	// one table per metric slot: hashAcc[k][proc].
	hashFreq []*flat.Table
	hashAcc  [][]*flat.Table
	// Simulated bucket arrays backing the hash tables, so probes perturb
	// the cache like real hash updates would: [proc] -> base address.
	hashBase []uint64

	// Context+HW state: the counter readings at entry to each live
	// activation, one packed pair value per instrumented pair, flattened
	// with stride numPairs (parallel to the CCT's context stack).
	entryPIC []uint64
	numPairs int

	// k-mode composition state, one slot per live activation depth (the
	// simulator's registers are activation-local, so the per-segment path
	// register needs no help; only the composed accumulator does). Slots
	// are reset at every exit flush and truncated on unwind, so reuse at
	// the same depth always starts from the zero state.
	kst []kAct
}

// kAct is one activation's k-path composition state: the accumulated
// composed id, the current iteration layer, and (HW mode) the pending
// per-counter event totals of the segments composed so far.
type kAct struct {
	sum   int64
	layer int
	pend  []uint64
}

const hashBuckets = 64

// Wire registers probe handlers on m and returns the runtime. It must be
// called once per machine before Run.
//
// Wire does not mutate the plan: per-runtime simulated allocations (the
// hash bucket arrays) come from a clone of the plan's allocator, so every
// wiring of the same plan produces identical simulated addresses and a
// Plan may be shared — including concurrently — across machines.
func (plan *Plan) Wire(m *sim.Machine) *Runtime {
	if k := m.PMU().NumCounters(); k < plan.numCounters() {
		panic(fmt.Sprintf("instrument: plan needs %d counters, machine has %d",
			plan.numCounters(), k))
	}
	rt := &Runtime{Plan: plan, Machine: m, numPairs: plan.numPairs()}
	n := len(plan.Prog.Procs)
	nc := plan.numCounters()
	alloc := plan.alloc.Clone()
	rt.hashFreq = make([]*flat.Table, n)
	rt.hashAcc = make([][]*flat.Table, nc)
	for k := range rt.hashAcc {
		rt.hashAcc[k] = make([]*flat.Table, n)
	}
	rt.hashBase = make([]uint64, n)
	kMode := false
	for _, pp := range plan.Procs {
		if nm := pp.Numbering; nm != nil && nm.K > 1 {
			kMode = true
		}
		if pp.UseHash {
			// Pre-size the Go-side tables from the path space so hashed
			// counting reaches a rehash-free steady state quickly; the
			// simulated bucket array stays at the modeled hashBuckets
			// (cache behaviour of the paper's small fixed hash).
			hint := hashBuckets
			if nm := pp.Numbering; nm != nil {
				hint = HashSizeHint(nm.NumPathsK)
			}
			rt.hashFreq[pp.ProcID] = flat.New(hint)
			for k := range rt.hashAcc {
				rt.hashAcc[k][pp.ProcID] = flat.New(hint)
			}
			rt.hashBase[pp.ProcID] = alloc.Alloc(hashBuckets*8*uint64(1+nc), 64)
		}
	}

	if plan.Mode.UsesCCT() {
		rt.Tree = cct.New(plan.CCTInfo, cct.Options{
			DistinguishCallSites: plan.Opts.DistinguishCallSites,
			NumMetrics:           plan.Opts.CCTMetrics,
			PathCounts:           plan.Mode == ModeContextFlow,
		}, mem.CCTBase)
		m.OnUnwind(func(depth int) {
			rt.Tree.UnwindTo(depth)
			if len(rt.entryPIC) > depth*rt.numPairs {
				rt.entryPIC = rt.entryPIC[:depth*rt.numPairs]
			}
		})
	}

	m.RegisterProbe(ProbeHashFreq, rt.onHashFreq)
	m.RegisterProbe(ProbeHashHW, rt.onHashHW)
	m.RegisterProbe(ProbeCCTCall, rt.onCCTCall)
	m.RegisterProbe(ProbeCCTEnter, rt.onCCTEnter)
	m.RegisterProbe(ProbeCCTExit, rt.onCCTExit)
	m.RegisterProbe(ProbeCCTTick, rt.onCCTTick)
	m.RegisterProbe(ProbeCCTPath, rt.onCCTPath)
	if kMode {
		m.RegisterProbe(ProbeKSeg, rt.onKSeg)
		m.RegisterProbe(ProbeKEnd, rt.onKEnd)
		m.OnUnwind(func(depth int) {
			// Activations discarded by a non-local exit take their partial
			// k-paths with them, as the classic scheme drops the register.
			if len(rt.kst) > depth {
				rt.kst = rt.kst[:depth]
			}
		})
	}
	return rt
}

// HashSizeHint derives the flat-table pre-size from a procedure's path
// space: enough headroom that the executed-path working set reaches
// steady state without rehash storms, capped so enormous k-path spaces
// don't balloon the runtime (distinct executed paths are vastly fewer
// than potential ones). Exported so benchmarks gating the 0-alloc steady
// state size their tables exactly as Wire does.
func HashSizeHint(numPaths int64) int {
	const maxHint = 1 << 15
	if numPaths > maxHint {
		return maxHint
	}
	if numPaths < hashBuckets {
		return hashBuckets
	}
	return int(numPaths)
}

// onHashFreq handles a hash-table path frequency update: in real
// instrumentation a short hash probe plus a counter increment.
func (rt *Runtime) onHashFreq(ctx sim.ProbeCtx, arg int64) int64 {
	proc, idx := UnpackProcPath(arg)
	rt.hashFreq[proc].Add(idx, 1)
	ctx.ChargeInstrs(6)
	a := rt.hashBase[proc] + (uint64(idx)%hashBuckets)*8
	ctx.TouchRead(a)
	ctx.TouchWrite(a)
	return arg
}

// onHashHW handles a hash-table path metric update: read each counter
// pair, accumulate every slot and the frequency. The instruction charge is
// the classic 14 for the two-counter schema, plus three per extra slot
// (load, add, store of its accumulator).
func (rt *Runtime) onHashHW(ctx sim.ProbeCtx, arg int64) int64 {
	proc, idx := UnpackProcPath(arg)
	pmu := rt.Machine.PMU()
	nc := rt.Plan.numCounters()
	for pr := 0; pr < rt.numPairs; pr++ {
		v := pmu.ReadPair(pr)
		rt.hashAcc[2*pr][proc].Add(idx, int64(uint32(v)))
		if 2*pr+1 < nc {
			rt.hashAcc[2*pr+1][proc].Add(idx, int64(v>>32))
		}
	}
	rt.hashFreq[proc].Add(idx, 1)
	ctx.ChargeInstrs(uint64(8 + 3*nc))
	base := rt.hashBase[proc]
	b := (uint64(idx) % hashBuckets) * 8
	for i := uint64(0); i < uint64(1+nc); i++ {
		ctx.TouchRead(base + i*hashBuckets*8 + b)
		ctx.TouchWrite(base + i*hashBuckets*8 + b)
	}
	return arg
}

func (rt *Runtime) onCCTCall(ctx sim.ProbeCtx, arg int64) int64 {
	site, prefix := UnpackSitePath(arg)
	if prefix == noPrefix {
		prefix = cct.NoPrefix
	}
	rt.Tree.AtCall(site, prefix, ctx)
	return arg
}

func (rt *Runtime) onCCTEnter(ctx sim.ProbeCtx, arg int64) int64 {
	rt.Tree.Enter(int(arg), ctx)
	rt.Tree.AddMetric(0, 1, ctx) // invocation count
	if rt.Plan.Mode == ModeContextHW {
		// Record each counter pair at entry (one RDPIC per pair).
		ctx.ChargeInstrs(uint64(rt.numPairs))
		pmu := rt.Machine.PMU()
		for pr := 0; pr < rt.numPairs; pr++ {
			rt.entryPIC = append(rt.entryPIC, pmu.ReadPair(pr))
		}
	}
	return arg
}

func (rt *Runtime) onCCTExit(ctx sim.ProbeCtx, arg int64) int64 {
	if rt.Plan.Mode == ModeContextHW && len(rt.entryPIC) > 0 {
		rt.accumulateDelta(ctx)
		rt.entryPIC = rt.entryPIC[:len(rt.entryPIC)-rt.numPairs]
	}
	rt.Tree.Exit(ctx)
	return arg
}

// onCCTTick reads the counters along a loop backedge, attributing the
// events since the last reading to the current record and re-basing — the
// Section 4.3 refinement that bounds counter-wrap exposure.
func (rt *Runtime) onCCTTick(ctx sim.ProbeCtx, arg int64) int64 {
	if rt.Plan.Mode == ModeContextHW && len(rt.entryPIC) > 0 {
		rt.accumulateDelta(ctx)
		pmu := rt.Machine.PMU()
		base := len(rt.entryPIC) - rt.numPairs
		for pr := 0; pr < rt.numPairs; pr++ {
			rt.entryPIC[base+pr] = pmu.ReadPair(pr)
		}
	}
	return arg
}

// accumulateDelta adds (now - entry) for every instrumented 32-bit counter
// into the current record's metric slots 1..N (slot k+1 holds counter k's
// delta; slot 0 is the invocation count).
func (rt *Runtime) accumulateDelta(ctx sim.ProbeCtx) {
	// One RDPIC plus two subtract/bookkeeping instructions per pair, plus
	// two fixed bookkeeping instructions — 4 for the classic pair.
	ctx.ChargeInstrs(uint64(2*rt.numPairs + 2))
	pmu := rt.Machine.PMU()
	nc := rt.Plan.numCounters()
	base := len(rt.entryPIC) - rt.numPairs
	for pr := 0; pr < rt.numPairs; pr++ {
		now := pmu.ReadPair(pr)
		entry := rt.entryPIC[base+pr]
		rt.Tree.AddMetric(1+2*pr, int64(hpm.Delta32(uint32(entry), uint32(now))), ctx)
		if 2*pr+1 < nc {
			rt.Tree.AddMetric(2+2*pr, int64(hpm.Delta32(uint32(entry>>32), uint32(now>>32))), ctx)
		}
	}
}

func (rt *Runtime) onCCTPath(ctx sim.ProbeCtx, arg int64) int64 {
	rt.Tree.CountPath(arg, ctx)
	return arg
}

// kActAt returns the composition slot of the activation at depth,
// growing the stack as calls deepen. Exited activations leave their slot
// zeroed, so reuse needs no initialization.
func (rt *Runtime) kActAt(depth int) *kAct {
	for len(rt.kst) < depth {
		rt.kst = append(rt.kst, kAct{})
	}
	return &rt.kst[depth-1]
}

// kReadCounters folds the counters' current values (the events of the
// segment just completed; the emitted code zeroes the counters at entry
// and after every backedge probe) into the activation's pending totals.
func (rt *Runtime) kReadCounters(ctx sim.ProbeCtx, st *kAct) {
	nc := rt.Plan.numCounters()
	if st.pend == nil {
		st.pend = make([]uint64, nc)
	}
	pmu := rt.Machine.PMU()
	for pr := 0; pr < rt.numPairs; pr++ {
		v := pmu.ReadPair(pr)
		st.pend[2*pr] += uint64(uint32(v))
		if 2*pr+1 < nc {
			st.pend[2*pr+1] += v >> 32
		}
	}
	ctx.ChargeInstrs(uint64(rt.numPairs))
}

// onKSeg handles a k-mode backedge boundary: decode the completed
// standard segment, add its layer value to the composed id, and either
// advance a layer or — when the k-path is full — count it and start the
// next one at the backedge target's k-start offset.
func (rt *Runtime) onKSeg(ctx sim.ProbeCtx, arg int64) int64 {
	proc, seg := UnpackProcPath(arg)
	pp := rt.Plan.Procs[proc]
	nm := pp.Numbering
	st := rt.kActAt(ctx.Depth())
	if rt.Plan.Mode == ModePathHW {
		rt.kReadCounters(ctx, st)
	}
	val, be, err := nm.SegmentValK(st.layer, seg)
	if err != nil || be < 0 {
		panic(fmt.Sprintf("instrument: k-segment decode at backedge failed: proc %d seg %d layer %d: err=%v be=%d",
			proc, seg, st.layer, err, be))
	}
	st.sum += val
	if st.layer >= nm.K-1 {
		rt.kCount(ctx, pp, st)
		st.sum = nm.KStart(be)
		st.layer = 0
	} else {
		st.layer++
		ctx.ChargeInstrs(4) // compose bookkeeping: add, layer bump, spill
	}
	return arg
}

// onKEnd handles the k-mode exit flush: the final segment ran to EXIT, so
// the composed k-path completes here regardless of layer. The slot is
// left zeroed for the next activation at this depth.
func (rt *Runtime) onKEnd(ctx sim.ProbeCtx, arg int64) int64 {
	proc, seg := UnpackProcPath(arg)
	pp := rt.Plan.Procs[proc]
	nm := pp.Numbering
	st := rt.kActAt(ctx.Depth())
	if rt.Plan.Mode == ModePathHW {
		rt.kReadCounters(ctx, st)
	}
	val, be, err := nm.SegmentValK(st.layer, seg)
	if err != nil || be >= 0 {
		panic(fmt.Sprintf("instrument: k-segment decode at exit failed: proc %d seg %d layer %d: err=%v be=%d",
			proc, seg, st.layer, err, be))
	}
	st.sum += val
	rt.kCount(ctx, pp, st)
	st.sum, st.layer = 0, 0
	return arg
}

// kCount counts one completed k-path id into the mode's counter store —
// the same targets the classic boundary code updates inline, addressed by
// the composed id: the CCT record (combined mode), the hashed tables, or
// the dense simulated-memory tables. HW mode credits the pending event
// totals accumulated across the path's segments and clears them.
func (rt *Runtime) kCount(ctx sim.ProbeCtx, pp *ProcPlan, st *kAct) {
	id := st.sum
	plan := rt.Plan
	nc := plan.numCounters()
	switch {
	case plan.Mode == ModeContextFlow:
		rt.Tree.CountPath(id, ctx)

	case pp.UseHash:
		proc := pp.ProcID
		rt.hashFreq[proc].Add(id, 1)
		slots := uint64(1)
		if plan.Mode == ModePathHW {
			for k := 0; k < nc; k++ {
				rt.hashAcc[k][proc].Add(id, int64(st.pend[k]))
			}
			slots = uint64(1 + nc)
			ctx.ChargeInstrs(uint64(8 + 3*nc))
		} else {
			ctx.ChargeInstrs(6)
		}
		base := rt.hashBase[proc]
		b := (uint64(id) % hashBuckets) * 8
		for i := uint64(0); i < slots; i++ {
			ctx.TouchRead(base + i*hashBuckets*8 + b)
			ctx.TouchWrite(base + i*hashBuckets*8 + b)
		}

	default:
		memory := rt.Machine.Mem()
		a := pp.FreqBase + uint64(id)*8
		memory.Store(a, memory.Load(a)+1)
		ctx.TouchRead(a)
		ctx.TouchWrite(a)
		charge := 5
		if plan.Mode == ModePathHW {
			for k := 0; k < nc; k++ {
				aa := pp.AccBases[k] + uint64(id)*8
				memory.Store(aa, memory.Load(aa)+int64(st.pend[k]))
				ctx.TouchRead(aa)
				ctx.TouchWrite(aa)
			}
			charge += 3 * nc
		}
		ctx.ChargeInstrs(uint64(charge))
	}
	if plan.Mode == ModePathHW {
		for k := range st.pend {
			st.pend[k] = 0
		}
	}
}

// ExtractProfile reads the completed run's path counters — dense tables
// from simulated memory, hash tables from the runtime — into a Profile.
// For ModeContextFlow the per-record tables are summed per procedure (the
// flow-sensitive projection of the combined profile). Only the modes that
// accumulate counters, ModePathHW and ModeBlockHW, carry metric slots, and
// their schema records the machine's event selection for every slot;
// frequency-only profiles carry none and name no events.
func (rt *Runtime) ExtractProfile() *profile.Profile {
	plan := rt.Plan
	p := &profile.Profile{
		Program: plan.Prog.Name,
		Mode:    plan.Mode.String(),
	}
	nc := 0
	if plan.Mode == ModePathHW || plan.Mode == ModeBlockHW {
		nc = plan.numCounters()
		sel := rt.Machine.PMU().SelectedAll()
		p.Events = make([]string, nc)
		for k := 0; k < nc; k++ {
			ev := hpm.EvNone
			if k < len(sel) {
				ev = sel[k]
			}
			p.Events[k] = ev.String()
		}
	}

	memory := rt.Machine.Mem()
	if plan.Mode == ModeBlockHW {
		for _, pp := range plan.Procs {
			out := &profile.ProcPaths{ProcID: pp.ProcID, Name: pp.Name, NumPaths: pp.BlockCount}
			for bid := int64(0); bid < pp.BlockCount; bid++ {
				freq := uint64(memory.Load(pp.FreqBase + uint64(bid)*8))
				if freq == 0 {
					continue
				}
				e := profile.PathEntry{Sum: bid, Freq: freq, Metrics: out.NewMetrics(nc)}
				for k := 0; k < nc; k++ {
					e.Metrics[k] = uint64(memory.Load(pp.AccBases[k] + uint64(bid)*8))
				}
				out.Entries = append(out.Entries, e)
			}
			p.Procs = append(p.Procs, out)
		}
		return p
	}
	if plan.Opts.K > 1 {
		p.K = plan.Opts.K
	}
	for _, pp := range plan.Procs {
		if pp.Numbering == nil {
			continue
		}
		out := &profile.ProcPaths{ProcID: pp.ProcID, Name: pp.Name, NumPaths: pp.Numbering.NumPathsK}
		if p.K > 1 {
			out.K = pp.Numbering.K // effective (possibly clamped) degree
		}
		switch {
		case plan.Mode == ModeContextFlow:
			sums := flat.New(0)
			rt.Tree.Walk(func(n *cct.Node) {
				if n.Proc != pp.ProcID {
					return
				}
				n.RangePathCounts(func(s, c int64) bool {
					sums.Add(s, c)
					return true
				})
			})
			out.Entries = make([]profile.PathEntry, 0, sums.Len())
			sums.Range(func(s, c int64) bool {
				out.Entries = append(out.Entries, profile.PathEntry{Sum: s, Freq: uint64(c)})
				return true
			})
		case pp.UseHash:
			freq := rt.hashFreq[pp.ProcID]
			out.Entries = make([]profile.PathEntry, 0, freq.Len())
			freq.Range(func(s, c int64) bool {
				e := profile.PathEntry{Sum: s, Freq: uint64(c)}
				if nc > 0 {
					e.Metrics = out.NewMetrics(nc)
				}
				for k := 0; k < nc; k++ {
					m, _ := rt.hashAcc[k][pp.ProcID].Get(s)
					e.Metrics[k] = uint64(m)
				}
				out.Entries = append(out.Entries, e)
				return true
			})
		default:
			for s := int64(0); s < pp.Numbering.NumPathsK; s++ {
				freq := uint64(memory.Load(pp.FreqBase + uint64(s)*8))
				if freq == 0 {
					continue
				}
				e := profile.PathEntry{Sum: s, Freq: freq}
				if nc > 0 {
					e.Metrics = out.NewMetrics(nc)
				}
				for k := 0; k < nc; k++ {
					e.Metrics[k] = uint64(memory.Load(pp.AccBases[k] + uint64(s)*8))
				}
				out.Entries = append(out.Entries, e)
			}
		}
		out.Sort()
		p.Procs = append(p.Procs, out)
	}
	return p
}
