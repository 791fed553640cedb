package sim

import (
	"fmt"
	"math"

	"pathprof/internal/cache"
	"pathprof/internal/hpm"
	"pathprof/internal/ir"
)

// This file keeps the simulator's per-instruction loop as it stood before
// the block core, as the reference model the differential tests hold exec
// to. It executes straight from the IR: every instruction is fetched
// through the L1I, charged as it retires (instruction, base cycle, loads,
// stores, branches and calls counted one at a time) and retired on its
// own, and a scheduler rotation is checked after each one. It shares the
// machine's state — caches, memory, PMU, frames — and the helpers that
// model one access (TouchRead, TouchWrite, storeBufferPush, waitFP), which
// have reference tests of their own, and uses the decoded blocks only to
// record where an activation resumes.

// RefRun is Run on the reference loop.
func (m *Machine) RefRun() (Result, error) {
	if m.tracer != nil {
		m.tracer.Enter(m.top().blk.proc.ID)
	}
	for !m.halted {
		if m.steps >= m.cfg.MaxSteps {
			return Result{}, m.budgetError()
		}
		if err := m.refStep(); err != nil {
			return Result{}, fmt.Errorf("sim: %s: %w", m.prog.Name, err)
		}
	}
	return m.result(), nil
}

// RefStep is Step on the reference loop.
func (m *Machine) RefStep() error { return m.refStep() }

// Probes returns the registered probe handlers, indexed by probe id, so a
// test can wrap them.
func (m *Machine) Probes() []Probe { return m.probes }

// CacheStats returns the L1I, L1D and L2 statistics so far, which Result
// carries only for a run that completes.
func (m *Machine) CacheStats() (l1i, l1d, l2 cache.Stats) {
	if m.l2 != nil {
		l2 = m.l2.Stats()
	}
	return m.l1i.Stats(), m.l1d.Stats(), l2
}

func (m *Machine) refStep() error {
	f := m.top()
	proc, blkID, idx := f.blk.proc, f.blk.id, f.blk.off+f.idx
	blk := proc.Blocks[blkID]
	in := &blk.Instrs[idx]
	iaddr := f.blk.base + uint64(f.idx)*InstrBytes

	// Fetch.
	if !m.l1i.Read(iaddr) {
		m.pmu.Count(hpm.EvICacheMiss, 1)
		m.addCycles(m.cfg.IMissPenalty)
	}

	// Retire accounting: one instruction; the base cycle is shared across
	// IssueWidth instructions when a superscalar width is configured.
	m.steps++
	m.pmu.Count(hpm.EvInsts, 1)
	if m.cfg.IssueWidth <= 1 {
		m.addCycles(1)
	} else {
		m.issueSlots++
		if m.issueSlots >= uint64(m.cfg.IssueWidth) {
			m.addCycles(1)
			m.issueSlots = 0
		}
	}

	regs := &f.regs
	advance := true
	goTo := func(b ir.BlockID) {
		f.blk, f.idx = m.locate(proc, b, 0)
		advance = false
	}

	switch in.Op {
	case ir.Nop:

	case ir.Add:
		regs[in.Rd] = regs[in.Rs] + regs[in.Rt]
	case ir.Sub:
		regs[in.Rd] = regs[in.Rs] - regs[in.Rt]
	case ir.Mul:
		regs[in.Rd] = regs[in.Rs] * regs[in.Rt]
	case ir.Div:
		if regs[in.Rt] == 0 {
			regs[in.Rd] = 0
		} else {
			regs[in.Rd] = regs[in.Rs] / regs[in.Rt]
		}
	case ir.Rem:
		if regs[in.Rt] == 0 {
			regs[in.Rd] = 0
		} else {
			regs[in.Rd] = regs[in.Rs] % regs[in.Rt]
		}
	case ir.And:
		regs[in.Rd] = regs[in.Rs] & regs[in.Rt]
	case ir.Or:
		regs[in.Rd] = regs[in.Rs] | regs[in.Rt]
	case ir.Xor:
		regs[in.Rd] = regs[in.Rs] ^ regs[in.Rt]
	case ir.Shl:
		regs[in.Rd] = regs[in.Rs] << (uint64(regs[in.Rt]) & 63)
	case ir.Shr:
		regs[in.Rd] = int64(uint64(regs[in.Rs]) >> (uint64(regs[in.Rt]) & 63))

	case ir.AddI:
		regs[in.Rd] = regs[in.Rs] + in.Imm
	case ir.MulI:
		regs[in.Rd] = regs[in.Rs] * in.Imm
	case ir.AndI:
		regs[in.Rd] = regs[in.Rs] & in.Imm
	case ir.OrI:
		regs[in.Rd] = regs[in.Rs] | in.Imm
	case ir.XorI:
		regs[in.Rd] = regs[in.Rs] ^ in.Imm
	case ir.ShlI:
		regs[in.Rd] = regs[in.Rs] << (uint64(in.Imm) & 63)
	case ir.ShrI:
		regs[in.Rd] = int64(uint64(regs[in.Rs]) >> (uint64(in.Imm) & 63))

	case ir.MovI:
		regs[in.Rd] = in.Imm
	case ir.Mov:
		regs[in.Rd] = regs[in.Rs]

	case ir.CmpLT:
		regs[in.Rd] = b2i(regs[in.Rs] < regs[in.Rt])
	case ir.CmpLE:
		regs[in.Rd] = b2i(regs[in.Rs] <= regs[in.Rt])
	case ir.CmpEQ:
		regs[in.Rd] = b2i(regs[in.Rs] == regs[in.Rt])
	case ir.CmpNE:
		regs[in.Rd] = b2i(regs[in.Rs] != regs[in.Rt])
	case ir.CmpLTI:
		regs[in.Rd] = b2i(regs[in.Rs] < in.Imm)
	case ir.CmpLEI:
		regs[in.Rd] = b2i(regs[in.Rs] <= in.Imm)
	case ir.CmpEQI:
		regs[in.Rd] = b2i(regs[in.Rs] == in.Imm)
	case ir.CmpNEI:
		regs[in.Rd] = b2i(regs[in.Rs] != in.Imm)

	case ir.FAdd, ir.FSub, ir.FMul, ir.FDiv, ir.FCmpLT:
		m.waitFP(in.Rs)
		m.waitFP(in.Rt)
		a := math.Float64frombits(uint64(regs[in.Rs]))
		b := math.Float64frombits(uint64(regs[in.Rt]))
		var v float64
		switch in.Op {
		case ir.FAdd:
			v = a + b
		case ir.FSub:
			v = a - b
		case ir.FMul:
			v = a * b
		case ir.FDiv:
			v = a / b
		case ir.FCmpLT:
			regs[in.Rd] = b2i(a < b)
		}
		if in.Op != ir.FCmpLT {
			regs[in.Rd] = int64(math.Float64bits(v))
			m.fpReady[in.Rd] = m.cycles + m.cfg.FPLatency
		}
	case ir.FNeg:
		m.waitFP(in.Rs)
		regs[in.Rd] = int64(math.Float64bits(-math.Float64frombits(uint64(regs[in.Rs]))))
		m.fpReady[in.Rd] = m.cycles + m.cfg.FPLatency
	case ir.FSqrt:
		m.waitFP(in.Rs)
		regs[in.Rd] = int64(math.Float64bits(math.Sqrt(math.Float64frombits(uint64(regs[in.Rs])))))
		m.fpReady[in.Rd] = m.cycles + 2*m.cfg.FPLatency
	case ir.CvtIF:
		regs[in.Rd] = int64(math.Float64bits(float64(regs[in.Rs])))
		m.fpReady[in.Rd] = m.cycles + m.cfg.FPLatency
	case ir.CvtFI:
		m.waitFP(in.Rs)
		f := math.Float64frombits(uint64(regs[in.Rs]))
		regs[in.Rd] = int64(f)

	case ir.Load:
		addr := uint64(regs[in.Rs] + in.Imm)
		if addr&7 != 0 {
			return fmt.Errorf("unaligned load at %#x in %s b%d", addr, proc.Name, blkID)
		}
		m.TouchRead(addr)
		regs[in.Rd] = m.memory.Load(addr)
	case ir.LoadIdx:
		addr := uint64(regs[in.Rs] + regs[in.Rt]*8 + in.Imm)
		if addr&7 != 0 {
			return fmt.Errorf("unaligned load at %#x in %s b%d", addr, proc.Name, blkID)
		}
		m.TouchRead(addr)
		regs[in.Rd] = m.memory.Load(addr)
	case ir.Store:
		addr := uint64(regs[in.Rs] + in.Imm)
		if addr&7 != 0 {
			return fmt.Errorf("unaligned store at %#x in %s b%d", addr, proc.Name, blkID)
		}
		m.TouchWrite(addr)
		m.memory.Store(addr, regs[in.Rd])
	case ir.StoreIdx:
		addr := uint64(regs[in.Rs] + regs[in.Rt]*8 + in.Imm)
		if addr&7 != 0 {
			return fmt.Errorf("unaligned store at %#x in %s b%d", addr, proc.Name, blkID)
		}
		m.TouchWrite(addr)
		m.memory.Store(addr, regs[in.Rd])

	case ir.Call, ir.CallInd:
		target := in.Imm
		if in.Op == ir.CallInd {
			target = regs[in.Rs]
		}
		if target < 0 || int(target) >= len(m.prog.Procs) {
			return fmt.Errorf("call to invalid procedure %d at %s b%d", target, proc.Name, blkID)
		}
		if len(m.frames) >= m.cfg.MaxDepth {
			return fmt.Errorf("call depth limit %d exceeded calling %s", m.cfg.MaxDepth, m.prog.Procs[target].Name)
		}
		m.pmu.Count(hpm.EvCalls, 1)
		m.addCycles(1) // call overhead
		if m.tracer != nil {
			m.tracer.Enter(int(target))
		}
		f.blk, f.idx = m.locate(proc, blkID, idx+1) // resume after the call
		m.push(m.blocks[target][0])
		m.fpReady = [ir.NumRegs]uint64{}
		advance = false

	case ir.Ret:
		if m.tracer != nil {
			m.tracer.Exit(proc.ID)
		}
		if len(m.frames) == 1 {
			// Returning from main halts the machine.
			m.halted = true
			advance = false
			break
		}
		rv := regs[ir.RegRV]
		sp := regs[ir.RegSP]
		m.frames = m.frames[:len(m.frames)-1]
		m.top().regs[ir.RegRV] = rv
		m.top().regs[ir.RegSP] = sp
		m.fpReady = [ir.NumRegs]uint64{}
		advance = false

	case ir.Out:
		if len(m.output) >= m.cfg.MaxOutput {
			return fmt.Errorf("output limit %d exceeded", m.cfg.MaxOutput)
		}
		m.output = append(m.output, regs[in.Rs])

	case ir.RdPIC:
		regs[in.Rd] = int64(m.pmu.ReadPair(int(in.Imm)))
	case ir.WrPIC:
		m.pmu.WritePair(int(in.Imm), uint64(regs[in.Rs]))
	case ir.RdTick:
		regs[in.Rd] = int64(m.cycles)

	case ir.SetJmp:
		m.jmpbufs = append(m.jmpbufs, jmpbuf{
			depth: len(m.frames) - 1,
			blk:   blkID,
			idx:   idx + 1,
			rt:    in.Rt,
		})
		regs[in.Rd] = int64(len(m.jmpbufs)) // handle (1-based)
		regs[in.Rt] = 0
	case ir.LongJmp:
		h := regs[in.Rs]
		if h < 1 || int(h) > len(m.jmpbufs) {
			return fmt.Errorf("longjmp with invalid handle %d", h)
		}
		buf := m.jmpbufs[h-1]
		if buf.depth > len(m.frames)-1 {
			return fmt.Errorf("longjmp to dead frame (handle %d)", h)
		}
		val := regs[in.Rt]
		m.frames = m.frames[:buf.depth+1]
		t := m.top()
		t.blk, t.idx = m.locate(t.blk.proc, buf.blk, buf.idx)
		t.regs[buf.rt] = val
		for _, fn := range m.onUnwind {
			fn(len(m.frames))
		}
		m.fpReady = [ir.NumRegs]uint64{}
		advance = false

	case ir.Probe:
		var fn Probe
		if uint64(in.Imm) < uint64(len(m.probes)) {
			fn = m.probes[in.Imm]
		}
		if fn == nil {
			return fmt.Errorf("unknown probe %d in %s", in.Imm, proc.Name)
		}
		regs[in.Rd] = fn(m, regs[in.Rs])

	case ir.Br:
		taken := regs[in.Rs] != 0
		m.pmu.Count(hpm.EvBranches, 1)
		if !m.pred.Predict(iaddr, taken) {
			m.pmu.Count(hpm.EvMispredict, 1)
			m.pmu.Count(hpm.EvMispredictStalls, m.cfg.MispredictPenalty)
			m.addCycles(m.cfg.MispredictPenalty)
		}
		slot := 1
		if taken {
			slot = 0
		}
		m.issueSlots = 0 // control transfers end an issue group
		if m.tracer != nil {
			m.tracer.Edge(proc.ID, blkID, slot)
		}
		goTo(blk.Succs[slot])

	case ir.Jmp:
		if m.tracer != nil {
			m.tracer.Edge(proc.ID, blkID, 0)
		}
		goTo(blk.Succs[0])

	case ir.Halt:
		m.halted = true
		advance = false

	default:
		return fmt.Errorf("unimplemented opcode %s", in.Op)
	}

	m.pmu.Retire()
	if m.mux != nil {
		m.muxSpent++
		if m.muxSpent >= m.muxQuantum {
			m.mux.Rotate(m.muxSpent)
			m.muxSpent = 0
		}
	}
	if advance {
		f.blk, f.idx = m.locate(proc, blkID, idx+1)
	}
	return nil
}
